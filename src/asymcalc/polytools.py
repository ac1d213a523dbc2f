"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are tuples of Fraction coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  On top of the ring
operations this module provides Sturm sequences, certified root isolation on a
closed rational interval, and `RootPt`, an exactly represented irrational
algebraic number given by a squarefree polynomial plus an isolating interval.

Rational roots need no search.  If q is squarefree and N is the leading
coefficient of its primitive integer multiple, a root u/v in lowest terms has
v | N (rational root theorem), so every rational root of q lies on the lattice
(1/N)Z.  An isolating interval that holds at most one lattice point k/N is
therefore decided by the single test q(k/N) = 0: the root is k/N, or it is
irrational.  `isolate_roots` returns rational roots as Fractions and only
irrational ones as RootPt.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction as Q

ZERO = ()
ONE = (Q(1),)
X = (Q(0), Q(1))


def poly(*coeffs) -> tuple:
    """Build a normalized polynomial from low-to-high coefficients."""
    return _trim(tuple(Q(c) for c in coeffs))


def _trim(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def pdeg(p) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(tuple(out))


def pneg(p):
    return tuple(-c for c in p)


def psub(p, q):
    return padd(p, pneg(q))


def pscale(p, c):
    c = Q(c)
    if c == 0:
        return ZERO
    return tuple(c * a for a in p)


def pmul(p, q):
    if not p or not q:
        return ZERO
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(tuple(out))


def ppow(p, n: int):
    out = ONE
    base = p
    while n:
        if n & 1:
            out = pmul(out, base)
        base = pmul(base, base)
        n >>= 1
    return out


def pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    d = len(q) - 1
    lead = q[-1]
    quo = [Q(0)] * max(0, len(p) - d)
    while len(r) - 1 >= d and any(r):
        r = _trim(tuple(r))
        if not r or len(r) - 1 < d:
            break
        c = r[-1] / lead
        k = len(r) - 1 - d
        quo[k] = c
        r = list(r)
        for i, b in enumerate(q):
            r[k + i] -= c * b
        r[-1] = Q(0)
    return _trim(tuple(quo)), _trim(tuple(r))


def pgcd(p, q):
    """Monic gcd."""
    while q:
        p, q = q, pdivmod(p, q)[1]
    if not p:
        return ZERO
    return pscale(p, 1 / p[-1])


def pderiv(p):
    if len(p) <= 1:
        return ZERO
    return _trim(tuple(i * c for i, c in enumerate(p))[1:])


def peval(p, x) -> Q:
    x = Q(x)
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pcompose_affine(p, a, b):
    """p(a*w + b) as a polynomial in w."""
    a, b = Q(a), Q(b)
    acc = ZERO
    lin = (b, a)
    for c in reversed(p):
        acc = padd(pmul(acc, lin), (c,) if c else ZERO)
    return acc


def squarefree(p):
    """Squarefree part p / gcd(p, p'), made monic."""
    if pdeg(p) <= 0:
        return pscale(p, 1 / p[-1]) if p else ZERO
    g = pgcd(p, pderiv(p))
    q, r = pdivmod(p, g)
    assert not r
    return pscale(q, 1 / q[-1])


def sturm_chain(p):
    """Sturm sequence of a (preferably squarefree) polynomial."""
    chain = [p, pderiv(p)]
    while chain[-1]:
        rem = pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(pneg(rem))
    return [c for c in chain if c]


def _variations(chain, x):
    signs = []
    for p in chain:
        v = peval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


def count_roots_halfopen(chain, a, b) -> int:
    """Number of distinct roots in (a, b] for a squarefree chain."""
    if a >= b:
        return 0
    return _variations(chain, a) - _variations(chain, b)


class RootPt:
    """An irrational real algebraic number: the unique root of `sf` in
    (lo, hi).

    `sf` is squarefree and monic, and the open interval contains exactly
    one of its roots.  Invariant: that root is irrational and sf(hi) != 0.
    Then sf is nonzero at every rational inside (lo, hi), positive on one
    side of the root and negative on the other, so a rational probe x in
    (lo, hi) lies above the root exactly when sf(x) has the sign of sf(hi).
    That sign never changes as the interval shrinks, so it is kept in
    `hi_pos`.  Rational numbers are never wrapped in this class (see
    `isolate_roots`); code that mixes them uses `pt_cmp` and friends below.
    """

    __slots__ = ("sf", "lo", "hi", "hi_pos")

    def __init__(self, sf, lo, hi):
        self.sf = sf
        self.lo = Q(lo)
        self.hi = Q(hi)
        self.hi_pos = peval(sf, self.hi) > 0

    def __repr__(self):
        return f"RootPt({self.sf}, {self.lo}, {self.hi})"

    def _cut(self, x) -> int:
        """Shrink the interval at a rational x in (lo, hi); returns the
        sign of root - x."""
        if (peval(self.sf, x) > 0) == self.hi_pos:
            self.hi = x
            return -1
        self.lo = x
        return 1

    def refine(self):
        """Halve the isolating interval."""
        self._cut((self.lo + self.hi) / 2)

    def refine_below(self, width):
        while self.hi - self.lo > width:
            self.refine()

    def cmp_q(self, r) -> int:
        """Compare with a rational; returns -1 or +1 (never 0: the root is
        irrational)."""
        r = Q(r)
        if r >= self.hi:
            return -1
        if r <= self.lo:
            return 1
        return self._cut(r)

    def sign_of(self, p) -> int:
        """Exact sign of the polynomial p at this algebraic point."""
        if not p:
            return 0
        g = pgcd(self.sf, p)
        if pdeg(g) >= 1 and count_roots_halfopen(sturm_chain(g), self.lo, self.hi):
            return 0
        # p has no root equal to this point; refine until p has no root in
        # the open interval, where it then keeps one nonzero sign (roots of
        # p at the endpoints are harmless)
        ps = squarefree(p)
        chain = sturm_chain(ps)
        while count_roots_halfopen(chain, self.lo, self.hi) > \
                (peval(ps, self.hi) == 0):
            self.refine()
        return 1 if peval(p, (self.lo + self.hi) / 2) > 0 else -1

    def approx(self, width=Q(1, 2**40)) -> Q:
        self.refine_below(width)
        return (self.lo + self.hi) / 2


def pt_cmp(a, b) -> int:
    """Compare two points, each a Fraction or a RootPt."""
    if isinstance(a, RootPt):
        if isinstance(b, RootPt):
            return _rootpt_cmp(a, b)
        return a.cmp_q(b)
    if isinstance(b, RootPt):
        return -b.cmp_q(a)
    return (a > b) - (a < b)


def _rootpt_cmp(a: RootPt, b: RootPt) -> int:
    if a is b:
        return 0
    g = pgcd(a.sf, b.sf)
    if pdeg(g) >= 1 and a.sign_of(g) == 0 and b.sign_of(g) == 0:
        # both points are roots of the common factor; equal iff same root
        if _shared_root(a, b, g):
            return 0
    while not (a.hi <= b.lo or b.hi <= a.lo):
        a.refine()
        b.refine()
    return -1 if a.hi <= b.lo else 1


def _shared_root(a: RootPt, b: RootPt, g) -> bool:
    chain = sturm_chain(g)
    while True:
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        if lo >= hi:
            return False
        if count_roots_halfopen(chain, min(a.lo, b.lo), max(a.hi, b.hi)) == 1:
            # only one root of g near both points, and both points are
            # roots of g, so they coincide
            return True
        a.refine()
        b.refine()


def pt_approx(p) -> Q:
    return p.approx() if isinstance(p, RootPt) else Q(p)


@functools.lru_cache(maxsize=4096)
def isolate_roots(p, lo, hi):
    """Certified isolation of the distinct real roots of p on [lo, hi].

    Returns a tuple, sorted by position, of either Fraction (an exact
    rational root) or RootPt (an irrational root with isolating interval
    inside [lo, hi]).  p must be a nonzero tuple.  Results are memoized, so
    equal calls share their RootPt objects; refining one only narrows an
    interval that still isolates the same root.

    One Sturm bisection pass over the squarefree part q finds the roots.
    Let N be the leading coefficient of q's primitive integer multiple; by
    the rational root theorem every rational root of q lies on the lattice
    (1/N)Z.  Each interval (a, b] holding one root yields b when q(b) = 0;
    otherwise it is halved by the sign of q alone until (a, b) holds at most
    one lattice point k/N, and q(k/N) = 0 decides between the Fraction k/N
    and a RootPt, whose root is then irrational.
    """
    lo, hi = Q(lo), Q(hi)
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if lo > hi:
        return ()
    q = squarefree(p)
    if pdeg(q) <= 0:
        return ()
    n_lat = _lattice(q)
    chain = sturm_chain(q)
    out = [lo] if peval(q, lo) == 0 else []
    # entries (a, b, n): n roots of q in (a, b]; the left half is pushed
    # last so that roots come out in increasing order
    stack = [(lo, hi, count_roots_halfopen(chain, lo, hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 1:
            out.append(_one_root(q, n_lat, a, b))
        elif n > 1:
            m = (a + b) / 2
            k = count_roots_halfopen(chain, a, m)
            stack.append((m, b, n - k))
            stack.append((a, m, k))
    return tuple(out)


def _lattice(q) -> int:
    """The leading coefficient N of the primitive integer multiple of the
    monic q: every rational root of q is a multiple of 1/N."""
    den = math.lcm(*(c.denominator for c in q))
    return den // math.gcd(*(c.numerator * (den // c.denominator) for c in q))


def _one_root(q, n_lat, a, b):
    """The single root of q in (a, b], as a Fraction or a RootPt."""
    sb = peval(q, b)
    if sb == 0:
        return b
    pos = sb > 0
    # (a, b) holds ceil(bN) - floor(aN) - 1 lattice points k/N; halve it
    # until at most one is left
    while math.ceil(b * n_lat) - math.floor(a * n_lat) > 2:
        m = (a + b) / 2
        v = peval(q, m)
        if v == 0:
            return m
        if (v > 0) == pos:
            b = m
        else:
            a = m
    k = math.floor(a * n_lat) + 1
    if Q(k, n_lat) < b and peval(q, Q(k, n_lat)) == 0:
        return Q(k, n_lat)
    return RootPt(q, a, b)


def poly_nonneg_on(p, lo, hi) -> bool:
    """Exact check that p >= 0 everywhere on [lo, hi]."""
    if not p:
        return True
    if peval(p, lo) < 0 or peval(p, hi) < 0:
        return False
    pts = isolate_roots(p, lo, hi)
    samples = [lo, hi]
    prev = lo
    for pt in pts:
        x = pt_approx(pt)
        samples.append((prev + x) / 2 if prev < x else prev)
        prev = x
    samples.append((prev + hi) / 2 if prev < hi else hi)
    return all(peval(p, s) >= 0 for s in samples)
