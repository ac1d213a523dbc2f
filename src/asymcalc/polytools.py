"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are tuples of Fraction coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  On top of the ring
operations this module provides Sturm sequences, certified root isolation on a
closed rational interval, and `RootPt`, an exactly represented real algebraic
number given by a squarefree polynomial plus an isolating interval.
"""

from __future__ import annotations

import functools
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
    """A real algebraic number: the unique root of `sf` in (lo, hi).

    `sf` is squarefree and monic, sf(lo) != 0 != sf(hi), and the open
    interval contains exactly one root.  Rational numbers are not wrapped in
    this class; code that mixes them uses `pt_cmp` and friends below.
    """

    __slots__ = ("sf", "lo", "hi", "_chain")

    def __init__(self, sf, lo, hi):
        self.sf = sf
        self.lo = Q(lo)
        self.hi = Q(hi)
        self._chain = None

    def __repr__(self):
        return f"RootPt({self.sf}, {self.lo}, {self.hi})"

    def chain(self):
        if self._chain is None:
            self._chain = sturm_chain(self.sf)
        return self._chain

    def refine(self):
        """Halve the isolating interval."""
        mid = (self.lo + self.hi) / 2
        v = peval(self.sf, mid)
        if v == 0:
            # should not happen for a squarefree poly with irrational root,
            # but guard anyway: nudge the midpoint
            mid = self.lo + (self.hi - self.lo) * Q(13, 32)
            v = peval(self.sf, mid)
            assert v != 0
        if count_roots_halfopen(self.chain(), self.lo, mid):
            self.hi = mid
        else:
            self.lo = mid

    def refine_below(self, width):
        while self.hi - self.lo > width:
            self.refine()

    def cmp_q(self, r) -> int:
        """Compare with a rational; returns -1, 0, +1."""
        r = Q(r)
        if r >= self.hi:
            return -1
        if r <= self.lo:
            return 1
        # r strictly inside the isolating interval
        if peval(self.sf, r) == 0:
            return 0
        if count_roots_halfopen(self.chain(), self.lo, r):
            self.hi = r
            return -1
        self.lo = r
        return 1

    def sign_of(self, p) -> int:
        """Exact sign of the polynomial p at this algebraic point."""
        if not p:
            return 0
        g = pgcd(self.sf, p)
        if pdeg(g) >= 1 and count_roots_halfopen(sturm_chain(g), self.lo, self.hi):
            return 0
        # p has no root equal to this point; refine until p is sign-constant
        # strictly inside the isolating interval (endpoint roots of p are
        # harmless and must not block termination)
        while True:
            roots = [r for r in isolate_roots(p, self.lo, self.hi)
                     if not (isinstance(r, Q) and (r == self.lo or r == self.hi))]
            if not roots:
                mid = (self.lo + self.hi) / 2
                v = peval(p, mid)
                if v == 0:
                    mid = self.lo + (self.hi - self.lo) * Q(13, 32)
                    v = peval(p, mid)
                return 1 if v > 0 else -1
            self.refine()

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
    """
    lo, hi = Q(lo), Q(hi)
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if lo > hi:
        return ()
    q = squarefree(p)
    if pdeg(q) <= 0:
        return ()
    found = []

    def peel(x):
        nonlocal q
        quo, rem = pdivmod(q, (-x, Q(1)))
        assert not rem
        q = quo
        found.append(x)

    if peval(q, lo) == 0:
        peel(lo)
    if hi > lo and q and peval(q, hi) == 0:
        peel(hi)
    # small-denominator candidates catch the common rational roots early;
    # a linear part needs none, its root below is exact
    if pdeg(q) >= 2:
        for cand in _rational_candidates(q, lo, hi):
            if lo < cand < hi and q and peval(q, cand) == 0:
                peel(cand)
    # a remaining linear factor has an exact rational root
    if q and pdeg(q) == 1:
        root = -Q(q[0]) / Q(q[1])
        if lo < root < hi:
            peel(root)
    out = []
    while q and pdeg(q) >= 1 and hi > lo:
        if pdeg(q) == 1:
            root = -Q(q[0]) / Q(q[1])
            if lo < root < hi:
                peel(root)
            break
        chain = sturm_chain(q)
        out = []
        stack = [(lo, hi)]
        deflated = False
        while stack:
            a, b = stack.pop()
            n = count_roots_halfopen(chain, a, b)
            if n == 0:
                continue
            if n == 1:
                out.append(RootPt(q, a, b))
                continue
            m = (a + b) / 2
            if peval(q, m) == 0:
                peel(m)
                deflated = True
                break
            stack.append((a, m))
            stack.append((m, b))
        if not deflated:
            break
    allpts = [Q(f) for f in found if lo <= f <= hi] + out
    allpts.sort(key=functools.cmp_to_key(pt_cmp))
    return tuple(allpts)


def _rational_candidates(q, lo, hi):
    """Rational root candidates of q by the rational-root theorem, clipped."""
    if pdeg(q) < 1:
        return []
    den = 1
    for c in q:
        den = den * c.denominator // _gcd(den, c.denominator)
    ints = [int(c * den) for c in q]
    # a zero constant term puts a root at 0, which the divisors below miss
    cands = {Q(0)} if ints[0] == 0 else set()
    while ints and ints[0] == 0:
        ints = ints[1:]
    if not ints:
        return []
    a0, an = abs(ints[0]), abs(ints[-1])
    for p_ in _small_divisors(a0):
        for q_ in _small_divisors(an):
            cands.add(Q(p_, q_))
            cands.add(Q(-p_, q_))
    return sorted(c for c in cands if lo <= c <= hi)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@functools.lru_cache(maxsize=1024)
def _small_divisors(n, cap=4096):
    n = abs(n)
    if n == 0:
        return (1,)
    out = []
    d = 1
    while d * d <= n and d <= cap:
        if n % d == 0:
            out.append(d)
            if n // d <= cap:
                out.append(n // d)
        d += 1
    return tuple(sorted(set(out)))


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
