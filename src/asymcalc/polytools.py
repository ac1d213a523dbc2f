"""Exact univariate polynomial arithmetic over the integers.

Polynomials are tuples of int coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Functions that decide
something also take Fraction coefficients and clear them once (`_zpoly`).  On
top of the ring operations this module provides root counting by Descartes'
rule of signs, certified root isolation on a closed rational interval, and
`RootPt`, an exactly represented irrational algebraic number given by a
squarefree polynomial plus an isolating interval.

Signs are read off the homogeneous Horner sum of z_i a^i b^(n-i) = b^n z(x)
at a rational x = a/b, b > 0: `_zsign` takes its sign and `peval` divides it
by b^n.  A positive multiple of a polynomial has its sign everywhere, and
every decision below rests on that.  `pgcd` runs the primitive
pseudo-remainder sequence over Z (Collins 1967; Brown & Traub 1971); it,
`squarefree` and `RootPt.sf` are primitive with lc > 0.  By Gauss's lemma a
primitive divisor of an integer polynomial divides it over Z, so `pquo` is
an exact integer quotient.

Roots are counted by Descartes' rule of signs (Collins & Akritas 1976).
For a < b and n = deg q, the map x = (a + b t)/(1 + t) takes t in (0, inf)
onto x in (a, b), so the roots of q in (a, b) are the positive roots of
T(t) = (1 + t)^n q((a + b t)/(1 + t)), and the number V of sign variations
of the coefficients of T bounds them from above, up to an even excess.
`_descartes` computes V with integers only: `pcompose_affine(q, b - a, a,
n)`, its coefficients reversed, then a Taylor shift by 1.  V is exact in two
cases.  By the one-circle theorem V = 0 when the open disc with diameter
[a, b] holds no complex root of q.  By the two-circle theorem V = 1 when the
union of the two open discs whose boundary circles pass through a and b
with centres (a + b)/2 +- i(b - a)/(2 sqrt 3) holds exactly one root, a
simple one (Obreschkoff 1963; Krandick & Mehlhorn 2006).  A squarefree q has
distinct roots, so halving shrinks every interval until one of the two
applies, and the one bisection of this module, `_root_cells`, ends: it
yields the cells (c, d] that hold one root each, a root at d being found
by testing q there.  `count_roots` counts these cells and `isolate_roots`
reads one root off each.  At an algebraic point the same two theorems
decide signs without counting roots (`RootPt`).

Rational roots need no search.  If q is squarefree and primitive with
leading coefficient N, a root u/v in lowest terms has v | N (rational root
theorem), so every rational root of q lies on the lattice (1/N)Z.  An
isolating interval that holds at most one lattice point k/N is therefore
decided by the single test q(k/N) = 0: the root is k/N, or it is
irrational.  `isolate_roots` returns rational roots as Fractions and only
irrational ones as RootPt.

Up to degree 2 no search is needed at all.  A linear q has the one root
-q_0/q_1.  A quadratic c + b w + a w^2 over Z with discriminant D = b^2 -
4ac has the roots (-b -+ sqrt D)/2a: none is real when D < 0, and both are
rational exactly when D is a square, since +-sqrt D = 2a x + b is
rational at a rational root x.  When D = 0 the quadratic is a (w +
b/2a)^2, and its gcd with its derivative b + 2a w is that derivative;
otherwise the gcd is 1.  So its squarefree part drops a degree exactly
when D = 0.  `squarefree` reads both cases off the coefficients, and
`isolate_roots` returns these roots in closed form; only an irrational
pair, or a degree of 3 or more, goes through the bisection below.

Points compare like numbers.  A window point is a Fraction or a RootPt, and
`<`, `<=`, `>`, `>=` and `==` order any two of them, through `pt_cmp`, which
refines RootPt intervals as far as a comparison needs.  A RootPt never
equals a rational, so `==` against one is False without refining.  With
`psign` (which takes either kind), `pt_between` and `pt_enclosure`, no
caller outside this module reads or refines a RootPt interval.
`poly_nonneg_on` samples between two roots at `pt_between`, which refines
only until their intervals part.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction as Q

ZERO = ()
ONE = (1,)


def poly(*coeffs) -> tuple:
    """Normalized low-to-high coefficients; non-ints become Fractions."""
    return _trim(tuple(c if type(c) is int else Q(c) for c in coeffs))


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
    if not c:
        return ZERO
    return tuple(c * a for a in p)


def pmul(p, q):
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
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


def pquo(p, q):
    """p / q for integer polynomials, q primitive and dividing p."""
    r = list(p)
    d = len(q) - 1
    lead = q[-1]
    out = [0] * (len(p) - d)
    for k in range(len(out) - 1, -1, -1):
        c = r[k + d] // lead
        out[k] = c
        if c:
            for i, b in enumerate(q):
                r[k + i] -= c * b
    return tuple(out)


def pgcd(p, q):
    """gcd of p and q, primitive with lc > 0, by the primitive PRS over Z."""
    a, b = _zpoly(p), _zpoly(q)
    while b:
        a, b = b, _zprem(a, b)
    return _normal(a)


def pderiv(p):
    if len(p) <= 1:
        return ZERO
    return _trim(tuple(i * c for i, c in enumerate(p))[1:])


def peval(p, x) -> Q:
    """p(x) at a rational x = a/b: the homogeneous Horner sum over b^n."""
    return Q(_hsum(p, x), x.denominator ** pdeg(p)) if p else Q(0)


def pcompose_affine(p, a, b, n):
    """L^n p(a w + b) as an integer polynomial in w, for an integer p, n >=
    deg p and rationals a, b, L the lcm of their denominators."""
    L = math.lcm(a.denominator, b.denominator)
    lin = (b.numerator * L // b.denominator, a.numerator * L // a.denominator)
    acc, Lk = ZERO, 1
    for c in reversed(p):
        acc = padd(pmul(acc, lin), (c * Lk,))
        Lk *= L
    return pscale(acc, L ** (n - pdeg(p)))


def squarefree(p):
    """Squarefree part p / gcd(p, p'), primitive with lc > 0.  Up to degree
    2 it is read off the coefficients (module docstring): c + b w + a w^2
    with b^2 = 4ac has the part b + 2a w, any other one of degree <= 2 is
    its own part, and only a higher degree runs the PRS gcd."""
    z = _zpoly(p)
    if len(z) == 3 and z[1] * z[1] == 4 * z[0] * z[2]:
        return _normal((z[1], 2 * z[2]))
    return _normal(z if len(z) <= 3 else pquo(z, pgcd(z, pderiv(z))))


def _zform(p) -> tuple:
    """The primitive integer multiple of p by a positive rational: integer
    coefficients with gcd 1 (the empty tuple for p = 0)."""
    den = math.lcm(*(c.denominator for c in p))
    return _content_free([c.numerator * (den // c.denominator) for c in p])


def _zpoly(p) -> tuple:
    """p when its coefficients are ints, else `_zform(p)`: an integer
    polynomial that is a positive multiple of p."""
    return p if all(type(c) is int for c in p) else _zform(p)


def _content_free(z) -> tuple:
    """The integer polynomial z divided by the gcd of its coefficients."""
    g = math.gcd(*z)
    return tuple(c // g for c in z) if g > 1 else tuple(z)


def _normal(z) -> tuple:
    """z divided by its content, with a positive leading coefficient."""
    z = _content_free(z)
    return pneg(z) if z and z[-1] < 0 else z


def _hsum(z, x):
    """b^n z(x) at x = a/b, n = deg z: the sum of z_i a^i b^(n-i)."""
    a, b = x.numerator, x.denominator
    acc, bk = z[-1], 1
    for c in z[-2::-1]:
        bk *= b
        acc = acc * a + c * bk
    return acc


def _zsign(z, x) -> int:
    """Sign of the integer polynomial z at the rational x."""
    acc = _hsum(z, x) if z else 0
    return (acc > 0) - (acc < 0)


def psign(p, x) -> int:
    """Exact sign of the polynomial p at the point x (a Fraction, an int or
    a RootPt)."""
    if isinstance(x, RootPt):
        return x.sign_of(p)
    return _zsign(_zpoly(p), x)


def _zprem(a, b) -> tuple:
    """The primitive part of a pseudo-remainder of a by b over Z.  Each
    elimination step multiplies by |lc b|, so the result is a positive
    multiple of a mod b over Q."""
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    mag, sgn = abs(lead), (1 if lead > 0 else -1)
    while len(r) > d:
        c = r[-1] * sgn
        k = len(r) - 1 - d
        if c:
            r = [mag * x for x in r]
            for i, y in enumerate(b):
                r[k + i] -= c * y
        r.pop()
    while r and not r[-1]:
        r.pop()
    return _content_free(r)


def _descartes(q, a, b) -> int:
    """V for the integer polynomial q on (a, b), a < b (module docstring):
    the sign variations of L^n (1 + t)^n q((a t + b)/(1 + t)), the
    transform T with its coefficients reversed.  A root of q at a or b
    lowers the degree of T or raises its order at 0, and adds no
    variation."""
    n = pdeg(q)
    c = list(reversed(pcompose_affine(q, b - a, a, n)))
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += c[j + 1]
    signs = [x > 0 for x in c if x]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _root_cells(q, a, b):
    """The cells (c, d], in increasing order, of a Descartes bisection of
    (a, b] that hold exactly one root of the squarefree integer polynomial
    q.  A cell counts `_descartes(q, c, d)` plus [q(d) = 0] roots and is
    halved while that count is above 1; the left half is pushed last."""
    stack = [(a, b)] if a < b else []
    while stack:
        c, d = stack.pop()
        n = _descartes(q, c, d) + (_zsign(q, d) == 0)
        if n == 1:
            yield c, d
        elif n > 1:
            m = (c + d) / 2
            stack.append((m, d))
            stack.append((c, m))


def count_roots(q, a, b) -> int:
    """Number of distinct roots in (a, b] of the squarefree integer
    polynomial q (0 for q = 0): the number of `_root_cells`."""
    if not q:
        return 0
    return sum(1 for _ in _root_cells(q, Q(a), Q(b)))


class RootPt:
    """An irrational real algebraic number: the unique root of `sf` in
    (lo, hi).

    `sf` is a squarefree integer polynomial, primitive with a positive
    leading coefficient, and the open interval contains exactly one of its
    roots.  Invariant: that root is irrational and sf(hi) != 0.
    Then sf is nonzero at every rational inside (lo, hi), positive on one
    side of the root and negative on the other, so a rational probe x in
    (lo, hi) lies above the root exactly when sf(x) has the sign of sf(hi).
    That sign never changes as the interval shrinks, so it is kept in
    `hi_pos`.  Rational numbers are never wrapped in this class (see
    `isolate_roots`).  A RootPt orders against Fractions, ints and other
    RootPts with the comparison operators, through `pt_cmp`; it equals no
    rational, and it is unhashable, since refining changes its fields.
    Signs at it are decided by the circle tests, with no root count.
    """

    __slots__ = ("sf", "lo", "hi", "hi_pos")

    def __init__(self, sf, lo, hi):
        self.sf = sf
        self.lo = Q(lo)
        self.hi = Q(hi)
        self.hi_pos = _zsign(sf, self.hi) > 0

    def __repr__(self):
        return f"RootPt({self.sf}, {self.lo}, {self.hi})"

    def __lt__(self, other):
        return pt_cmp(self, other) < 0

    def __le__(self, other):
        return pt_cmp(self, other) <= 0

    def __gt__(self, other):
        return pt_cmp(self, other) > 0

    def __ge__(self, other):
        return pt_cmp(self, other) >= 0

    def __eq__(self, other):
        if isinstance(other, RootPt):
            return pt_cmp(self, other) == 0
        if isinstance(other, (int, Q)):
            return False  # the root is irrational
        return NotImplemented

    __hash__ = None

    def _cut(self, x) -> int:
        """Shrink the interval at a rational x in (lo, hi); returns the
        sign of root - x."""
        if (_zsign(self.sf, x) > 0) == self.hi_pos:
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
        """Exact sign of the polynomial p at this algebraic point.  The
        root is simple for sf, so p vanishes there exactly when g = gcd(sf,
        p) does.  Halving brings V(g) to 1 if so (two-circle theorem) and to
        0 if not (one-circle theorem), and then V(p) to 0: p has one sign
        on (lo, hi)."""
        if not p:
            return 0
        p = _zpoly(p)
        g = pgcd(self.sf, p)
        if pdeg(g) >= 1:
            while (v := _descartes(g, self.lo, self.hi)) > 1:
                self.refine()
            if v:
                return 0
        while _descartes(p, self.lo, self.hi):
            self.refine()
        return _zsign(p, (self.lo + self.hi) / 2)


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
    while True:
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        if lo >= hi:
            return False
        if _descartes(g, min(a.lo, b.lo), max(a.hi, b.hi)) == 1:
            # only one root of g near both points, and both points are
            # roots of g, so they coincide
            return True
        a.refine()
        b.refine()


def pt_between(a, b) -> Q:
    """A rational strictly between two points a < b."""
    if isinstance(a, Q) and isinstance(b, Q):
        return (a + b) / 2
    while True:
        if isinstance(a, RootPt):
            a.refine()
        if isinstance(b, RootPt):
            b.refine()
        lo = a.hi if isinstance(a, RootPt) else a
        hi = b.lo if isinstance(b, RootPt) else b
        if lo < hi:
            return (lo + hi) / 2


def pt_enclosure(p, width):
    """Rationals (lo, hi) with lo < p < hi and hi - lo <= width.  For a
    RootPt, the dyadic cell [k/2^e, (k+1)/2^e] that holds it, e >= 0 least
    with 2^-e <= width: it depends on the root and the width alone, not on
    how far earlier queries refined the shared RootPt.  For a rational p,
    the interval of that width centred on p."""
    if not isinstance(p, RootPt):
        return p - width / 2, p + width / 2
    cell = Q(1)
    while cell > width:
        cell /= 2
    p.refine_below(cell)
    # (lo, hi) is now at most one cell wide, so it holds at most one cell
    # end, (k + 1) * cell
    k = math.floor(p.lo / cell)
    if p.cmp_q((k + 1) * cell) > 0:
        k += 1
    return k * cell, (k + 1) * cell


@functools.lru_cache(maxsize=4096)
def isolate_roots(p, lo, hi):
    """Certified isolation of the distinct real roots of p on [lo, hi].

    Returns a tuple, sorted by position, of either Fraction (an exact
    rational root) or RootPt (an irrational root with isolating interval
    inside [lo, hi]).  p must be a nonzero tuple.  Results are memoized, so
    equal calls share their RootPt objects; refining one only narrows an
    interval that still isolates the same root.

    When the squarefree part q is linear, or quadratic with a negative or
    square discriminant, its roots are exact (`_rational_roots`) and those
    in [lo, hi] are returned.  Otherwise lo is tested directly, and each
    cell (a, b] of `_root_cells(q, lo, hi)` gives one root (`_one_root`).
    Let N be the leading coefficient of q; by the rational root theorem
    every rational root of q lies on the lattice (1/N)Z.  A cell yields b
    when q(b) = 0; otherwise it is halved by the sign of q alone until
    (a, b) holds at most one lattice point k/N, and q(k/N) = 0 decides
    between the Fraction k/N and a RootPt, whose root is then irrational.
    """
    lo, hi = Q(lo), Q(hi)
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if lo > hi:
        return ()
    q = squarefree(p)
    if pdeg(q) <= 0:
        return ()
    roots = _rational_roots(q)
    if roots is not None:
        return tuple(x for x in roots if lo <= x <= hi)
    out = [lo] if _zsign(q, lo) == 0 else []
    out += (_one_root(q, a, b) for a, b in _root_cells(q, lo, hi))
    return tuple(out)


def _rational_roots(q):
    """Every real root of q (squarefree, primitive, lc > 0), increasing,
    when deg q <= 2 and none is irrational; None otherwise."""
    if len(q) == 2:
        return (Q(-q[0], q[1]),)
    if len(q) == 3:
        c, b, a = q
        d = b * b - 4 * a * c
        if d < 0:
            return ()
        s = math.isqrt(d)
        if s * s == d:
            return (Q(-b - s, 2 * a), Q(-b + s, 2 * a))
    return None


def _one_root(q, a, b):
    """The single root of q (squarefree, primitive, lc N > 0) in (a, b],
    as a Fraction or a RootPt; its rational roots lie on (1/N)Z."""
    sb = _zsign(q, b)
    if sb == 0:
        return b
    n_lat = q[-1]
    # (a, b) holds ceil(bN) - floor(aN) - 1 lattice points k/N; halve it
    # until at most one is left
    while math.ceil(b * n_lat) - math.floor(a * n_lat) > 2:
        m = (a + b) / 2
        v = _zsign(q, m)
        if v == 0:
            return m
        if v == sb:
            b = m
        else:
            a = m
    k = math.floor(a * n_lat) + 1
    if Q(k, n_lat) < b and _zsign(q, Q(k, n_lat)) == 0:
        return Q(k, n_lat)
    return RootPt(q, a, b)


def poly_nonneg_on(p, lo, hi) -> bool:
    """Exact check that p >= 0 everywhere on [lo, hi]: at both ends, and
    at a `pt_between` sample between each two consecutive roots.  Next to
    an end, up to the nearest root, p has the sign of that end."""
    if not p:
        return True
    z = _zpoly(p)
    lo, hi = Q(lo), Q(hi)
    if _zsign(z, lo) < 0 or _zsign(z, hi) < 0:
        return False
    if lo < hi and not _descartes(z, lo, hi):
        # no root inside: z keeps one sign there, which the ends need not
        # show when z vanishes at both
        return _zsign(z, (lo + hi) / 2) >= 0
    pts = isolate_roots(z, lo, hi)
    return all(_zsign(z, pt_between(a, b)) >= 0
               for a, b in zip(pts, pts[1:]))
