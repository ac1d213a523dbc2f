"""Piecewise rational functions on a closed rational interval.

These are the "profiles" out of which self-similar elements are built: a
contiguous list of segments, each carrying a rational function num/den whose
denominator is certified root-free on the segment.  num and den are coprime
integer polynomials with content 1 over both and lc(den) > 0, so equal
functions have equal segments.  Public constructors validate and `on` trusts:
coefficients are cleared and the certificate checked only in `Seg(...)`,
contiguity and continuity only in `Piecewise(...)` and `concat`, and each
operation that builds through `on` says why its valid inputs give a valid
result; `linear_interp` checks its nodes and builds canonical lines through
`Seg.on`, joined through `on`, since neighbours share a node and its value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import attrgetter

from .errors import ContinuityViolation, ZeroDenominator
from .ivset import Iv, IvSet
from .polytools import (ONE, ZERO, _normal, _zpoly, _zsign, count_roots,
                        isolate_roots, padd, pcompose_affine, pderiv, pdeg,
                        peval, pgcd, pmul, poly, poly_nonneg_on, pquo,
                        pscale, psign, psub, squarefree)


def _reduce(num, den):
    """The canonical form of the integer fraction num/den."""
    # a constant denominator has no common factor with num
    if num and pdeg(den) >= 1:
        g = pgcd(num, den)
        if pdeg(g) >= 1:
            num, den = pquo(num, g), pquo(den, g)
    return _content_one(num, den)


def _content_one(num, den):
    """Coprime num, den over the content of both, with lc(den) > 0."""
    if not num:
        return ZERO, ONE
    z = _normal(num + den)
    return z[:len(num)], z[len(num):]


@dataclass(frozen=True, slots=True)
class Seg:
    lo: Q
    hi: Q
    num: tuple
    den: tuple = ONE

    def __post_init__(self):
        num, den = poly(*self.num), poly(*self.den)
        if not den:
            raise ZeroDenominator("denominator is the zero polynomial")
        z = _zpoly(num + den)
        num, den = _reduce(z[:len(num)], z[len(num):])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "lo", Q(self.lo))
        object.__setattr__(self, "hi", Q(self.hi))
        if self.lo >= self.hi:
            raise ValueError("segment must have positive length")
        if pdeg(self.den) >= 1:
            sf = squarefree(self.den)
            if psign(sf, self.lo) == 0 or count_roots(sf, self.lo, self.hi):
                raise ZeroDenominator(
                    f"denominator vanishes on [{self.lo}, {self.hi}]")

    @classmethod
    def on(cls, lo: Q, hi: Q, num, den=ONE) -> "Seg":
        """Trusted: Fractions lo < hi, num/den canonical, den root-free."""
        s = object.__new__(cls)
        object.__setattr__(s, "lo", lo)
        object.__setattr__(s, "hi", hi)
        object.__setattr__(s, "num", num)
        object.__setattr__(s, "den", den)
        return s

    def val(self, w) -> Q:
        return peval(self.num, w) / peval(self.den, w)

    def is_zero(self) -> bool:
        return not self.num

    def den_sign(self) -> int:
        """The sign of den on the closed segment, where it has no root."""
        return _zsign(self.den, self.lo)

    def monic(self) -> tuple:
        """(num, den) over lc(den), as Fractions: the printed form."""
        return tuple(tuple(Q(c, self.den[-1]) for c in p)
                     for p in (self.num, self.den))


_seg_hi = attrgetter("hi")


class Piecewise:
    """A continuous piecewise rational function on [lo, hi]."""

    __slots__ = ("segs",)

    def __init__(self, segs):
        segs = list(segs)
        if not segs:
            raise ValueError("need at least one segment")
        for a, b in zip(segs, segs[1:]):
            if a.hi != b.lo:
                raise ValueError("segments must be contiguous")
            if a.val(a.hi) != b.val(b.lo):
                raise ContinuityViolation(
                    f"jump at w={a.hi}: {a.val(a.hi)} vs {b.val(b.lo)}")
        self.segs = tuple(_merge(segs))

    @classmethod
    def on(cls, segs) -> "Piecewise":
        """Trusted: valid, contiguous segments of a continuous function."""
        f = object.__new__(cls)
        f.segs = tuple(_merge(segs))
        return f

    @property
    def lo(self) -> Q:
        return self.segs[0].lo

    @property
    def hi(self) -> Q:
        return self.segs[-1].hi

    @staticmethod
    def const(lo, hi, c) -> "Piecewise":
        return Piecewise([Seg(Q(lo), Q(hi), poly(c))])

    @staticmethod
    def zero(lo, hi) -> "Piecewise":
        """Trusted for lo < hi: the pair (0, 1) has no root to certify."""
        return Piecewise.on([Seg.on(Q(lo), Q(hi), ZERO)])

    @staticmethod
    def from_poly(lo, hi, num, den=ONE) -> "Piecewise":
        return Piecewise([Seg(Q(lo), Q(hi), num, den)])

    @staticmethod
    def linear_interp(points) -> "Piecewise":
        """Piecewise linear through [(w0,v0), (w1,v1), ...], w strictly
        increasing.  It checks the nodes and builds each line through
        `Seg.on`: a line over the denominator 1 has no root to certify, and
        `_zpoly` of num + (1,) is primitive with a positive last
        coefficient, so it is canonical.  Neighbours share a node and its
        value, so the segments join through the trusted `on`."""
        pts = [(Q(w), Q(v)) for w, v in points]
        segs = []
        for (w0, v0), (w1, v1) in zip(pts, pts[1:]):
            if w1 <= w0:
                raise ValueError("nodes must strictly increase in w")
            slope = (v1 - v0) / (w1 - w0)
            z = _zpoly(poly(v0 - slope * w0, slope) + ONE)
            segs.append(Seg.on(w0, w1, z[:-1], z[-1:]))
        if not segs:
            raise ValueError("need at least one segment")
        return Piecewise.on(segs)

    def __repr__(self):
        bits = []
        for s in self.segs:
            if s.den == ONE:
                bits.append(f"[{s.lo},{s.hi}]:{s.num}")
            else:
                bits.append(f"[{s.lo},{s.hi}]:{s.num}/{s.den}")
        return "Pw<" + " ".join(bits) + ">"

    def __eq__(self, other):
        return isinstance(other, Piecewise) and self.segs == other.segs

    def __hash__(self):
        """The hash of the segments, which `__eq__` compares: equal
        profiles have equal hashes.  A profile is never mutated after
        construction, and its segments are canonical (coprime integer
        num, den over their content, equal neighbours merged), so equal
        functions on one interval hash alike."""
        return hash(self.segs)

    def segment_at(self, w, side=-1) -> Seg:
        """The first segment whose upper end is at least w (side -1) or
        above w (side +1: the segment just right of w), by bisection;
        trusted: w, a Fraction or a RootPt, lies in [lo, hi), or [lo, hi]
        for side -1."""
        find = bisect_right if side > 0 else bisect_left
        return self.segs[find(self.segs, w, key=_seg_hi)]

    def eval(self, w) -> Q:
        """The value at w in [lo, hi], on `segment_at(w)`."""
        if not isinstance(w, Q):
            w = Q(w)
        if not (self.lo <= w <= self.hi):
            raise ValueError(f"{w} outside [{self.lo}, {self.hi}]")
        return self.segment_at(w).val(w)

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.segs)

    def breakpoints(self):
        return [s.lo for s in self.segs] + [self.hi]

    def cells(self, other):
        """(a, b, s, t) for each cell [a, b] of the common refinement of two
        profiles on one interval, s and t the segments of self and other
        over it.  One merge walk: a cell ends at the lesser segment end,
        and the segments ending there advance."""
        assert self.lo == other.lo and self.hi == other.hi
        ss, ts = self.segs, other.segs
        i = j = 0
        a = self.lo
        while i < len(ss):
            s, t = ss[i], ts[j]
            b = min(s.hi, t.hi)
            yield a, b, s, t
            i += s.hi == b
            j += t.hi == b
            a = b

    def _zip(self, other, fn):
        """Trusted: products of root-free dens are root-free; the gcd step
        stays, since a sum or a product can share a factor."""
        return Piecewise.on([Seg.on(a, b, *_reduce(*fn(s, t)))
                             for a, b, s, t in self.cells(other)])

    def add(self, other) -> "Piecewise":
        return self._zip(other, lambda s, t: (
            padd(pmul(s.num, t.den), pmul(t.num, s.den)),
            pmul(s.den, t.den)))

    def sub(self, other) -> "Piecewise":
        return self._zip(other, lambda s, t: (
            psub(pmul(s.num, t.den), pmul(t.num, s.den)),
            pmul(s.den, t.den)))

    def mul(self, other) -> "Piecewise":
        return self._zip(other, lambda s, t: (
            pmul(s.num, t.num), pmul(s.den, t.den)))

    def neg(self) -> "Piecewise":
        return self.scale(-1)

    def scale(self, c) -> "Piecewise":
        """Trusted: c*num/den keeps each invariant but content (c != 0)."""
        c = Q(c)
        if not c:
            return Piecewise.zero(self.lo, self.hi)
        return Piecewise.on([Seg.on(s.lo, s.hi, *_content_one(
            pscale(s.num, c.numerator), pscale(s.den, c.denominator)))
            for s in self.segs])

    def restrict(self, lo, hi) -> "Piecewise":
        """Trusted: a den root-free on a segment is so on any part."""
        lo, hi = Q(lo), Q(hi)
        assert self.lo <= lo < hi <= self.hi
        segs = []
        for s in self.segs:
            a, b = max(s.lo, lo), min(s.hi, hi)
            if a < b:
                segs.append(Seg.on(a, b, s.num, s.den))
        return Piecewise.on(segs)

    def affine_image(self, a, b) -> "Piecewise":
        """w -> f(a*w + b) on the preimage domain, a > 0.  Trusted: it keeps
        num/den reduced and den root-free, and a > 0 keeps lc(den) > 0; both
        are taken times the same power of the denominators' lcm."""
        a, b = Q(a), Q(b)
        assert a > 0
        segs = []
        for s in self.segs:
            n = max(pdeg(s.num), pdeg(s.den))
            segs.append(Seg.on((s.lo - b) / a, (s.hi - b) / a, *_content_one(
                pcompose_affine(s.num, a, b, n),
                pcompose_affine(s.den, a, b, n))))
        return Piecewise.on(segs)

    @staticmethod
    def concat(parts) -> "Piecewise":
        """Validating: contiguity and continuity at the joins."""
        segs = []
        for p in parts:
            segs.extend(p.segs)
        return Piecewise(segs)

    def flat_zero(self) -> IvSet:
        """Maximal closed intervals on which the function vanishes
        identically.  Trusted: `_merge` leaves no two zero segments
        adjacent, so the intervals are separated."""
        return IvSet.on(tuple(Iv.on(s.lo, s.hi, True, True)
                              for s in self.segs if s.is_zero()))

    def isolated_zeros(self):
        """Zeros outside the flat-zero intervals, as Q or RootPt, sorted and
        deduplicated."""
        flat = self.flat_zero()
        out = []
        for s in self.segs:
            if s.is_zero():
                continue
            for z in isolate_roots(s.num, s.lo, s.hi):
                if isinstance(z, Q):
                    if flat.contains(z) or z in out:
                        continue
                out.append(z)
        out.sort()
        # a rational zero on a shared breakpoint is kept once; RootPts are
        # irrational, so they never equal a breakpoint, and the segments'
        # open interiors are disjoint, so no two RootPts coincide
        return out

    def nonneg_on_all(self) -> bool:
        return all(poly_nonneg_on(pscale(s.num, s.den_sign()), s.lo, s.hi)
                   for s in self.segs)

    def order_at(self, w0, side) -> tuple:
        """(order, sign) of the function approaching w0 from `side`
        (+1 right, -1 left).  order None means identically zero on that
        side; sign is the sign of the function just off w0."""
        if not (self.lo <= w0 < self.hi if side > 0
                else self.lo < w0 <= self.hi):
            raise ValueError(f"no segment on side {side} of {w0}")
        seg = self.segment_at(w0, side)
        if seg.is_zero():
            return None, 0
        m, sgn = _mult_and_sign(seg.num, w0)
        sgn *= seg.den_sign()
        # just left of w0, (w - w0)^m has the sign (-1)^m
        return m, sgn if side > 0 or m % 2 == 0 else -sgn

    def value_sign_at(self, w0) -> int:
        """Exact sign of the function value at the point w0 (Q or RootPt)."""
        if not self.lo <= w0 <= self.hi:
            raise ValueError("point outside domain")
        s = self.segment_at(w0)
        return psign(s.num, w0) * s.den_sign() if s.num else 0

    def abs_upper_bound(self) -> Q:
        """A certified upper bound for |f| on the domain."""
        bound = Q(0)
        for s in self.segs:
            m = max(1, abs(s.lo), abs(s.hi))
            num_hi = sum(abs(c) * m ** i for i, c in enumerate(s.num))
            den_lo = _lower_abs_bound(s.den, ONE, s.lo, s.hi) \
                if pdeg(s.den) >= 1 else Q(s.den[0])
            if num_hi:
                bound = max(bound, num_hi / den_lo)
        return bound

    def abs_lower_bound_if_nonvanishing(self):
        """A certified positive lower bound for |f|, or None if f has a zero
        somewhere on the domain."""
        worst = None
        for s in self.segs:
            if s.is_zero():
                return None
            if isolate_roots(s.num, s.lo, s.hi):
                return None
            c = _lower_abs_bound(s.num, s.den, s.lo, s.hi)
            worst = c if worst is None else min(worst, c)
        return worst


def _lower_abs_bound(num, den, lo, hi) -> Q:
    """Certified positive lower bound for |num/den| on [lo, hi], both
    root-free there: halve from half the midpoint value until
    q^2 num^2 - p^2 den^2 >= 0, c = p/q."""
    c = abs(peval(num, (lo + hi) / 2) / peval(den, (lo + hi) / 2)) / 2
    nn, dd = pmul(num, num), pmul(den, den)
    while not poly_nonneg_on(psub(pscale(nn, c.denominator ** 2),
                                  pscale(dd, c.numerator ** 2)), lo, hi):
        c /= 2
    return c


def _merge(segs):
    """Join equal neighbours; trusted: root-free on both, so on the union."""
    out = [segs[0]]
    for s in segs[1:]:
        last = out[-1]
        if last.num == s.num and last.den == s.den:
            out[-1] = Seg.on(last.lo, s.hi, s.num, s.den)
        else:
            out.append(s)
    return out


def _mult_and_sign(p, w0):
    """Vanishing order m of p at w0 and the sign of p^(m)(w0)."""
    m = 0
    q = p
    while q:
        s = psign(q, w0)
        if s:
            return m, s
        m += 1
        q = pderiv(q)
    raise AssertionError("zero polynomial has no finite order")
