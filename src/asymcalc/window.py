"""Piecewise rational functions on a closed rational interval.

These are the "profiles" out of which self-similar elements are built: a
contiguous list of segments, each carrying a rational function num/den whose
denominator is certified root-free on the segment.  Everything is exact over
Fraction; continuity at interior breakpoints is checked at construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import ContinuityViolation, ZeroDenominator
from .ivset import Iv, IvSet
from .polytools import (ONE, RootPt, ZERO, count_roots_halfopen, isolate_roots,
                        padd, pcompose_affine, pderiv, pdeg, pdivmod, peval,
                        pgcd, pmul, pneg, poly, poly_nonneg_on, pscale, psub,
                        pt_cmp, squarefree, sturm_chain)


def _reduce(num, den):
    if not num:
        return ZERO, ONE
    # a constant denominator has no common factor with num
    if pdeg(den) >= 1:
        g = pgcd(num, den)
        if pdeg(g) >= 1:
            num = pdivmod(num, g)[0]
            den = pdivmod(den, g)[0]
    lead = den[-1]
    num = pscale(num, 1 / lead)
    den = pscale(den, 1 / lead)
    return num, den


@functools.lru_cache(maxsize=8192)
def _den_vanishes(den, lo, hi) -> bool:
    """Whether den has a root on [lo, hi]."""
    sf = squarefree(den)
    return peval(sf, lo) == 0 or \
        count_roots_halfopen(sturm_chain(sf), lo, hi) > 0


@dataclass(frozen=True)
class Seg:
    lo: Q
    hi: Q
    num: tuple
    den: tuple = ONE

    def __post_init__(self):
        num, den = _reduce(self.num, self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "lo", Q(self.lo))
        object.__setattr__(self, "hi", Q(self.hi))
        if self.lo >= self.hi:
            raise ValueError("segment must have positive length")
        if pdeg(self.den) >= 1 and _den_vanishes(self.den, self.lo, self.hi):
            raise ZeroDenominator(
                f"denominator vanishes on [{self.lo}, {self.hi}]")

    def val(self, w) -> Q:
        return peval(self.num, w) / peval(self.den, w)

    def is_zero(self) -> bool:
        return not self.num


class Piecewise:
    """A continuous piecewise rational function on [lo, hi]."""

    __slots__ = ("segs",)

    def __init__(self, segs, check_continuity=True):
        segs = list(segs)
        if not segs:
            raise ValueError("need at least one segment")
        for a, b in zip(segs, segs[1:]):
            if a.hi != b.lo:
                raise ValueError("segments must be contiguous")
            if check_continuity and a.val(a.hi) != b.val(b.lo):
                raise ContinuityViolation(
                    f"jump at w={a.hi}: {a.val(a.hi)} vs {b.val(b.lo)}")
        self.segs = tuple(_merge(segs))

    @property
    def lo(self) -> Q:
        return self.segs[0].lo

    @property
    def hi(self) -> Q:
        return self.segs[-1].hi

    @staticmethod
    def const(lo, hi, c) -> "Piecewise":
        return Piecewise([Seg(Q(lo), Q(hi), poly(c) if Q(c) else ZERO)])

    @staticmethod
    def zero(lo, hi) -> "Piecewise":
        return Piecewise.const(lo, hi, 0)

    @staticmethod
    def from_poly(lo, hi, num, den=ONE) -> "Piecewise":
        return Piecewise([Seg(Q(lo), Q(hi), num, den)])

    @staticmethod
    def linear_interp(points) -> "Piecewise":
        """Piecewise linear through [(w0,v0), (w1,v1), ...], w strictly
        increasing."""
        segs = []
        for (w0, v0), (w1, v1) in zip(points, points[1:]):
            w0, v0, w1, v1 = Q(w0), Q(v0), Q(w1), Q(v1)
            slope = (v1 - v0) / (w1 - w0)
            segs.append(Seg(w0, w1, poly(v0 - slope * w0, slope)))
        return Piecewise(segs)

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
        return hash(self.segs)

    def eval(self, w) -> Q:
        w = Q(w)
        if not (self.lo <= w <= self.hi):
            raise ValueError(f"{w} outside [{self.lo}, {self.hi}]")
        for s in self.segs:
            if s.lo <= w <= s.hi:
                return s.val(w)
        raise AssertionError

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.segs)

    def breakpoints(self):
        return [s.lo for s in self.segs] + [self.hi]

    def _zip(self, other, fn):
        assert self.lo == other.lo and self.hi == other.hi
        cuts = sorted(set(self.breakpoints()) | set(other.breakpoints()))
        segs = []
        for a, b in zip(cuts, cuts[1:]):
            sa = self._seg_at(a, b)
            sb = other._seg_at(a, b)
            num, den = fn(sa, sb)
            segs.append(Seg(a, b, num, den))
        return Piecewise(segs, check_continuity=False)

    def _seg_at(self, a, b):
        for s in self.segs:
            if s.lo <= a and b <= s.hi:
                return s
        raise AssertionError

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
        return Piecewise([Seg(s.lo, s.hi, pneg(s.num), s.den)
                          for s in self.segs], check_continuity=False)

    def scale(self, c) -> "Piecewise":
        c = Q(c)
        return Piecewise([Seg(s.lo, s.hi, pscale(s.num, c), s.den)
                          for s in self.segs], check_continuity=False)

    def restrict(self, lo, hi) -> "Piecewise":
        lo, hi = Q(lo), Q(hi)
        assert self.lo <= lo < hi <= self.hi
        segs = []
        for s in self.segs:
            a, b = max(s.lo, lo), min(s.hi, hi)
            if a < b:
                segs.append(Seg(a, b, s.num, s.den))
        return Piecewise(segs, check_continuity=False)

    def affine_image(self, a, b) -> "Piecewise":
        """The function w -> f(a*w + b) on the preimage domain; a > 0."""
        a, b = Q(a), Q(b)
        assert a > 0
        segs = []
        for s in self.segs:
            segs.append(Seg((s.lo - b) / a, (s.hi - b) / a,
                            pcompose_affine(s.num, a, b),
                            pcompose_affine(s.den, a, b)))
        return Piecewise(segs, check_continuity=False)

    @staticmethod
    def concat(parts) -> "Piecewise":
        segs = []
        for p in parts:
            segs.extend(p.segs)
        return Piecewise(segs)

    def flat_zero(self) -> IvSet:
        """Maximal closed intervals on which the function vanishes
        identically."""
        return IvSet([Iv(s.lo, s.hi, True, True)
                      for s in self.segs if s.is_zero()])

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
        out.sort(key=functools.cmp_to_key(pt_cmp))
        # a rational zero on a shared breakpoint is kept once; RootPts are
        # irrational, so they never equal a breakpoint, and the segments'
        # open interiors are disjoint, so no two RootPts coincide
        return out

    def vanishes_on(self, ivset: IvSet) -> bool:
        """Exact test that the function is 0 at every point of ivset."""
        for iv in ivset.ivs:
            if iv.is_point():
                if self.eval(iv.lo) != 0:
                    return False
            else:
                for s in self.segs:
                    a, b = max(s.lo, iv.lo), min(s.hi, iv.hi)
                    if a < b and not s.is_zero():
                        return False
                # endpoint flags: continuity makes the closed hull vanish
                # anyway when the open interior does, so no extra checks
        return True

    def nonneg_on_all(self) -> bool:
        for s in self.segs:
            sgn = 1 if peval(s.den, (s.lo + s.hi) / 2) > 0 else -1
            if not poly_nonneg_on(pscale(s.num, sgn), s.lo, s.hi):
                return False
        return True

    def order_at(self, w0, side) -> tuple:
        """(order, sign) of the function approaching w0 from `side`
        (+1 right, -1 left).  order None means identically zero on that
        side; sign is the sign of the function just off w0."""
        w0_ = w0
        seg = None
        for s in self.segs:
            if side > 0:
                c = pt_cmp(w0_, s.lo)
                if (c >= 0) and pt_cmp(w0_, s.hi) < 0:
                    seg = s
                    break
            else:
                if pt_cmp(w0_, s.lo) > 0 and pt_cmp(w0_, s.hi) <= 0:
                    seg = s
                    break
        if seg is None:
            raise ValueError(f"no segment on side {side} of {w0}")
        if seg.is_zero():
            return None, 0
        m, sgn_deriv = _mult_and_sign(seg.num, w0_)
        den_sign = _sign_at(seg.den, w0_)
        assert den_sign != 0  # denominators are root-free on closed segments
        if side > 0:
            sgn = sgn_deriv * den_sign
        else:
            sgn = sgn_deriv * den_sign * (-1 if m % 2 else 1)
        return m, sgn

    def value_sign_at(self, w0) -> int:
        """Exact sign of the function value at the point w0 (Q or RootPt)."""
        for s in self.segs:
            if pt_cmp(w0, s.lo) >= 0 and pt_cmp(w0, s.hi) <= 0:
                if not s.num:
                    return 0
                n = _sign_at(s.num, w0)
                d = _sign_at(s.den, w0)
                return n * d
        raise ValueError("point outside domain")

    def abs_upper_bound(self) -> Q:
        """A certified upper bound for |f| on the domain."""
        bound = Q(0)
        for s in self.segs:
            m = max(1, abs(s.lo), abs(s.hi))
            num_hi = sum(abs(c) * m ** i for i, c in enumerate(s.num))
            den_lo = _lower_abs_bound(s.den, s.lo, s.hi)
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
            if peval(s.num, s.lo) == 0 or peval(s.num, s.hi) == 0 or \
                    isolate_roots(s.num, s.lo, s.hi):
                return None
            c = abs(s.val((s.lo + s.hi) / 2)) / 2
            while not poly_nonneg_on(
                    psub(pmul(s.num, s.num),
                         pscale(pmul(s.den, s.den), c * c)), s.lo, s.hi):
                c /= 2
            worst = c if worst is None else min(worst, c)
        return worst


def _lower_abs_bound(p, lo, hi) -> Q:
    """Certified positive lower bound for |p| on [lo, hi]; p root-free."""
    if pdeg(p) <= 0:
        return abs(p[0])
    c = abs(peval(p, (lo + hi) / 2)) / 2
    while not poly_nonneg_on(psub(pmul(p, p), poly(c * c)), lo, hi):
        c /= 2
    return c


def _merge(segs):
    out = [segs[0]]
    for s in segs[1:]:
        last = out[-1]
        if last.num == s.num and last.den == s.den:
            out[-1] = Seg(last.lo, s.hi, s.num, s.den)
        else:
            out.append(s)
    return out


def _sign_at(p, w0) -> int:
    if isinstance(w0, RootPt):
        return w0.sign_of(p)
    v = peval(p, w0)
    return (v > 0) - (v < 0)


def _mult_and_sign(p, w0):
    """Vanishing order m of p at w0 and the sign of p^(m)(w0)."""
    m = 0
    q = p
    while q:
        s = _sign_at(q, w0)
        if s:
            return m, s
        m += 1
        q = pderiv(q)
    raise AssertionError("zero polynomial has no finite order")
