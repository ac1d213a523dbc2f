"""Finite unions of rational intervals with endpoint flags.

An IvSet is a normalized, sorted, pairwise-disjoint list of intervals
[lo,hi] with closed/open flags at each end; degenerate intervals (points)
have both ends closed.  These represent subsets of a bounded interval of the
real line and support exact boolean operations, closure/interior relative to
an ambient interval, and subset tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q


@dataclass(frozen=True)
class Iv:
    lo: Q
    hi: Q
    lc: bool  # lo included
    hc: bool  # hi included

    def __post_init__(self):
        object.__setattr__(self, "lo", Q(self.lo))
        object.__setattr__(self, "hi", Q(self.hi))
        if self.lo > self.hi or (self.lo == self.hi and not (self.lc and self.hc)):
            raise ValueError(f"empty or inverted interval {self}")

    def contains(self, x) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lc:
            return False
        if x == self.hi and not self.hc:
            return False
        return True

    def is_point(self) -> bool:
        return self.lo == self.hi

    def __repr__(self):
        l = "[" if self.lc else "("
        r = "]" if self.hc else ")"
        return f"{l}{self.lo},{self.hi}{r}"


class IvSet:
    """Normalized finite union of flagged intervals."""

    __slots__ = ("ivs",)

    def __init__(self, ivs=()):
        self.ivs = _normalize(list(ivs))

    @staticmethod
    def interval(lo, hi, lc=True, hc=True):
        if Q(lo) > Q(hi):
            return IvSet()
        return IvSet([Iv(Q(lo), Q(hi), lc, hc)])

    @staticmethod
    def point(x):
        return IvSet([Iv(Q(x), Q(x), True, True)])

    @staticmethod
    def empty():
        return IvSet()

    def is_empty(self) -> bool:
        return not self.ivs

    def __bool__(self):
        return bool(self.ivs)

    def __eq__(self, other):
        return isinstance(other, IvSet) and self.ivs == other.ivs

    def __hash__(self):
        return hash(tuple(self.ivs))

    def __repr__(self):
        return "{" + " ".join(map(repr, self.ivs)) + "}"

    def contains(self, x) -> bool:
        x = Q(x)
        return any(iv.contains(x) for iv in self.ivs)

    def union(self, other: "IvSet") -> "IvSet":
        return IvSet(list(self.ivs) + list(other.ivs))

    def intersect(self, other: "IvSet") -> "IvSet":
        out = []
        for a in self.ivs:
            for b in other.ivs:
                lo = max(a.lo, b.lo)
                hi = min(a.hi, b.hi)
                if lo > hi:
                    continue
                lc = (a.contains(lo)) and (b.contains(lo))
                hc = (a.contains(hi)) and (b.contains(hi))
                if lo < hi or (lo == hi and lc and hc):
                    out.append(Iv(lo, hi, lc, hc))
        return IvSet(out)

    def complement(self, dom: Iv) -> "IvSet":
        """Complement within the ambient interval `dom`; assumes the set is
        contained in dom (clip first if not)."""
        clipped = self.intersect(IvSet([dom]))
        out = []
        cur_lo, cur_lc = dom.lo, dom.lc
        for iv in clipped.ivs:
            if cur_lo < iv.lo or (cur_lo == iv.lo and cur_lc and not iv.lc):
                out.append(Iv(cur_lo, iv.lo, cur_lc, not iv.lc))
            cur_lo, cur_lc = iv.hi, not iv.hc
        if cur_lo < dom.hi or (cur_lo == dom.hi and cur_lc and dom.hc):
            out.append(Iv(cur_lo, dom.hi, cur_lc, dom.hc))
        return IvSet(out)

    def difference(self, other: "IvSet", dom: Iv) -> "IvSet":
        return self.intersect(other.complement(dom))

    def subset_of(self, other: "IvSet") -> bool:
        for a in self.ivs:
            # a must be covered by a single interval of other (normalization
            # guarantees maximal intervals, so no interval straddles two)
            ok = False
            for b in other.ivs:
                if b.lo < a.lo or (b.lo == a.lo and (b.lc or not a.lc)):
                    if b.hi > a.hi or (b.hi == a.hi and (b.hc or not a.hc)):
                        ok = True
                        break
            if not ok:
                return False
        return True

    def closure(self) -> "IvSet":
        return IvSet([Iv(iv.lo, iv.hi, True, True) for iv in self.ivs])

    def interior_rel(self, dom: Iv) -> "IvSet":
        """Interior relative to `dom` as the ambient space (so the endpoints
        of dom may be interior)."""
        return self.complement(dom).closure().complement(dom)

    def fat_part(self) -> "IvSet":
        return IvSet([iv for iv in self.ivs if not iv.is_point()])

    def points(self):
        return [iv.lo for iv in self.ivs if iv.is_point()]

    def scale(self, c) -> "IvSet":
        c = Q(c)
        assert c > 0
        return IvSet([Iv(iv.lo * c, iv.hi * c, iv.lc, iv.hc) for iv in self.ivs])

    def limit_from_left(self, x) -> bool:
        """x is a limit of set points strictly below x."""
        x = Q(x)
        return any(iv.lo < x <= iv.hi for iv in self.ivs)

    def limit_from_right(self, x) -> bool:
        x = Q(x)
        return any(iv.lo <= x < iv.hi for iv in self.ivs)


def _normalize(ivs):
    ivs = sorted(ivs, key=lambda iv: (iv.lo, not iv.lc, iv.hi))
    out = []
    for iv in ivs:
        if not out:
            out.append(iv)
            continue
        last = out[-1]
        # merge when overlapping or touching with at least one closed flag
        touch = iv.lo < last.hi or (
            iv.lo == last.hi and (iv.lc or last.hc))
        if touch:
            if iv.hi > last.hi or (iv.hi == last.hi and iv.hc and not last.hc):
                hc = iv.hc
                hi = iv.hi
            else:
                hc = last.hc
                hi = last.hi
            lc = last.lc or (iv.lo == last.lo and iv.lc)
            out[-1] = Iv(last.lo, hi, lc, hc)
        else:
            out.append(iv)
    return tuple(out)
