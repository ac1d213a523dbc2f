"""Finite unions of rational intervals with endpoint flags.

An IvSet is a canonical tuple of intervals [lo,hi] with closed/open flags at
each end: sorted, pairwise disjoint, points closed at both ends, and no two
neighbours touching so that they would merge.  These represent subsets of a
bounded interval of the real line and support exact boolean operations,
closure/interior relative to an ambient interval, and subset tests.

Construction rule.  `Iv(...)` converts its ends to Fraction and checks them;
`IvSet(...)`, `IvSet.interval` and `IvSet.point` sort and merge.  The trusted
`Iv.on` and `IvSet.on` check nothing.  Each operation builds its result
through `on` and says why canonical inputs give a canonical result; `union`
and `closure` can join neighbours, so they merge through `_normalize`.

Membership and the one-sided limit tests take any point that orders against
Fractions: a Fraction, an int or a `polytools.RootPt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q


@dataclass(frozen=True, slots=True)
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

    @classmethod
    def on(cls, lo: Q, hi: Q, lc: bool, hc: bool) -> "Iv":
        """Trusted: Fractions lo <= hi, both ends closed when lo == hi."""
        iv = object.__new__(cls)
        object.__setattr__(iv, "lo", lo)
        object.__setattr__(iv, "hi", hi)
        object.__setattr__(iv, "lc", lc)
        object.__setattr__(iv, "hc", hc)
        return iv

    def contains(self, x) -> bool:
        return (self.lo < x or (x == self.lo and self.lc)) and \
            (x < self.hi or (x == self.hi and self.hc))

    def is_point(self) -> bool:
        return self.lo == self.hi

    def __repr__(self):
        l = "[" if self.lc else "("
        r = "]" if self.hc else ")"
        return f"{l}{self.lo},{self.hi}{r}"


class IvSet:
    """Canonical finite union of flagged intervals."""

    __slots__ = ("ivs",)

    def __init__(self, ivs=()):
        self.ivs = _normalize(ivs)

    @classmethod
    def on(cls, ivs: tuple) -> "IvSet":
        """Trusted: a tuple of intervals already in canonical form."""
        s = object.__new__(cls)
        s.ivs = ivs
        return s

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
        return IvSet.on(())

    def is_empty(self) -> bool:
        return not self.ivs

    def __bool__(self):
        return bool(self.ivs)

    def __eq__(self, other):
        return isinstance(other, IvSet) and self.ivs == other.ivs

    def __hash__(self):
        return hash(self.ivs)

    def __repr__(self):
        return "{" + " ".join(map(repr, self.ivs)) + "}"

    def contains(self, x) -> bool:
        return any(iv.contains(x) for iv in self.ivs)

    def union(self, other: "IvSet") -> "IvSet":
        return IvSet.on(_normalize(self.ivs + other.ivs))

    def intersect(self, other: "IvSet") -> "IvSet":
        """One sweep: the pieces of separated intervals come out sorted and
        separated, so they are canonical."""
        A, B = self.ivs, other.ivs
        out = []
        i = j = 0
        while i < len(A) and j < len(B):
            a, b = A[i], B[j]
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            if lo <= hi:
                lc = a.contains(lo) and b.contains(lo)
                hc = a.contains(hi) and b.contains(hi)
                if lo < hi or lc:  # a point has lc == hc
                    out.append(Iv.on(lo, hi, lc, hc))
            # the interval ending first meets nothing further on
            if a.hi <= b.hi:
                i += 1
            else:
                j += 1
        return IvSet.on(tuple(out))

    def complement(self, dom: Iv) -> "IvSet":
        """Complement within the ambient interval `dom`.  One sweep: the
        gaps between separated intervals are themselves separated by them,
        so they are canonical."""
        out = []
        cur_lo, cur_lc = dom.lo, dom.lc
        for iv in self.intersect(IvSet.on((dom,))).ivs:
            if cur_lo < iv.lo or (cur_lo == iv.lo and cur_lc and not iv.lc):
                out.append(Iv.on(cur_lo, iv.lo, cur_lc, not iv.lc))
            cur_lo, cur_lc = iv.hi, not iv.hc
        if cur_lo < dom.hi or (cur_lo == dom.hi and cur_lc and dom.hc):
            out.append(Iv.on(cur_lo, dom.hi, cur_lc, dom.hc))
        return IvSet.on(tuple(out))

    def difference(self, other: "IvSet", dom: Iv) -> "IvSet":
        return self.intersect(other.complement(dom))

    def subset_of(self, other: "IvSet") -> bool:
        """Canonical form is unique, so a subset is its own intersection."""
        return self.intersect(other) == self

    def closure(self) -> "IvSet":
        return IvSet.on(_normalize(Iv.on(iv.lo, iv.hi, True, True)
                                   for iv in self.ivs))

    def interior_rel(self, dom: Iv) -> "IvSet":
        """Interior relative to `dom` as the ambient space (so the endpoints
        of dom may be interior)."""
        return self.complement(dom).closure().complement(dom)

    def fat_part(self) -> "IvSet":
        """Trusted: dropping a point leaves its neighbours separated."""
        return IvSet.on(tuple(iv for iv in self.ivs if not iv.is_point()))

    def points(self):
        return [iv.lo for iv in self.ivs if iv.is_point()]

    def scale(self, c) -> "IvSet":
        """Trusted: w -> c*w with c > 0 keeps order, flags and gaps."""
        c = Q(c)
        assert c > 0
        return IvSet.on(tuple(Iv.on(iv.lo * c, iv.hi * c, iv.lc, iv.hc)
                              for iv in self.ivs))

    def limit_from_left(self, x) -> bool:
        """x is a limit of set points strictly below x."""
        return any(iv.lo < x <= iv.hi for iv in self.ivs)

    def limit_from_right(self, x) -> bool:
        return any(iv.lo <= x < iv.hi for iv in self.ivs)


def _normalize(ivs) -> tuple:
    """Sort valid intervals and merge overlapping or touching ones; a merge
    of valid intervals is valid, so it is built trusted."""
    out = []
    for iv in sorted(ivs, key=lambda iv: (iv.lo, not iv.lc, iv.hi)):
        if out:
            last = out[-1]
            # merge when overlapping or touching with at least one closed flag
            if iv.lo < last.hi or (iv.lo == last.hi and (iv.lc or last.hc)):
                if iv.hi > last.hi or (iv.hi == last.hi and iv.hc
                                       and not last.hc):
                    hi, hc = iv.hi, iv.hc
                else:
                    hi, hc = last.hi, last.hc
                lc = last.lc or (iv.lo == last.lo and iv.lc)
                out[-1] = Iv.on(last.lo, hi, lc, hc)
                continue
        out.append(iv)
    return tuple(out)
