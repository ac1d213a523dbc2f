"""Finite unions of rational intervals with endpoint flags.

An IvSet is a canonical tuple of intervals [lo,hi] with closed/open flags at
each end: sorted, pairwise disjoint, points closed at both ends, and no two
neighbours touching so that they would merge.  These represent subsets of a
bounded interval of the real line and support exact boolean operations,
closure/interior relative to an ambient interval, and subset tests.

Construction rule.  `Iv(...)` converts its ends to Fraction and checks them.
`IvSet(...)` is the only constructor that sorts: it merges any intervals
through `_normalize`.  `IvSet.interval` and `IvSet.point` convert their ends
and build one interval, or none, directly.  The trusted `Iv.on` and
`IvSet.on` check nothing.  Each operation is a sweep over canonical operands
that builds its result through `on` and says why that result is canonical.
`union` and `closure` can join neighbours, so they end with `_coalesce`, the
merge pass of `_normalize`, on intervals that are already in order.
`interior_rel` is one sweep as well, with no complement: it clips each
interval to the ambient interval, drops the points and opens the ends.
`scale` is trusted: its factor is a positive Fraction or int, neither
converted nor checked.  The trusted `IvSet.joined` concatenates canonical
parts that follow each other (scaled copies of one set in disjoint blocks,
say) and joins only the intervals that meet at a junction between two parts.

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

    @classmethod
    def joined(cls, parts) -> "IvSet":
        """Trusted: the union of canonical sets `parts`, in order, each
        ending no later than the next begins.  Inside a part nothing
        touches, so only the first interval of a part can join the last
        one so far, when both hold their common end or one of them does."""
        out = []
        for p in parts:
            ivs = p.ivs
            if not ivs:
                continue
            if out:
                last, first = out[-1], ivs[0]
                if first.lo == last.hi and (first.lc or last.hc):
                    out[-1] = Iv.on(last.lo, first.hi, last.lc, first.hc)
                    out.extend(ivs[1:])
                    continue
            out.extend(ivs)
        return cls.on(tuple(out))

    @staticmethod
    def interval(lo, hi, lc=True, hc=True):
        """The interval between lo and hi with the given end flags; empty
        when lo > hi, or lo == hi without both ends closed."""
        lo, hi = Q(lo), Q(hi)
        if lo < hi or (lo == hi and lc and hc):
            return IvSet.on((Iv.on(lo, hi, lc, hc),))
        return IvSet.empty()

    @staticmethod
    def point(x):
        x = Q(x)
        return IvSet.on((Iv.on(x, x, True, True),))

    @staticmethod
    def empty():
        return IvSet.on(())

    def is_empty(self) -> bool:
        return not self.ivs

    def __bool__(self):
        return bool(self.ivs)

    def __eq__(self, other):
        return isinstance(other, IvSet) and self.ivs == other.ivs

    def __repr__(self):
        return "{" + " ".join(map(repr, self.ivs)) + "}"

    def contains(self, x) -> bool:
        return any(iv.contains(x) for iv in self.ivs)

    def union(self, other: "IvSet") -> "IvSet":
        """Merge the two sorted tuples by start, closed start first on a
        tie, then join neighbours in one `_coalesce` pass: every joined run
        is then a maximal union of touching intervals, so the result is
        canonical."""
        A, B = self.ivs, other.ivs
        if not A:
            return other
        if not B:
            return self
        merged = []
        i = j = 0
        na, nb = len(A), len(B)
        while i < na and j < nb:
            a, b = A[i], B[j]
            if a.lo < b.lo or (a.lc and a.lo == b.lo):
                merged.append(a)
                i += 1
            else:
                merged.append(b)
                j += 1
        merged.extend(A[i:])
        merged.extend(B[j:])
        return IvSet.on(_coalesce(merged))

    def intersect(self, other: "IvSet") -> "IvSet":
        """One sweep: each piece takes the later start and the earlier end,
        each with its flag, flags and-ed on a tie.  A piece lies in one
        interval of each operand, so the pieces of separated intervals come
        out sorted and separated, and the result is canonical."""
        A, B = self.ivs, other.ivs
        out = []
        i = j = 0
        na, nb = len(A), len(B)
        while i < na and j < nb:
            a, b = A[i], B[j]
            if a.lo < b.lo:
                lo, lc = b.lo, b.lc
            elif a.lo == b.lo:
                lo, lc = a.lo, a.lc and b.lc
            else:
                lo, lc = a.lo, a.lc
            # the interval ending first meets nothing further on; on a tie
            # the next interval of either operand starts open at the shared
            # end or later, so it meets nothing of the other one
            if a.hi < b.hi:
                hi, hc = a.hi, a.hc
                i += 1
            elif a.hi == b.hi:
                hi, hc = a.hi, a.hc and b.hc
                i += 1
                j += 1
            else:
                hi, hc = b.hi, b.hc
                j += 1
            if lo < hi or (lc and hc and lo == hi):
                out.append(Iv.on(lo, hi, lc, hc))
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
        """One sweep: an interval of self can lie only in the first interval
        of other that does not end before it, since the intervals of other
        are separated.  Both tuples are sorted, so that interval is found by
        moving forward, and the sweep stops at the first miss."""
        B = other.ivs
        j, nb = 0, len(B)
        for a in self.ivs:
            while j < nb:
                b = B[j]
                if b.hi < a.hi or (a.hc and not b.hc and b.hi == a.hi):
                    j += 1
                else:
                    break
            else:
                return False
            if not (b.lo < a.lo or (b.lo == a.lo and (b.lc or not a.lc))):
                return False
        return True

    def closure(self) -> "IvSet":
        """Closing each interval keeps the starts in order, so one
        `_coalesce` pass joins the neighbours that now touch."""
        return IvSet.on(_coalesce([iv if iv.lc and iv.hc
                                   else Iv.on(iv.lo, iv.hi, True, True)
                                   for iv in self.ivs]))

    def interior_rel(self, dom: Iv) -> "IvSet":
        """Interior relative to `dom` as the ambient space (so the closed
        ends of dom may be interior), in one sweep.  Trusted: dom.lo <
        dom.hi.  Each interval is clipped to dom and dropped when that
        leaves at most a point; every end is opened except one lying on a
        closed end of dom, which keeps its clipped flag.  This equals
        complement, closure, complement: the complement in dom, closed,
        gains every end of a clipped interval that has dom on its far side,
        and a point is such an end; at a closed end of dom no gap begins.
        Each piece lies in one interval of separated ones, so the result is
        canonical."""
        dlo, dhi = dom.lo, dom.hi
        out = []
        for iv in self.ivs:
            lo, hi = iv.lo, iv.hi
            if lo > dlo:
                lc = False
            elif lo == dlo:
                lc = iv.lc and dom.lc
            else:
                lo, lc = dlo, dom.lc
            if hi < dhi:
                hc = False
            elif hi == dhi:
                hc = iv.hc and dom.hc
            else:
                hi, hc = dhi, dom.hc
            if lo < hi:
                out.append(Iv.on(lo, hi, lc, hc))
        return IvSet.on(tuple(out))

    def fat_part(self) -> "IvSet":
        """Trusted: dropping a point leaves its neighbours separated."""
        return IvSet.on(tuple(iv for iv in self.ivs if not iv.is_point()))

    def points(self):
        return [iv.lo for iv in self.ivs if iv.is_point()]

    def scale(self, c) -> "IvSet":
        """Trusted: c is a positive Fraction or int, neither converted nor
        checked.  Then w -> c*w keeps order, flags and gaps."""
        return IvSet.on(tuple(Iv.on(iv.lo * c, iv.hi * c, iv.lc, iv.hc)
                              for iv in self.ivs))

    def limit_from_left(self, x) -> bool:
        """x is a limit of set points strictly below x."""
        return any(iv.lo < x <= iv.hi for iv in self.ivs)

    def limit_from_right(self, x) -> bool:
        return any(iv.lo <= x < iv.hi for iv in self.ivs)


def _normalize(ivs) -> tuple:
    """Sort valid intervals by start, closed start first on a tie, and
    merge them through `_coalesce`."""
    return _coalesce(sorted(ivs, key=lambda iv: (iv.lo, not iv.lc)))


def _coalesce(ivs) -> tuple:
    """Merge overlapping or touching neighbours of valid intervals in start
    order, closed start first on a tie.  A run's first interval has the
    smallest start and, on a tie, the closed one, so it supplies the start
    flag; a merge of valid intervals is valid, so it is built trusted."""
    out = []
    for iv in ivs:
        if out:
            last = out[-1]
            # merge when overlapping or touching with at least one closed flag
            if iv.lo < last.hi or (iv.lo == last.hi and (iv.lc or last.hc)):
                if iv.hi > last.hi or (iv.hc and not last.hc
                                       and iv.hi == last.hi):
                    out[-1] = Iv.on(last.lo, iv.hi, last.lc, iv.hc)
                continue
        out.append(iv)
    return tuple(out)
