"""Self-similar subsets of (0, 1] and their asymptotic topology.

A set lives on a `Grid` like an element (see `grid`): a "shape" subset of the
window (sigma, 1] is replicated on every block, and an explicit "head" subset
of (c0, 1] lies above the anchor.  A set accumulates at 0 exactly when its
shape is nonempty.  Closure and interior are computed exactly; the junction
between the head and the first block is handled by unrolling one block before
taking either.

The window circle.  The window (sigma, 1] is a circle: w -> sigma+ on block k
is glued to w = 1 on block k+1 (both are u = sigma^(k+1) c0), so a shape that
reaches sigma from the right holds 1 in its closure.  Every circle operation
lives here:

- `upto1`: the window (sigma, 1] (and the dome (c0, 1] above an anchor)
- `circle_closure`: closure on the circle
- `circle_interior`: interior on the circle, the interior relative to the
  window except that w = 1 is kept only when the shape also holds a right
  neighbourhood of sigma, the other side of the seam
- `with_neighbours`: a set with its copies one block down and one block up,
  and `closed_with_neighbours` the same for the closed circle closure
- `fold_to_window`: parts in [sigma^2, sigma] and (1, 1/sigma] folded back
  through the seam
- `grow_circle`: closed eta-neighbourhood on the circle
- `circle_gap`: the least distance from a trace to the copies of obstacles
- `orbit_with_full_head`, `halfway_toward`: the sets built from such shapes

The metric median.  `insert_between` and `prec_union` take the closed set of
points at least as close to a closed set A as to a closed set B, on the
window and on the head, through `_closer_region` on finite closed
candidate sets ca and cb.  The nearest-component rule gives it without
evaluating a distance.  Merge ca and cb into the components of their union.
On a component, the points of ca are in the region (distance 0) and the
others are not (d(w, cb) = 0 < d(w, ca)).  On a gap between two components
the nearest candidate is one of the gap's two ends, and only the ends'
labels decide: the whole gap when both ends lie in ca, nothing when neither
does, else the closed half-gap on the side of the ca end, up to the
midpoint.  Below the first component and above the last one the end of
that component decides alone.  This is the comparison of the two
distances: for w in a gap, let n be a nearest end.  If some nearest end
lies in ca, d(w, ca) = |w - n| <= d(w, cb).  If none does, n lies in cb,
so d(w, cb) = |w - n|, while every point of ca is the other end, farther,
or lies beyond an end, farther still.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .errors import (EmptySet, ParseError, PreconditionViolated,
                     RepresentabilityError)
from .grid import Grid, unify
from .ivset import Iv, IvSet
from .pwfunc import PwFunction, TailComponent
from .window import Piecewise


_ONE = Q(1)
_SEAM = IvSet.point(1)  # the point w = 1 that sigma+ is glued to


def upto1(lo: Q) -> IvSet:
    """The interval (lo, 1]: the window for lo = sigma, the dome for c0.
    Trusted: lo is a Fraction below 1."""
    return IvSet.on((Iv.on(lo, _ONE, False, True),))


def circle_closure(shape: IvSet, sigma: Q) -> IvSet:
    """Closure of a shape inside the window circle (sigma, 1]."""
    res = shape.closure().intersect(upto1(sigma))
    if shape.limit_from_right(sigma):
        res = res.union(_SEAM)
    return res


def circle_interior(shape: IvSet, sigma: Q) -> IvSet:
    """Interior of a shape inside the window circle (sigma, 1]: its
    interior relative to the window, where w = 1 stays only when the shape
    also holds a right neighbourhood of sigma, glued to w = 1 through the
    seam.  This is the complement of `circle_closure` of the complement,
    since exactly one of a finite union of intervals and its complement
    holds a right neighbourhood of sigma."""
    res = shape.interior_rel(Iv.on(sigma, _ONE, False, True))
    ivs = res.ivs
    # only an end at the closed w = 1 of the window stays closed
    if ivs and ivs[-1].hc and not shape.limit_from_right(sigma):
        last = ivs[-1]
        res = IvSet.on(ivs[:-1] + (Iv.on(last.lo, _ONE, last.lc, False),))
    return res


def with_neighbours(s: IvSet, sigma: Q) -> IvSet:
    """s together with its copies one block down and one block up:
    s, sigma*s and s/sigma.  Trusted: s inside [sigma, 1].  Then sigma*s
    lies in [sigma^2, sigma] and s/sigma in [1, 1/sigma], so the three
    meet at most at sigma and 1 and are joined without a union."""
    return IvSet.joined((s.scale(sigma), s, s.scale(1 / sigma)))


def closed_with_neighbours(shape: IvSet, sigma: Q) -> IvSet:
    """The closed circle closure of a shape with its copies one block down
    and one block up: every orbit point within a block of the window.
    Because a nonempty shape puts points on every block, the nearest orbit
    point is never more than one block away, so on deep blocks the
    distance to these copies is the distance to the orbit."""
    return with_neighbours(circle_closure(shape, sigma).closure(), sigma)


def fold_to_window(s: IvSet, sigma: Q) -> IvSet:
    """Fold interval parts outside (sigma, 1] back through the seam."""
    return circle_closure(_through_seam(s, sigma), sigma)


def _through_seam(s: IvSet, sigma: Q) -> IvSet:
    """The parts of s in [sigma^2, 1/sigma] moved into the window
    (sigma, 1] through the seam, the result not closed."""
    win = upto1(sigma)
    out = s.intersect(win)
    low = s.intersect(IvSet.on((Iv.on(sigma * sigma, sigma, True, True),)))
    if low:
        out = out.union(low.scale(1 / sigma).intersect(win))
    high = s.intersect(IvSet.on((Iv.on(_ONE, 1 / sigma, False, True),)))
    if high:
        out = out.union(high.scale(sigma).intersect(win))
    return out


def grow_circle(C: IvSet, eta: Q, sigma: Q) -> IvSet:
    """The closed eta-neighbourhood of C on the circle."""
    grown = IvSet([Iv(iv.lo - eta, iv.hi + eta, True, True)
                   for iv in C.ivs])
    return fold_to_window(grown, sigma)


def circle_gap(C: IvSet, O: IvSet, sigma: Q) -> Q:
    """The least distance from C to O and its neighbour copies; raises
    RepresentabilityError when it is 0 or either set is empty."""
    oext = with_neighbours(O, sigma)
    best = None
    for c in C.ivs:
        for o in oext.ivs:
            if o.lo > c.hi:
                d = o.lo - c.hi
            elif c.lo > o.hi:
                d = c.lo - o.hi
            else:
                d = Q(0)
            best = d if best is None else min(best, d)
    if best is None or best == 0:
        raise RepresentabilityError("no gap between the trace and the "
                                    "obstruction structure")
    return best


class AsymptoticSet:
    """A self-similar subset of (0, 1].

    The shape may hold the point w = sigma, which is w = 1 on the next
    block: the constructor folds it through the seam and lowers the anchor
    by one block, so the set keeps every point it had and gains none (the
    anchor c0, w = 1 on block 0, stays out)."""

    __slots__ = ("grid", "shape", "head", "_closure")

    def __init__(self, sigma, shape: IvSet, head: IvSet | None = None,
                 c0=Q(1), D=1):
        grid = Grid.of(sigma, c0, D)
        inside = shape.intersect(upto1(grid.sigma))
        if inside != shape and inside.union(IvSet.point(grid.sigma)) != shape:
            raise ValueError("shape must lie inside [sigma, 1]")
        head = head if head is not None else IvSet.empty()
        if head and (grid.c0 == 1 or head.intersect(upto1(grid.c0)) != head):
            raise ValueError("a head must lie inside (anchor, 1], anchor < 1")
        if inside != shape:
            low = AsymptoticSet.on(grid, inside, head).lower_anchor(1)
            grid, head = low.grid, low.head
            shape = _through_seam(shape, grid.sigma)
        self.grid, self.shape, self.head = grid, shape, head
        self._closure = None

    @classmethod
    def on(cls, grid: Grid, shape: IvSet, head: IvSet) -> "AsymptoticSet":
        """Trusted: shape inside (sigma, 1] and head inside (c0, 1]."""
        s = object.__new__(cls)
        s.grid, s.shape, s.head = grid, shape, head
        s._closure = None
        return s

    sigma = property(lambda self: self.grid.sigma)
    c0 = property(lambda self: self.grid.c0)
    D = property(lambda self: self.grid.D)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def orbit_interval(lo, hi, sigma=Q(1, 2), lc=True, hc=True, D=1):
        return AsymptoticSet(sigma, IvSet.interval(lo, hi, lc, hc), D=D)

    @staticmethod
    def orbit_point(w, sigma=Q(1, 2), D=1):
        return AsymptoticSet(sigma, IvSet.point(w), D=D)

    @staticmethod
    def full(sigma=Q(1, 2), D=1) -> "AsymptoticSet":
        return AsymptoticSet(sigma, upto1(Q(sigma)), D=D)

    @staticmethod
    def empty(sigma=Q(1, 2), D=1) -> "AsymptoticSet":
        return AsymptoticSet(sigma, IvSet.empty(), D=D)

    # -- basic queries --------------------------------------------------

    def __repr__(self):
        return (f"AsymptoticSet(sigma={self.sigma}, c0={self.c0}, "
                f"shape={self.shape}, head={self.head})")

    def is_empty(self) -> bool:
        return self.shape.is_empty() and self.head.is_empty()

    def is_characteristic(self) -> bool:
        """Whether the set accumulates at 0."""
        return not self.shape.is_empty()

    def contains(self, u) -> bool:
        u = Q(u)
        if not (0 < u <= 1):
            return False
        if u > self.c0:
            return self.head.contains(u)
        k, w = self.grid.block_coord(u)
        return self.shape.contains(w)

    # -- grid rewriting -------------------------------------------------

    def lower_anchor(self, t: int) -> "AsymptoticSet":
        """The top t blocks of the tail unrolled into the head.  Trusted:
        the shape lies in (sigma, 1] and the head in (c0, 1], so the copy
        shape * sigma^k * c0 lies in the block (sigma^(k+1) c0, sigma^k c0]
        and the copies and the head are joined, lowest first, without a
        union."""
        if t == 0:
            return self
        shape, f = self.shape, self.c0
        parts = [shape.scale(f)]
        for _ in range(t - 1):
            f *= self.sigma
            parts.append(shape.scale(f))
        parts.reverse()
        parts.append(self.head)
        return AsymptoticSet.on(self.grid.lower(t), shape,
                                IvSet.joined(parts))

    def lower_anchor_to(self, new_c0) -> "AsymptoticSet":
        return self.lower_anchor(self.grid.steps_to(new_c0))

    def coarsen(self, m: int) -> "AsymptoticSet":
        """Trusted: the m copies shape * sigma^i lie in the disjoint blocks
        (sigma^(i+1), sigma^i] of the window (sigma^m, 1], so they are
        joined, lowest first, without a union."""
        if m == 1:
            return self
        t, grid = self.grid.coarsen(m)
        if t:
            return self.lower_anchor(t).coarsen(m)
        shape, f = self.shape, _ONE
        parts = [shape]
        for _ in range(m - 1):
            f *= self.sigma
            parts.append(shape.scale(f))
        parts.reverse()
        return AsymptoticSet.on(grid, IvSet.joined(parts), self.head)

    # -- boolean algebra ------------------------------------------------

    def union(self, other) -> "AsymptoticSet":
        """Trusted: unions of subsets of one window stay in it."""
        a, b = unify(self, other)
        return AsymptoticSet.on(a.grid, a.shape.union(b.shape),
                                a.head.union(b.head))

    def intersect(self, other) -> "AsymptoticSet":
        """Trusted: intersections of subsets of a window stay in it."""
        a, b = unify(self, other)
        return AsymptoticSet.on(a.grid, a.shape.intersect(b.shape),
                                a.head.intersect(b.head))

    def complement(self) -> "AsymptoticSet":
        """Trusted: complements are taken inside the window and the dome."""
        sh = self.shape.complement(Iv.on(self.sigma, _ONE, False, True))
        hd = IvSet.empty()
        if self.c0 < 1:
            hd = self.head.complement(Iv.on(self.c0, _ONE, False, True))
        return AsymptoticSet.on(self.grid, sh, hd)

    def difference(self, other) -> "AsymptoticSet":
        return self.intersect(other.complement_like(self))

    def complement_like(self, template) -> "AsymptoticSet":
        a, _ = unify(self, template)
        return a.complement()

    def set_eq(self, other) -> bool:
        a, b = unify(self, other)
        return a.shape == b.shape and a.head == b.head

    def subset_of(self, other) -> bool:
        a, b = unify(self, other)
        return a.shape.subset_of(b.shape) and a.head.subset_of(b.head)

    # -- topology -------------------------------------------------------

    def closure(self) -> "AsymptoticSet":
        """Trusted: both closures are cut back to the window and dome.  A
        set never changes, so its closure is computed on the first call and
        kept in `_closure`: every later call returns that same object."""
        c = self._closure
        if c is None:
            S = self.lower_anchor(1)
            sh = circle_closure(S.shape, S.sigma)
            hd = S.head.closure().intersect(upto1(S.c0))
            c = self._closure = AsymptoticSet.on(S.grid, sh, hd)
        return c

    def interior(self) -> "AsymptoticSet":
        """The dual of `closure`, in one pass and not memoized.  Trusted:
        both interiors lie in the window and dome.  The anchor goes one
        block down, as in `closure`; the shape takes `circle_interior` and
        the head its interior relative to the dome (c0, 1], where c0, the
        w = 1 of the first block, is outside.  This equals the complement
        of the closure of the complement: lowering the anchor commutes with
        the complement, the complement of `circle_closure` of the
        complement is `circle_interior`, and that of a closure relative to
        the dome is `interior_rel` of the dome."""
        S = self.lower_anchor(1)
        return AsymptoticSet.on(
            S.grid, circle_interior(S.shape, S.sigma),
            S.head.interior_rel(Iv.on(S.c0, _ONE, False, True)))

    def is_closed(self) -> bool:
        """A scan of the end flags on the set's own grid that builds no
        set.  The set is closed exactly when every interval of the shape
        and the head holds both ends, except an open start at sigma (shape)
        or c0 (head), and the shape holds w = 1 when either part starts
        there.  Limit points lie inside the blocks and the dome, where each
        interval must hold its ends, or at a seam: sigma+ of a block is
        glued to w = 1 of the next, and c0 is w = 1 of the first block, so
        a part starting at sigma or c0 has w = 1 as a limit point.  Thus
        `is_closed()` is `set_eq(closure())`."""
        at_seam = False
        for part, lo in ((self.shape, self.sigma), (self.head, self.c0)):
            for iv in part.ivs:
                if not iv.hc or not (iv.lc or iv.lo == lo):
                    return False
                at_seam = at_seam or iv.lo == lo
        return not at_seam or self.shape.contains(_ONE)

    def is_open(self) -> bool:
        return self.set_eq(self.interior())

    def precedes(self, other) -> bool:
        """The extension order: closure(self) inside interior(other)."""
        return self.closure().subset_of(other.interior())

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            **self.grid.to_dict(),
            "shape": _ivs_to_list(self.shape),
            "head": _ivs_to_list(self.head),
        }

    @staticmethod
    def from_dict(d: dict) -> "AsymptoticSet":
        try:
            g = Grid.from_dict(d)
            return AsymptoticSet(g.sigma, _ivs_from_list(d["shape"]),
                                 _ivs_from_list(d.get("head", [])), g.c0, g.D)
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
            raise ParseError(f"malformed set record: {e}") from None


def orbit_with_full_head(shape: IvSet, sigma: Q, S: AsymptoticSet):
    """The orbit of a window shape below the anchor c0 = sigma_S * c0_S,
    one block under the anchor of S, and all of (c0, 1] above it."""
    c0 = S.c0 * S.sigma
    return AsymptoticSet(sigma, shape, upto1(c0), c0, S.D)


def halfway_toward(C: IvSet, O: IvSet, sigma: Q, S: AsymptoticSet):
    """The set halfway from the closed trace C toward the obstacles O: the
    full set when there are none, else the orbit of C grown by half the
    circle gap, headed as in `orbit_with_full_head`."""
    if O.is_empty():
        return AsymptoticSet.full(sigma, S.D)
    return orbit_with_full_head(
        grow_circle(C, circle_gap(C, O, sigma) / 2, sigma), sigma, S)


def _ivs_to_list(s: IvSet):
    return [{"lo": str(iv.lo), "hi": str(iv.hi),
             "lc": iv.lc, "hc": iv.hc} for iv in s.ivs]


def _ivs_from_list(lst):
    return IvSet([Iv(Q(d["lo"]), Q(d["hi"]), bool(d["lc"]), bool(d["hc"]))
                  for d in lst])


# -- metric machinery (used by the separation constructions) -------------

_ZERO = Q(0)


def _marks(cands: IvSet, lo: Q, hi: Q) -> list:
    """The sorted breakpoints on [lo, hi] of the distance to the closed
    set `cands`: the ends, the interval endpoints and the gap midpoints (the
    tent apexes).  The distance is linear between consecutive marks."""
    ivs = cands.ivs
    if not ivs:
        raise EmptySet("distance to the empty set is undefined")
    pts = [ivs[0].lo, ivs[0].hi]
    for a, b in zip(ivs, ivs[1:]):
        pts += [(a.hi + b.lo) / 2, b.lo, b.hi]
    out = [lo]
    for e in pts:
        if lo < e < hi and e != out[-1]:
            out.append(e)
    out.append(hi)
    return out


def _distances(cands: IvSet, ws) -> list:
    """The distances to the closed set `cands` (flags are ignored) at the
    increasing points `ws`, in one sweep over its intervals."""
    ivs = cands.ivs
    n = len(ivs)
    out = []
    j = 0
    for w in ws:
        while j < n and ivs[j].hi < w:
            j += 1
        if j < n and ivs[j].lo <= w:
            out.append(_ZERO)
        elif j == n:
            out.append(w - ivs[-1].hi)
        elif j == 0:
            out.append(ivs[0].lo - w)
        else:
            out.append(min(ivs[j].lo - w, w - ivs[j - 1].hi))
    return out


def pl_distance(cands: IvSet, lo, hi):
    """Piecewise linear distance on [lo, hi] to a nonempty closed interval
    set (flags are ignored; endpoints count as members)."""
    ws = _marks(cands, Q(lo), Q(hi))
    return Piecewise.linear_interp(list(zip(ws, _distances(cands, ws))))


def _closer_region(ca: IvSet, cb: IvSet, lo: Q, hi: Q) -> IvSet:
    """The closed set {w in [lo, hi] : d(w, ca) <= d(w, cb)} for nonempty
    closed interval sets ca, cb (flags are ignored), by the nearest-component
    rule of the module docstring.

    One sweep merges the intervals of ca and cb, ca first on a tie of
    starts, into the components of their union; a component's first point
    lies in ca exactly when its first interval does.  The region is built
    in order as closed pieces: the ca intervals and, in each gap, the part
    on the side of a ca end.  Touching pieces are joined, and the result is
    cut to [lo, hi]."""
    A, B = ca.ivs, cb.ivs
    if not A or not B:
        raise EmptySet("distance to the empty set is undefined")
    pieces = []  # closed [a, b], in order, joined; None is -inf or +inf
    end = None  # the last point of the current component
    end_a = False  # whether that point lies in ca
    i = j = 0
    na, nb = len(A), len(B)
    while i < na or j < nb:
        if j == nb or (i < na and A[i].lo <= B[j].lo):
            iv, in_a = A[i], True
            i += 1
        else:
            iv, in_a = B[j], False
            j += 1
        s, e = iv.lo, iv.hi
        if end is None or s > end:
            # a new component: the gap before it goes to its ca ends
            if end is None:
                gap = [None, s] if in_a else None
            elif end_a:
                gap = [end, s] if in_a else [end, (end + s) / 2]
            else:
                gap = [(end + s) / 2, s] if in_a else None
            if gap is not None:
                if pieces and gap[0] <= pieces[-1][1]:
                    pieces[-1][1] = gap[1]
                else:
                    pieces.append(gap)
            end, end_a = e, in_a
        elif e > end:
            end, end_a = e, in_a
        elif in_a and e == end:
            end_a = True
        if in_a:
            if pieces and s <= pieces[-1][1]:
                if e > pieces[-1][1]:
                    pieces[-1][1] = e
            else:
                pieces.append([s, e])
    if end_a:  # the last piece ends at the last ca end
        pieces[-1][1] = None
    out = []
    for a, b in pieces:
        if b is not None and b < lo:
            continue
        if a is not None and a > hi:
            break
        out.append(Iv.on(lo if a is None or a < lo else a,
                         hi if b is None or b > hi else b, True, True))
    return IvSet.on(tuple(out))


def _head_cands(s: AsymptoticSet) -> IvSet:
    """Closed candidate set whose u-distance is exact on [sigma*c0, 1]:
    the head plus the top two tail blocks.  Any lower block is farther than
    the nearest candidate for every u in that range.  The closed copies lie
    in [sigma^2 c0, sigma c0] and [sigma c0, c0] and the closed head in
    [c0, 1], so the three are joined without a union."""
    sh, c0 = s.shape.closure(), s.c0
    return IvSet.joined((sh.scale(s.sigma * c0), sh.scale(c0),
                         s.head.closure()))


def distance_profile(S: AsymptoticSet):
    """The u-coordinate distance to a nonempty set, as an exact
    piecewise-linear self-similar element (degree 1 on the tail)."""
    if S.is_empty():
        raise EmptySet("distance to the empty set is undefined")
    S = S.closure()
    sg = S.sigma
    if S.is_characteristic():
        # anchor two blocks down: the window formula is exact once both
        # neighbour blocks are genuine tail blocks
        S1 = S.lower_anchor(1)
        grid = S1.grid.lower(1)
        dw = pl_distance(closed_with_neighbours(S1.shape, sg), sg, 1)
        if dw.is_zero():
            comps = ()
        else:
            comps = (TailComponent(1, 0, dw.scale(grid.c0)),)
        head = pl_distance(_head_cands(S1), grid.c0, Q(1))
        return PwFunction(grid.sigma, comps, head, grid.c0, grid.D)
    # no tail: distance below the anchor is (nearest head point) - u
    a = min(iv.lo for iv in S.head.closure().ivs)
    c0 = S.c0
    head = pl_distance(S.head.closure(), c0, Q(1))
    comps = (TailComponent(0, 0, Piecewise.const(sg, Q(1), a)),
             TailComponent(1, 0, Piecewise.linear_interp(
                 [(sg, -c0 * sg), (Q(1), -c0)])))
    return PwFunction(sg, comps, head, c0, S.D)


def _metric_median(A: AsymptoticSet, B: AsymptoticSet) -> AsymptoticSet:
    """The closed set {u : d(u, A) <= d(u, B)}, with the convention
    d(u, empty) = +infinity.  A and B must be closed; they are not closed
    again here.  Trusted: shape and head are cut to the window and dome."""
    A, B = unify(A, B)
    sg, D = A.sigma, A.D
    if B.is_empty() or A.is_empty():
        shape = upto1(sg) if B.is_empty() else IvSet.empty()
        return AsymptoticSet.on(Grid(sg, 0, D), shape, IvSet.empty())
    # Anchor low enough that the self-similar tail rule is exact: one block
    # down unconditionally, and below half the minimum of any side that does
    # not accumulate at 0.
    mins = [min(iv.lo for iv in X.head.ivs) / 2
            for X in (A, B) if not X.is_characteristic()]
    t = 1
    while mins and A.c0 * sg ** t >= min(mins):
        t += 1
    A, B = A.lower_anchor(t), B.lower_anchor(t)
    c0 = A.c0
    win = upto1(sg)
    if A.is_characteristic() and B.is_characteristic():
        shape = _closer_region(closed_with_neighbours(A.shape, sg),
                               closed_with_neighbours(B.shape, sg),
                               sg, Q(1)).intersect(win)
    elif A.is_characteristic():
        shape = win
    elif B.is_characteristic():
        shape = IvSet.empty()
    else:
        aA = min(iv.lo for iv in A.head.ivs)
        aB = min(iv.lo for iv in B.head.ivs)
        shape = win if aA <= aB else IvSet.empty()
    head = _closer_region(_head_cands(A), _head_cands(B), c0, Q(1)).intersect(
        upto1(c0))
    return AsymptoticSet.on(A.grid, shape, head)


def insert_between(S: AsymptoticSet, T: AsymptoticSet) -> AsymptoticSet:
    """A set strictly between S and T in the extension order: the points at
    least as close to cl S as to cl(complement of T).

    The precondition S precedes T, cl S inside int T, is checked as
    cl S inside the complement of cl(complement of T): int T is exactly that
    complement.  Each of the two closures is taken once."""
    a, b = unify(S, T)
    A = a.closure()
    B = b.complement().closure()
    if not A.subset_of(B.complement()):
        raise PreconditionViolated("insert_between needs the first set to "
                                   "precede the second")
    return _metric_median(A, B)


def _unify_many(sets):
    sets = list(sets)
    for idx in list(range(len(sets) - 1)) + list(range(len(sets) - 2, -1, -1)):
        sets[idx], sets[idx + 1] = unify(sets[idx], sets[idx + 1])
    return sets


def prec_union(S: AsymptoticSet, T: AsymptoticSet, U: AsymptoticSet):
    """Split a covered set: V preceding S and W preceding T with
    U inside V union W, via distance comparison against the complements."""
    s, t, u = _unify_many([S, T, U])
    for X in (s, t, u):
        if X.is_empty() or not X.is_open():
            raise PreconditionViolated(
                "prec_union needs open nonempty sets")
    clu = u.closure()
    if not clu.subset_of(s.union(t)):
        raise PreconditionViolated(
            "the closure of the covered set must lie inside the union")
    coS = s.complement().closure()
    coT = t.complement().closure()
    V = _metric_median(coT, coS).intersect(clu)
    W = _metric_median(coS, coT).intersect(clu)
    return V, W
