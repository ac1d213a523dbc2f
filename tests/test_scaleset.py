import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from asymcalc.errors import (EmptySet, PreconditionViolated,
                             RepresentabilityError)
from asymcalc.grid import Grid, unify
from asymcalc.ivset import Iv, IvSet
import asymcalc.scaleset as scaleset_mod
from asymcalc.scaleset import (AsymptoticSet, _closer_region, _distances,
                               _marks, circle_closure, circle_gap,
                               distance_profile, fold_to_window, grow_circle,
                               insert_between, pl_distance, prec_union,
                               upto1, with_neighbours)
from asymcalc.verify.corpus import random_set
from asymcalc.window import Piecewise

sets = st.integers(min_value=0, max_value=10 ** 6).map(
    lambda n: random_set(random.Random(n)))


def test_contains_orbit(A):
    assert A.contains(Q(3, 4))
    assert A.contains(Q(3, 8))        # one block down: 3/8 = (3/4)/2
    assert A.contains(Q(3, 4) / 2 ** 20)
    assert not A.contains(Q(1, 2))


def test_circle_closure_glues_seam():
    # a shape touching sigma from the right picks up the point 1
    s = IvSet([Iv(Q(1, 2), Q(9, 16), False, True)])
    cl = circle_closure(s, Q(1, 2))
    assert cl.contains(1)
    assert not cl.contains(Q(1, 2))


def _in_orbit(u, sigma, shape, head, c0):
    """u in the set by definition: in the head, or u = sigma^k c0 w with
    k >= 0 and w in the shape (the probes lie above block 40)."""
    if head.contains(u):
        return True
    return any(shape.contains(u / (sigma ** k * c0)) for k in range(40))


@pytest.mark.parametrize("sigma, shape, head, c0", [
    (Q(1, 2), IvSet.interval(Q(1, 2), Q(9, 16)), IvSet.empty(), Q(1)),
    (Q(1, 2), IvSet.point(Q(1, 2)), IvSet.empty(), Q(1)),
    (Q(2, 3), IvSet([Iv(Q(2, 3), Q(2, 3), True, True),
                     Iv(Q(3, 4), Q(5, 6), False, True)]),
     IvSet.interval(Q(7, 9), Q(8, 9), False, False), Q(2, 3)),
])
def test_shape_at_the_seam_is_folded(sigma, shape, head, c0):
    S = AsymptoticSet(sigma, shape, head, c0)
    assert S.shape.subset_of(upto1(sigma)) and S.shape.contains(1)
    assert S.head.subset_of(upto1(S.c0))
    probes = {Q(n, 96) * sigma ** k for n in range(1, 97) for k in range(4)}
    for u in probes | {sigma ** k * c0 for k in range(4)}:
        assert S.contains(u) == _in_orbit(u, sigma, shape, head, c0), u
    assert not S.contains(c0)


def test_orbit_interval_from_the_seam():
    S = AsymptoticSet.orbit_interval(Q(1, 2), Q(9, 16))
    assert S.set_eq(AsymptoticSet.orbit_point(Q(1, 2)).union(
        AsymptoticSet.orbit_interval(Q(1, 2), Q(9, 16), lc=False)))
    assert S.is_closed() and not S.contains(1)
    with pytest.raises(ValueError):
        AsymptoticSet.orbit_interval(Q(1, 4), Q(9, 16))
    with pytest.raises(ValueError):
        AsymptoticSet(Q(1, 2), IvSet.point(Q(17, 16)))


def test_precedes_examples(A, B, P, full):
    assert A.precedes(B)
    assert not B.precedes(A)
    assert P.precedes(A)
    assert A.precedes(full)
    assert full.precedes(full)


def test_insert_between_frozen(A, B):
    M = insert_between(A, B)
    assert M.shape == IvSet.interval(Q(13, 20), Q(17, 20))
    assert A.precedes(M) and M.precedes(B)


def test_insert_between_precondition(A, B):
    with pytest.raises(PreconditionViolated):
        insert_between(B, A)


def test_distance_profile_exact(A):
    d = distance_profile(A)
    assert d.eval(Q(3, 4)) == 0
    assert d.eval(Q(3, 8)) == 0
    # 0.85 is 1/20 above the orbit interval [0.7, 0.8]
    assert d.eval(Q(17, 20)) == Q(1, 20)
    assert d.valuation() is not None


def test_closure_interior(A):
    half_open = AsymptoticSet(Q(1, 2),
                              IvSet([Iv(Q(7, 10), Q(4, 5), False, False)]))
    assert half_open.closure().set_eq(A)
    assert A.interior().set_eq(
        AsymptoticSet(Q(1, 2), IvSet([Iv(Q(7, 10), Q(4, 5), False, False)])))
    assert A.is_closed()
    assert not half_open.is_closed()


def test_set_algebra(A, B, full):
    assert A.intersect(B).set_eq(A)
    assert A.union(B).set_eq(B)
    assert A.complement().union(A).set_eq(full)
    assert not A.complement().intersect(A).is_characteristic()


def test_prec_union():
    S = AsymptoticSet.orbit_interval(Q(3, 5), Q(4, 5), lc=False, hc=False)
    T = AsymptoticSet.orbit_interval(Q(7, 10), Q(9, 10), lc=False, hc=False)
    U = AsymptoticSet.orbit_interval(Q(13, 20), Q(17, 20),
                                     lc=False, hc=False)
    V, W = prec_union(S, T, U)
    assert V.precedes(S) and W.precedes(T)
    assert U.subset_of(V.union(W))


@settings(max_examples=150, deadline=None)
@given(sets, sets)
def test_duality(S, T):
    assert S.precedes(T) == T.complement_like(S).precedes(
        S.complement_like(T))


@settings(max_examples=100, deadline=None)
@given(sets, sets, sets)
def test_precedes_transitive(S, T, U):
    if S.precedes(T) and T.precedes(U):
        assert S.precedes(U)


@settings(max_examples=100, deadline=None)
@given(sets)
def test_closure_operators(S):
    assert S.closure().closure().set_eq(S.closure())
    assert S.interior().interior().set_eq(S.interior())
    assert S.interior().subset_of(S.closure())


def test_serialization_roundtrip(A, P):
    for S in (A, P, A.lower_anchor(2)):
        assert AsymptoticSet.from_dict(S.to_dict()).set_eq(S)


# -- the metric median against the polynomial-layer construction -------------
# The references below build the same objects the slow way: each distance
# value by a scan over all intervals, the difference of two distances with
# `Piecewise.sub`, and its sign region from root isolation on every segment
# and a closure of both inputs at every step.


def _ref_pl_distance(cands, lo, hi):
    ivs = cands.ivs
    lo, hi = Q(lo), Q(hi)

    def dist_at(w):
        best = None
        for iv in ivs:
            if iv.lo <= w <= iv.hi:
                return Q(0)
            d = iv.lo - w if w < iv.lo else w - iv.hi
            best = d if best is None else min(best, d)
        return best

    marks = {lo, hi}
    for iv in ivs:
        for e in (iv.lo, iv.hi):
            if lo <= e <= hi:
                marks.add(e)
    for a, b in zip(ivs, ivs[1:]):
        mid = (a.hi + b.lo) / 2
        if lo <= mid <= hi:
            marks.add(mid)
    return Piecewise.linear_interp([(w, dist_at(w)) for w in sorted(marks)])


def _ref_nonpos_region(f):
    cuts = {Q(f.lo), Q(f.hi)} | {Q(b) for b in f.breakpoints()}
    for z in f.isolated_zeros():
        assert isinstance(z, Q)
        cuts.add(z)
    pts = sorted(cuts)
    out = f.flat_zero()
    for p in pts:
        if f.eval(p) <= 0:
            out = out.union(IvSet.point(p))
    for a, b in zip(pts, pts[1:]):
        if f.eval((a + b) / 2) <= 0:
            out = out.union(IvSet([Iv(a, b, True, True)]))
    return out


def _ref_closer_region(ca, cb, lo, hi):
    """The mark/distance `_closer_region` that the nearest-component sweep
    replaced: both distances are linear between consecutive merged marks,
    so d_a - d_b changes sign at most once on each piece, where its linear
    interpolant vanishes."""
    ws = sorted(set(_marks(ca, lo, hi)).union(_marks(cb, lo, hi)))
    fs = [x - y for x, y in zip(_distances(ca, ws), _distances(cb, ws))]
    out = []
    start = ws[0] if fs[0] <= 0 else None
    for a, fa, b, fb in zip(ws, fs, ws[1:], fs[1:]):
        if (fa <= 0) == (fb <= 0):
            continue
        z = a + fa * (b - a) / (fa - fb)
        if start is None:
            start = z
        else:
            out.append(Iv(start, z, True, True))
            start = None
    if start is not None:
        out.append(Iv(start, ws[-1], True, True))
    return IvSet(out)


def _ref_window_cands(shape, sg):
    closed = circle_closure(shape, sg).closure()
    return closed.union(closed.scale(sg)).union(closed.scale(1 / sg))


def _ref_head_cands(s):
    sh = s.shape.closure()
    return s.head.closure().union(sh.scale(s.c0)).union(
        sh.scale(s.sigma * s.c0))


def _ref_metric_median(A, B):
    A, B = unify(A.closure(), B.closure())
    sg, D = A.sigma, A.D
    if B.is_empty():
        return AsymptoticSet.full(sg, D)
    if A.is_empty():
        return AsymptoticSet.empty(sg, D)
    mins = [min(iv.lo for iv in X.head.ivs) / 2
            for X in (A, B) if not X.is_characteristic()]
    c0 = A.c0 * sg
    while mins and c0 >= min(mins):
        c0 *= sg
    A = A.lower_anchor_to(c0)
    B = B.lower_anchor_to(c0)
    win = IvSet([Iv(sg, 1, False, True)])
    if A.is_characteristic() and B.is_characteristic():
        f = _ref_pl_distance(_ref_window_cands(A.shape, sg), sg, 1).sub(
            _ref_pl_distance(_ref_window_cands(B.shape, sg), sg, 1))
        shape = _ref_nonpos_region(f).intersect(win)
    elif A.is_characteristic():
        shape = win
    elif B.is_characteristic():
        shape = IvSet.empty()
    else:
        aA = min(iv.lo for iv in A.head.ivs)
        aB = min(iv.lo for iv in B.head.ivs)
        shape = win if aA <= aB else IvSet.empty()
    fh = _ref_pl_distance(_ref_head_cands(A), c0, 1).sub(
        _ref_pl_distance(_ref_head_cands(B), c0, 1))
    head = _ref_nonpos_region(fh).intersect(IvSet([Iv(c0, 1, False, True)]))
    return AsymptoticSet(sg, shape, head, c0, D)


def _ref_insert_between(S, T):
    a, b = unify(S, T)
    return _ref_metric_median(a.closure(),
                              b.interior().complement().closure())


_coords = st.builds(Q, st.integers(-24, 72), st.sampled_from([3, 7, 16, 24]))


@st.composite
def _windows(draw):
    lo = Q(draw(st.integers(0, 16)), 16)
    return lo, lo + Q(draw(st.integers(1, 16)), draw(st.sampled_from([3, 16])))


@st.composite
def _closed_sets(draw, lo, hi, ends=None):
    """Closed interval sets with points, intervals touching lo or hi, and
    intervals partly or wholly outside [lo, hi]; or with their ends drawn
    from `ends`."""
    if ends is None:
        ends = st.one_of(st.sampled_from([lo, hi]), _coords)
    ivs = []
    for _ in range(draw(st.integers(1, 6))):
        a, b = sorted((draw(ends), draw(ends)))
        if draw(st.booleans()):
            b = a
        ivs.append(Iv(a, b, True, True))
    return IvSet(ivs)


@st.composite
def _metric_cases(draw):
    lo, hi = draw(_windows())
    return lo, hi, draw(_closed_sets(lo, hi)), draw(_closed_sets(lo, hi))


@settings(max_examples=300, deadline=None)
@given(_metric_cases())
def test_pl_distance_matches_reference(case):
    lo, hi, ca, _ = case
    assert pl_distance(ca, lo, hi) == _ref_pl_distance(ca, lo, hi)


@settings(max_examples=300, deadline=None)
@given(_metric_cases())
def test_closer_region_matches_reference(case):
    lo, hi, ca, cb = case
    ref = _ref_nonpos_region(
        _ref_pl_distance(ca, lo, hi).sub(_ref_pl_distance(cb, lo, hi)))
    assert _closer_region(ca, cb, lo, hi) == ref


@st.composite
def _region_cases(draw):
    """(lo, hi, ca, cb) for the cases where the nearest-component rule has
    to get ties and ends right: random sets, ca == cb, ca inside cb, cb
    inside ca, sets sharing ends and overlapping, a gap between a ca end and
    a cb end whose midpoint is at lo, at hi or inside, and candidate sets
    lying wholly below lo or wholly above hi."""
    lo, hi = draw(_windows())
    ca = draw(_closed_sets(lo, hi))
    kind = draw(st.sampled_from(["random", "equal", "inside", "around",
                                 "overlap", "midpoint", "outside"]))
    if kind == "random":
        cb = draw(_closed_sets(lo, hi))
    elif kind == "equal":
        cb = ca
    elif kind == "inside":
        cb = ca.union(draw(_closed_sets(lo, hi)))
    elif kind == "around":
        cb, ca = ca, ca.union(draw(_closed_sets(lo, hi)))
    elif kind == "overlap":
        shared = [e for iv in ca.ivs for e in (iv.lo, iv.hi)]
        cb = draw(_closed_sets(lo, hi, st.one_of(st.sampled_from(shared),
                                                 _coords)))
    elif kind == "midpoint":
        a, b = sorted(draw(st.lists(_coords, min_size=2, max_size=2,
                                    unique=True)))
        m = (a + b) / 2
        lo, hi = draw(st.sampled_from([(m, m + 1), (m - 1, m), (a, b),
                                       (m - (b - a) / 3, m + (b - a) / 3)]))
        ca = IvSet([Iv(a - draw(st.sampled_from([0, 1])), a, True, True)])
        cb = IvSet([Iv(b, b + draw(st.sampled_from([0, 1])), True, True)])
        if draw(st.booleans()):
            ca, cb = cb, ca
    else:
        below = draw(st.booleans())
        far = st.integers(1, 24).map(
            lambda k: lo - Q(k, 8) if below else hi + Q(k, 8))
        cb = draw(_closed_sets(lo, hi, far))
        if draw(st.booleans()):
            ca = draw(_closed_sets(lo, hi, far))
        if draw(st.booleans()):
            ca, cb = cb, ca
    return lo, hi, ca, cb


@settings(max_examples=600, deadline=None)
@given(_region_cases())
def test_closer_region_matches_mark_reference(case):
    lo, hi, ca, cb = case
    got = _closer_region(ca, cb, lo, hi)
    assert got.ivs == _ref_closer_region(ca, cb, lo, hi).ivs
    assert all(type(iv.lo) is Q and type(iv.hi) is Q for iv in got.ivs)


def test_closer_region_of_an_empty_set_raises():
    c = IvSet.interval(0, 1)
    for ca, cb in ((IvSet.empty(), c), (c, IvSet.empty())):
        with pytest.raises(EmptySet):
            _closer_region(ca, cb, Q(0), Q(1))


@st.composite
def _nested_pairs(draw):
    """S a union of closed orbit intervals, T a union of open ones around
    them, so S precedes T (random pairs of `sets` mostly do not)."""
    k = draw(st.integers(1, 2))
    cuts = sorted(draw(st.lists(st.integers(33, 63), min_size=4 * k,
                                max_size=4 * k, unique=True)))
    S = T = AsymptoticSet.empty()
    for c0, c1, c2, c3 in zip(*[iter(Q(c, 64) for c in cuts)] * 4):
        S = S.union(AsymptoticSet.orbit_interval(c1, c2))
        T = T.union(AsymptoticSet.orbit_interval(c0, c3, lc=False,
                                                 hc=False))
    return S, T


# head-only sets on sigma = 9/10, on which `_metric_median` lowers the
# anchor in five turns of its loop, below half the lowest head point
_HEADS = (AsymptoticSet(Q(9, 10), IvSet.empty(),
                        IvSet.interval(Q(17, 20), Q(43, 50)), Q(81, 100)),
          AsymptoticSet(Q(9, 10), IvSet.empty(),
                        IvSet.interval(Q(83, 100), Q(9, 10), False, False),
                        Q(81, 100)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(sets, sets), _nested_pairs()))
@example(_HEADS)
def test_insert_between_matches_reference(pair):
    S, T = pair
    if not S.precedes(T):
        with pytest.raises(PreconditionViolated):
            insert_between(S, T)
        return
    M = insert_between(S, T)
    assert M.set_eq(_ref_insert_between(S, T))
    assert S.precedes(M) and M.precedes(T)


@settings(max_examples=60, deadline=None)
@given(_nested_pairs(), st.one_of(sets, _nested_pairs().map(lambda p: p[1])))
def test_prec_union_matches_reference(pair, T2):
    # U = int S1 has closure S1 inside the open T1, so U is covered
    S1, T1 = pair
    T2 = T2.interior()
    assume(not T2.is_empty())
    V, W = prec_union(T1, T2, S1.interior())
    coS = T1.complement().closure()
    coT = T2.complement().closure()
    clu = S1.interior().closure()
    assert V.set_eq(_ref_metric_median(coT, coS).intersect(clu))
    assert W.set_eq(_ref_metric_median(coS, coT).intersect(clu))


def test_insert_between_closes_each_set_once(A, B, monkeypatch):
    calls = []
    closure = AsymptoticSet.closure

    def counted(self):
        calls.append(self)
        return closure(self)

    monkeypatch.setattr(AsymptoticSet, "closure", counted)
    insert_between(A, B)
    assert len(calls) == 2


# -- the window circle ------------------------------------------------------

_ratios = st.sampled_from([Q(1, 2), Q(3, 4)])


@st.composite
def _grid_shapes(draw, lo, hi, n=32):
    """Up to three intervals with random flags, points among them, whose
    ends lie on the 1/n grid of [lo, hi] (lo and hi included)."""
    ivs = []
    for _ in range(draw(st.integers(0, 3))):
        i, j = sorted((draw(st.integers(0, n)), draw(st.integers(0, n))))
        a, b = lo + (hi - lo) * Q(i, n), lo + (hi - lo) * Q(j, n)
        if a == b:
            ivs.append(Iv(a, a, True, True))
        else:
            ivs.append(Iv(a, b, draw(st.booleans()), draw(st.booleans())))
    return IvSet(ivs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_circle_closure_and_fold_stay_in_the_window(data):
    sg = data.draw(_ratios)
    shape = data.draw(_grid_shapes(sg, Q(1)))
    spill = data.draw(_grid_shapes(sg * sg, 1 / sg))
    for out in (circle_closure(shape, sg), fold_to_window(spill, sg)):
        assert out.subset_of(upto1(sg))
        assert circle_closure(out, sg) == out


@st.composite
def _trace_and_obstacles(draw, n=32):
    """(sigma, C, O): a closed trace and closed obstacles made of disjoint
    pieces of the 1/n grid of [sigma, 1], seam ends included."""
    sg = draw(_ratios)
    ks = sorted(draw(st.sets(st.integers(0, n), min_size=4, max_size=8)))
    pieces = []
    for i, j in zip(ks[::2], ks[1::2]):
        a, b = sg + (1 - sg) * Q(i, n), sg + (1 - sg) * Q(j, n)
        if draw(st.booleans()):
            b = a
        pieces.append((a, b))
    side = draw(st.lists(st.booleans(), min_size=len(pieces),
                         max_size=len(pieces)))
    assume(any(side) and not all(side))
    C = IvSet([Iv(a, b, a == b or draw(st.booleans()),
                  a == b or draw(st.booleans()))
               for (a, b), c in zip(pieces, side) if c])
    O = IvSet([Iv(a, b, True, True)
               for (a, b), c in zip(pieces, side) if not c])
    return sg, circle_closure(C, sg), O


@settings(max_examples=300, deadline=None)
@given(_trace_and_obstacles())
def test_half_gap_growth_keeps_clear_of_the_obstacles(case):
    # extend_invertible and the purity witness grow a trace by half its
    # circle gap and rely on the result avoiding every obstacle copy
    sg, C, O = case
    try:
        g = circle_gap(C, O, sg)
    except RepresentabilityError:
        reject()
    grown = grow_circle(C, g / 2, sg)
    assert C.subset_of(grown)
    assert grown.intersect(with_neighbours(O, sg)).is_empty()


# -- block copies joined without unions ---------------------------------------


def _ref_lower_anchor(S, t):
    head = S.head
    for k in range(t):
        head = head.union(S.shape.scale(S.sigma ** k * S.c0))
    return AsymptoticSet.on(S.grid.lower(t), S.shape, head)


def _ref_coarsen(S, m):
    t, grid = S.grid.coarsen(m)
    if t:
        S = _ref_lower_anchor(S, t)
    shape = IvSet.empty()
    for i in range(m):
        shape = shape.union(S.shape.scale(S.sigma ** i))
    return AsymptoticSet.on(grid, shape, S.head)


@st.composite
def _headed_sets(draw):
    """Sets on ratios 1/2, 2/3 and 1/4 whose shapes touch sigma and 1 with
    random flags (a closed sigma is folded through the seam), with a head
    on a lowered anchor."""
    sg = draw(st.sampled_from([Q(1, 2), Q(2, 3), Q(1, 4)]))
    j = draw(st.integers(0, 2))
    head = None
    if j:
        head = draw(_grid_shapes(sg ** j, Q(1))).intersect(upto1(sg ** j))
    return AsymptoticSet(sg, draw(_grid_shapes(sg, Q(1))), head, sg ** j)


@settings(max_examples=200, deadline=None)
@given(_headed_sets(), st.integers(0, 4), st.integers(1, 4))
def test_block_copies_match_union_references(S, t, m):
    assert S.lower_anchor(t).to_dict() == _ref_lower_anchor(S, t).to_dict()
    assert S.coarsen(m).to_dict() == _ref_coarsen(S, m).to_dict()


_END_KINDS = ["none", "open", "closed", "point"]


@pytest.mark.parametrize("at_one", _END_KINDS)
@pytest.mark.parametrize("at_sigma", _END_KINDS)
@settings(max_examples=15, deadline=None)
@given(sg=_ratios, data=st.data())
def test_with_neighbours_matches_unions(at_sigma, at_one, sg, data):
    # every kind of end at sigma and at 1, where the copies touch s, with
    # random intervals between them or one interval across the window
    e = (1 - sg) / 8
    ends = []
    if at_sigma == "point":
        ends.append(Iv(sg, sg, True, True))
    elif at_sigma != "none":
        ends.append(Iv(sg, sg + e, at_sigma == "closed", True))
    if at_one == "point":
        ends.append(Iv(Q(1), Q(1), True, True))
    elif at_one != "none":
        ends.append(Iv(1 - e, Q(1), True, at_one == "closed"))
    if data.draw(st.booleans()):
        mid = data.draw(_grid_shapes(sg + 2 * e, 1 - 2 * e)).ivs
    else:
        mid = (Iv(sg + e, 1 - e, True, True),)
    s = IvSet(ends + list(mid))
    want = s.union(s.scale(sg)).union(s.scale(1 / sg))
    assert with_neighbours(s, sg).ivs == want.ivs


# -- each set's closure computed once -----------------------------------------


@settings(max_examples=100, deadline=None)
@given(_headed_sets())
def test_closure_is_computed_once(S):
    C = S.closure()
    assert S.closure() is C
    fresh = AsymptoticSet.on(S.grid, S.shape, S.head).closure()
    assert fresh is not C and fresh.to_dict() == C.to_dict()


def test_sets_start_without_a_closure_memo():
    sg = Q(1, 2)
    folded = AsymptoticSet(sg, IvSet.interval(sg, Q(3, 4)))
    assert folded.c0 == sg  # the closed end at sigma went through the seam
    built = [AsymptoticSet.orbit_interval(Q(5, 8), Q(3, 4)), folded,
             AsymptoticSet.on(Grid(sg), upto1(sg), IvSet.empty())]
    derived = [S.lower_anchor(2) for S in built] + [
        built[0].union(folded), folded.complement()]
    for S in built + derived:
        assert S._closure is None
        assert not hasattr(S, "__dict__")
        assert S.closure()._closure is None


# -- interior and closedness in one pass --------------------------------------


def _ref_interior(S):
    """The former three-pass interior."""
    return S.complement().closure().complement()


_H = Q(1, 2)


def _set(shape, head=(), c0=Q(1)):
    return AsymptoticSet(_H, IvSet(list(shape)), IvSet(list(head)), c0)


_TOPOLOGY_EXAMPLES = [
    _set([Iv(_H, Q(3, 4), False, False)]),  # open at sigma, without w = 1
    _set([Iv(_H, Q(5, 8), False, False), Iv(Q(7, 8), 1, True, True)]),
    _set([Iv(_H, Q(5, 8), False, True), Iv(Q(7, 8), 1, False, True)]),
    AsymptoticSet.orbit_point(1),  # the shape {1} alone
    AsymptoticSet.empty(),
    AsymptoticSet.full(),
] + [
    # a head reaching c0 = 1/4 from above, closed or open at its other end,
    # c0 in the set or not
    _set([shape], [Iv(Q(1, 4), Q(3, 8), False, hc)], Q(1, 4))
    for shape in (Iv(Q(3, 4), 1, True, True), Iv(Q(5, 8), Q(3, 4), True, True))
    for hc in (True, False)
]


def _with_examples(test):
    for S in _TOPOLOGY_EXAMPLES:
        test = example(S)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(st.one_of(sets, _headed_sets()))
@_with_examples
def test_interior_and_is_closed_match_references(S):
    assert S.interior().to_dict() == _ref_interior(S).to_dict()
    assert S.is_closed() == S.set_eq(S.closure())
    I = S.interior()
    assert S.closure().is_closed()
    assert I.is_closed() == I.set_eq(I.closure())


def test_is_closed_neither_lowers_nor_unifies(monkeypatch):
    def refuse(*args):
        raise AssertionError("is_closed left the set's own grid")

    want = [S.set_eq(S.closure()) for S in _TOPOLOGY_EXAMPLES]
    monkeypatch.setattr(AsymptoticSet, "lower_anchor", refuse)
    monkeypatch.setattr(scaleset_mod, "unify", refuse)
    assert [S.is_closed() for S in _TOPOLOGY_EXAMPLES] == want
    assert want.count(True) >= 3 and want.count(False) >= 3


def test_is_closed_builds_no_set(monkeypatch):
    def refuse(*args):
        raise AssertionError("is_closed built a set")

    want = [S.set_eq(S.closure()) for S in _TOPOLOGY_EXAMPLES]
    for name in ("closure", "intersect", "union"):
        monkeypatch.setattr(IvSet, name, refuse)
    monkeypatch.setattr(scaleset_mod, "circle_closure", refuse)
    assert [S.is_closed() for S in _TOPOLOGY_EXAMPLES] == want


def test_interior_is_not_memoized(A):
    assert A.interior() is not A.interior()
    assert A.interior().to_dict() == A.interior().to_dict()


def _exact_distance(u, closed):
    """The distance from u to a closed interval set."""
    return min(Q(0) if iv.lo <= u <= iv.hi else min(abs(u - iv.lo),
                                                    abs(u - iv.hi))
               for iv in closed.ivs)


@pytest.mark.parametrize("sigma", [Q(1, 2), Q(2, 3), Q(1, 3)])
@pytest.mark.parametrize("j", [1, 2])
def test_distance_profile_without_a_tail(sigma, j):
    """A set with no tail: the distance is exact on both sides of the
    anchor, to the nearest head point below it."""
    c0 = sigma ** j
    at = [c0 + (1 - c0) * Q(k, 8) for k in (1, 3, 4, 7)]
    heads = [IvSet.interval(at[0], at[1]),
             IvSet([Iv(at[0], at[1], False, True),
                    Iv(at[2], at[2], True, True), Iv(at[3], 1, True, False)])]
    for head in heads:
        S = AsymptoticSet(sigma, IvSet.empty(), head, c0=c0)
        assert not S.is_characteristic()
        d = distance_profile(S)
        closed = S.head.closure()
        us = [Q(k, 400) for k in range(1, 401)] + [c0, c0 * sigma]
        assert any(u < c0 for u in us) and any(u > c0 for u in us)
        for u in us:
            assert d.eval(u) == _exact_distance(u, closed), (head, u)
