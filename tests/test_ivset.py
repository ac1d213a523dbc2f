from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymcalc import ivset
from asymcalc.ivset import Iv, IvSet
from asymcalc.scaleset import AsymptoticSet

DOM = Iv(0, 1, True, True)

q16 = st.integers(min_value=0, max_value=16).map(lambda n: Q(n, 16))


@st.composite
def ivsets(draw):
    out = IvSet.empty()
    for _ in range(draw(st.integers(0, 3))):
        a = draw(q16)
        b = draw(q16)
        if a > b:
            a, b = b, a
        if a == b:
            out = out.union(IvSet.point(a))
        else:
            out = out.union(IvSet([Iv(a, b, draw(st.booleans()),
                                      draw(st.booleans()))]))
    return out


def test_basic_membership():
    s = IvSet([Iv(Q(1, 4), Q(1, 2), False, True)])
    assert not s.contains(Q(1, 4))
    assert s.contains(Q(1, 2))
    assert s.contains(Q(3, 8))
    assert not s.contains(Q(3, 4))


def test_union_intersect_difference():
    a = IvSet.interval(0, Q(1, 2))
    b = IvSet.interval(Q(1, 4), 1)
    assert a.union(b).contains(Q(7, 8))
    assert a.intersect(b).contains(Q(3, 8))
    assert not a.intersect(b).contains(Q(1, 8))
    assert a.difference(b, DOM).contains(Q(1, 8))
    assert not a.difference(b, DOM).contains(Q(3, 8))


def test_closure_interior():
    s = IvSet([Iv(Q(1, 4), Q(1, 2), False, False)])
    assert s.closure().contains(Q(1, 4))
    assert not s.interior_rel(DOM).contains(Q(1, 4))
    p = IvSet.point(Q(1, 3))
    assert p.closure().contains(Q(1, 3))
    assert not p.interior_rel(DOM)


@settings(max_examples=200)
@given(ivsets(), ivsets())
def test_de_morgan(a, b):
    lhs = a.union(b).complement(DOM)
    rhs = a.complement(DOM).intersect(b.complement(DOM))
    assert lhs == rhs


@settings(max_examples=200)
@given(ivsets(), ivsets())
def test_subset_via_difference(a, b):
    assert a.subset_of(b) == (not a.difference(b, DOM))


@settings(max_examples=200)
@given(ivsets())
def test_complement_involution(a):
    trimmed = a.intersect(IvSet([DOM]))
    assert trimmed.complement(DOM).complement(DOM) == trimmed


@settings(max_examples=100)
@given(ivsets())
def test_closure_idempotent(a):
    assert a.closure().closure() == a.closure()
    inner = a.interior_rel(DOM)
    assert inner.interior_rel(DOM) == inner


# -- the single-pass operations against the parent's references ----------
#
# The references are the former implementations: a nested loop over both
# operands and a sort-and-merge of every result through the validating
# `Iv`.  Canonical form is unique, so the results must be equal.

q8 = st.integers(min_value=0, max_value=8).map(lambda n: Q(n, 8))


@st.composite
def raw_sets(draw):
    """Up to five intervals on a coarse grid, so that touching, nested,
    half-open and point intervals are common, through the public `IvSet`."""
    ivs = []
    for _ in range(draw(st.integers(0, 5))):
        a, b = sorted((draw(q8), draw(q8)))
        if a == b:
            ivs.append(Iv(a, a, True, True))
        else:
            ivs.append(Iv(a, b, draw(st.booleans()), draw(st.booleans())))
    return IvSet(ivs)


def _ref_normalize(ivs):
    ivs = sorted(ivs, key=lambda iv: (iv.lo, not iv.lc, iv.hi))
    out = []
    for iv in ivs:
        if not out:
            out.append(iv)
            continue
        last = out[-1]
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
    return IvSet.on(tuple(out))


def _ref_intersect(a, b):
    out = []
    for x in a.ivs:
        for y in b.ivs:
            lo = max(x.lo, y.lo)
            hi = min(x.hi, y.hi)
            if lo > hi:
                continue
            lc = x.contains(lo) and y.contains(lo)
            hc = x.contains(hi) and y.contains(hi)
            if lo < hi or (lo == hi and lc and hc):
                out.append(Iv(lo, hi, lc, hc))
    return _ref_normalize(out)


def _ref_complement(a, dom):
    clipped = _ref_intersect(a, _ref_normalize([dom]))
    out = []
    cur_lo, cur_lc = dom.lo, dom.lc
    for iv in clipped.ivs:
        if cur_lo < iv.lo or (cur_lo == iv.lo and cur_lc and not iv.lc):
            out.append(Iv(cur_lo, iv.lo, cur_lc, not iv.lc))
        cur_lo, cur_lc = iv.hi, not iv.hc
    if cur_lo < dom.hi or (cur_lo == dom.hi and cur_lc and dom.hc):
        out.append(Iv(cur_lo, dom.hi, cur_lc, dom.hc))
    return _ref_normalize(out)


def _ref_subset_of(a, b):
    for x in a.ivs:
        ok = False
        for y in b.ivs:
            if y.lo < x.lo or (y.lo == x.lo and (y.lc or not x.lc)):
                if y.hi > x.hi or (y.hi == x.hi and (y.hc or not x.hc)):
                    ok = True
                    break
        if not ok:
            return False
    return True


def assert_canonical(s):
    """A trusted result: a tuple of Fraction-ended intervals that the
    reference sort-and-merge leaves unchanged."""
    assert type(s.ivs) is tuple
    for iv in s.ivs:
        assert type(iv.lo) is Q and type(iv.hi) is Q
    assert _ref_normalize(s.ivs) == s


DOMS = [DOM, Iv(Q(1, 4), Q(3, 4), False, True), Iv(Q(1, 8), Q(7, 8), True,
                                                     False)]


HALF_OPEN = IvSet([Iv(0, Q(1, 2), True, False)])
REST = IvSet([Iv(Q(1, 2), 1, False, True)])
MID = IvSet.point(Q(1, 2))


@settings(max_examples=400, deadline=None)
@given(raw_sets(), raw_sets(), st.sampled_from(DOMS),
       st.sampled_from([Q(1), Q(1, 2), Q(3)]))
@example(HALF_OPEN, REST, DOM, Q(1))  # touching, open at the shared end
@example(MID, REST, DOM, Q(2))        # a point at an open end
@example(IvSet.empty(), MID, DOM, Q(1))
@example(HALF_OPEN.union(REST), MID.union(IvSet.point(1)), DOMS[1], Q(1))
def test_set_operations_match_references(a, b, dom, c):
    assert_canonical(a)
    results = [
        (a.intersect(b), _ref_intersect(a, b)),
        (a.complement(dom), _ref_complement(a, dom)),
        (a.union(b), _ref_normalize(list(a.ivs) + list(b.ivs))),
        (a.closure(), _ref_normalize([Iv(iv.lo, iv.hi, True, True)
                                      for iv in a.ivs])),
        (a.fat_part(), _ref_normalize([iv for iv in a.ivs
                                       if not iv.is_point()])),
        (a.scale(c), _ref_normalize([Iv(iv.lo * c, iv.hi * c, iv.lc, iv.hc)
                                     for iv in a.ivs])),
    ]
    for got, want in results:
        assert got == want
        assert_canonical(got)
    assert a.subset_of(b) == _ref_subset_of(a, b)
    assert a.subset_of(a.union(b)) and a.intersect(b).subset_of(b)


@settings(max_examples=300, deadline=None)
@given(raw_sets())
@example(HALF_OPEN.union(REST))            # a gap of one point
@example(MID.union(IvSet.point(1)))        # points only, one at a closed end
@example(IvSet([Iv(0, 1, False, True)]))   # across every domain
@example(IvSet([Iv(Q(1, 4), Q(7, 8), True, True)]))  # ends on dom ends
def test_interior_rel_matches_complement_closure_complement(a):
    # the former three-pass form is the reference
    for dom in DOMS:
        got = a.interior_rel(dom)
        assert got == a.complement(dom).closure().complement(dom)
        assert_canonical(got)


@pytest.mark.parametrize("args", [
    (Q(1, 2), Q(1, 4), True, True),
    (Q(1, 2), Q(1, 2), False, True),
    (Q(1, 2), Q(1, 2), True, False),
    (Q(1, 2), Q(1, 2), False, False),
])
def test_public_interval_validates(args):
    with pytest.raises(ValueError):
        Iv(*args)


def test_public_constructors_convert_and_merge():
    iv = Iv("1/4", 1, True, True)
    assert type(iv.lo) is Q and type(iv.hi) is Q
    s = IvSet([Iv(Q(1, 2), 1, True, True), Iv(0, Q(1, 2), True, False)])
    assert s.ivs == (Iv(0, 1, True, True),)
    assert IvSet.interval(1, Q(1, 2)) == IvSet.empty()
    assert_canonical(IvSet.point(1))
    s = IvSet.interval("1/4", 1, False, True)
    assert s.ivs == (Iv(Q(1, 4), 1, False, True),)
    assert_canonical(s)
    assert IvSet.interval(Q(1, 2), "1/2") == IvSet.point(Q(1, 2))


@pytest.mark.parametrize("lo, hi, lc, hc", [
    (Q(1, 2), Q(1, 4), True, True),
    (Q(1, 2), Q(1, 2), False, True),
    (Q(1, 2), Q(1, 2), True, False),
    (Q(1, 2), Q(1, 2), False, False),
])
def test_empty_interval_is_the_empty_set(lo, hi, lc, hc):
    """The math allows an empty interval: the set is empty, where `Iv`
    keeps raising."""
    assert IvSet.interval(lo, hi, lc, hc) == IvSet.empty()
    assert AsymptoticSet.orbit_interval(lo, hi, lc=lc, hc=hc).is_empty()


# -- the merge sweeps against the former implementations -----------------
#
# `union` and `closure` sorted and merged every result through
# `_normalize` (`_ref_normalize` above), `intersect` took each piece's
# flags from `Iv.contains`, and `subset_of` compared a set with its
# intersection.  Canonical form is unique, so the sweeps must give the
# same sets.

def _contains_intersect(a, b):
    A, B = a.ivs, b.ivs
    out = []
    i = j = 0
    while i < len(A) and j < len(B):
        x, y = A[i], B[j]
        lo, hi = max(x.lo, y.lo), min(x.hi, y.hi)
        if lo <= hi:
            lc = x.contains(lo) and y.contains(lo)
            hc = x.contains(hi) and y.contains(hi)
            if lo < hi or lc:
                out.append(Iv.on(lo, hi, lc, hc))
        if x.hi <= y.hi:
            i += 1
        else:
            j += 1
    return IvSet.on(tuple(out))


def _references(a, b):
    """(operation, result, reference) for the four sweeps on a and b."""
    return [
        ("intersect", lambda: a.intersect(b), _contains_intersect(a, b)),
        ("union", lambda: a.union(b), _ref_normalize(a.ivs + b.ivs)),
        ("closure", lambda: a.closure(),
         _ref_normalize([Iv(iv.lo, iv.hi, True, True) for iv in a.ivs])),
        ("subset_of", lambda: a.subset_of(b), _contains_intersect(a, b) == a),
    ]


q4 = st.integers(min_value=0, max_value=4).map(lambda n: Q(n, 4))


@st.composite
def tied_sets(draw):
    """Up to four intervals with ends on five points, so that points,
    shared ends and all four flag combinations at a shared end are
    common."""
    ivs = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = sorted((draw(q4), draw(q4)))
        if a == b:
            ivs.append(Iv(a, a, True, True))
        else:
            ivs.append(Iv(a, b, draw(st.booleans()), draw(st.booleans())))
    return IvSet(ivs)


# every grid point k/32 and the midpoint of each grid cell; with ends on
# the quarter grid, these meet every point and every open piece of a set
PROBES = [Q(k, 64) for k in range(65)]

TIES = [IvSet([Iv(0, Q(1, 2), True, False)]), IvSet([Iv(0, Q(1, 2), False,
                                                       True)]),
        IvSet([Iv(Q(1, 2), 1, False, True)]), IvSet.point(Q(1, 2)),
        IvSet([Iv(0, Q(1, 2), False, False), Iv(Q(1, 2), 1, False, False)])]


@settings(max_examples=500, deadline=None)
@given(tied_sets(), tied_sets())
@example(TIES[0], TIES[2])
@example(TIES[1], TIES[2])
@example(TIES[3], TIES[4])
@example(TIES[4], TIES[3])
@example(TIES[4], TIES[0].union(TIES[2]))
def test_sweeps_match_references(a, b):
    assert_canonical(a)
    for name, op, want in _references(a, b):
        got = op()
        assert got == want, name
        if name != "subset_of":
            assert_canonical(got)
    union, inter, closure = a.union(b), a.intersect(b), a.closure()
    for x in PROBES:
        in_a, in_b = a.contains(x), b.contains(x)
        assert union.contains(x) == (in_a or in_b)
        assert inter.contains(x) == (in_a and in_b)
        assert closure.contains(x) == (in_a or a.limit_from_left(x)
                                       or a.limit_from_right(x))
    assert a.subset_of(b) == all(b.contains(x) for x in PROBES
                                 if a.contains(x))


def _raise(*args, **kwargs):
    raise AssertionError("the sweeps test no points and sort nothing")


@settings(max_examples=200, deadline=None)
@given(tied_sets(), tied_sets())
@example(TIES[3], TIES[4])
def test_sweeps_neither_test_points_nor_sort(a, b):
    """On canonical operands, the four sweeps give the reference answers
    without `Iv.contains` and without `_normalize`."""
    refs = _references(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Iv, "contains", _raise)
        mp.setattr(ivset, "_normalize", _raise)
        for name, op, want in refs:
            assert op() == want, name
