from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcalc.errors import GridMismatch, IncommensurableRatio
from asymcalc.grid import Grid, unify
from asymcalc.pwfunc import PwFunction
from asymcalc.scaleset import AsymptoticSet
from asymcalc.signs import common_window

# -- reference: the step loops the grid arithmetic replaced ---------------


def _ref_is_power(c0, sigma):
    if c0 == 1:
        return True
    while c0 < 1:
        if c0 == sigma:
            return True
        c0 /= sigma
        if c0 > 1:
            return False
    return False


def _ref_common_power(s1, s2):
    for total in range(2, 26):
        for m1 in range(1, total):
            m2 = total - m1
            if s1 ** m1 == s2 ** m2:
                return m1, m2
    raise IncommensurableRatio(f"no common ratio for {s1} and {s2}")


def _ref_align(sigma, c0, m):
    """The anchor lowered until it is a power of sigma^m."""
    t = 0
    while not _ref_is_power(c0, sigma ** m):
        c0 *= sigma
        t += 1
        if t > 64:
            raise IncommensurableRatio("anchor alignment failed")
    return c0


def _ref_lower_anchor_to(sigma, c0, new_c0):
    """The number of blocks from anchor c0 down to new_c0."""
    t, c = 0, c0
    while c > new_c0:
        c *= sigma
        t += 1
    if c != new_c0:
        raise IncommensurableRatio(
            f"cannot move anchor from {c0} to {new_c0}")
    return t


def _ref_unify(s1, c1, s2, c2):
    """(ratio, anchor) of the common grid."""
    if s1 != s2:
        m1, m2 = _ref_common_power(s1, s2)
        c1 = _ref_align(s1, c1, m1)
        c2 = _ref_align(s2, c2, m2)
        s1 = s2 = s1 ** m1
    c = max(c1, c2)
    c *= s1 ** _ref_lower_anchor_to(s1, c, min(c1, c2))
    return s1, c


_BASES = (Q(1, 2), Q(2, 3), Q(3, 5), Q(1, 6))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_BASES), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 4), st.integers(0, 4), st.integers(1, 2))
def test_unify_matches_reference(base, a, b, ta, tb, D):
    s1, s2 = base ** a, base ** b
    tau, c0 = _ref_unify(s1, s1 ** ta, s2, s2 ** tb)
    want = Grid.of(tau, c0, D)
    x = PwFunction.upower(1, s1, D).lower_anchor(ta)
    y = PwFunction.const(3, s2, D).lower_anchor(tb)
    xu, yu = unify(x, y)
    assert xu.grid == yu.grid == want
    assert xu.equals(x) and yu.equals(y)
    S = AsymptoticSet.orbit_interval(s1 + (1 - s1) / 3, 1, s1, D=D)
    T = AsymptoticSet.full(s2, D).lower_anchor(tb)
    Su, Tu = unify(S.lower_anchor(ta), T)
    assert Su.grid == Tu.grid == want
    assert Su.set_eq(S) and Tu.set_eq(T)


_ratios = st.tuples(st.integers(1, 40), st.integers(2, 40)).filter(
    lambda t: t[0] < t[1]).map(lambda t: Q(*t))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ratios, st.tuples(st.sampled_from(_BASES),
                                    st.integers(1, 12)).map(
                                        lambda t: t[0] ** t[1])),
       st.one_of(_ratios, st.tuples(st.sampled_from(_BASES),
                                    st.integers(1, 12)).map(
                                        lambda t: t[0] ** t[1])))
def test_common_ratio_matches_reference(s1, s2):
    try:
        want = _ref_common_power(s1, s2)
    except IncommensurableRatio:
        want = None
    try:
        got = Grid.of(s1).common_ratio(Grid.of(s2))
    except IncommensurableRatio:
        got = None
    if want is not None:
        assert got == want
    elif got is not None:
        m1, m2 = got
        assert s1 ** m1 == s2 ** m2 and m1 + m2 > 25


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_BASES), st.integers(0, 8), st.integers(0, 12),
       st.sampled_from([Q(1), Q(5, 7), Q(2, 3) ** 3]))
def test_steps_to_matches_reference(sg, j, n, f):
    target = sg ** n * f
    g = Grid(sg, j)
    try:
        want = _ref_lower_anchor_to(sg, g.c0, target)
    except IncommensurableRatio:
        with pytest.raises(IncommensurableRatio):
            g.steps_to(target)
    else:
        assert g.steps_to(target) == want
        assert g.lower(want).c0 == target


def test_least_common_ratio_beyond_small_exponents():
    # sigma^13 and sigma^14 meet only on sigma^182 (m1 + m2 = 27)
    s1, s2 = Q(1, 2) ** 13, Q(1, 2) ** 14
    assert Grid.of(s1).common_ratio(Grid.of(s2)) == (14, 13)
    U = AsymptoticSet.full(s1).union(AsymptoticSet.full(s2))
    assert U.sigma == Q(1, 2) ** 182
    assert U.set_eq(AsymptoticSet.full(Q(1, 2)))
    x, y = PwFunction.const(1, s1), PwFunction.upower(1, s2)
    a, b = unify(x, y)
    assert a.grid == b.grid == Grid(Q(1, 2) ** 182)
    assert a.equals(x) and b.equals(y)


def test_independent_ratios_raise():
    with pytest.raises(IncommensurableRatio):
        Grid.of(Q(1, 2)).common_ratio(Grid.of(Q(1, 3)))
    with pytest.raises(IncommensurableRatio):
        AsymptoticSet.full(Q(2, 3)).union(AsymptoticSet.full(Q(4, 5)))


def test_refinement_mismatch_is_a_grid_mismatch():
    x = PwFunction.upower(1, Q(1, 2), D=2)
    S = AsymptoticSet.full(Q(1, 2))
    with pytest.raises(GridMismatch):
        common_window(x, S)
    with pytest.raises(GridMismatch):
        unify(x, PwFunction.upower(1, Q(1, 2)))
    with pytest.raises(GridMismatch):
        unify(S, AsymptoticSet.full(Q(1, 2), D=2))


def test_coarsen_lowers_anchor_to_a_coarse_power():
    g = Grid(Q(1, 2), 5)
    assert g.coarsen(3) == (1, Grid(Q(1, 8), 2))
    assert g.coarsen(5) == (0, Grid(Q(1, 32), 1))


def test_grid_of_validates():
    assert Grid.of(Q(1, 3), Q(1, 27), 2) == Grid(Q(1, 3), 3, 2)
    with pytest.raises(IncommensurableRatio):
        Grid.of(Q(1, 3), Q(1, 9) * Q(1, 2))
    with pytest.raises(IncommensurableRatio):
        Grid.of(Q(1, 3), Q(3))
    with pytest.raises(ValueError):
        Grid.of(Q(3, 2))
    with pytest.raises(ValueError):
        Grid.of(Q(1, 2), D=0)


def _ref_block_coord(g, u):
    """Block k and coordinate w of u, by stepping down from the anchor."""
    k, top = 0, g.c0
    while u <= top * g.sigma:
        k, top = k + 1, top * g.sigma
    return k, u / top


@pytest.mark.parametrize("sigma", [Q(1, 2), Q(2, 3), Q(3, 7), Q(1, 10),
                                   Q(9, 10)])
def test_block_coord_matches_reference(sigma):
    """Points at, just above and just below the block edges, where the
    float estimate of the block can be one off either way: on sigma = 1/2,
    u = (1/2)(1 + 2^-60) lies in block 0, while the estimate says 1."""
    eps = Q(1, 2 ** 60)
    for j in (0, 2):
        g = Grid(sigma, j)
        for k in (0, 1, 5, 40):
            top = sigma ** k * g.c0
            for u in (top, top * (1 - eps), top * sigma * (1 + eps),
                      top * (1 + sigma) / 2):
                assert g.block_coord(u) == _ref_block_coord(g, u), (g, u)


def test_dict_roundtrip():
    g = Grid(Q(2, 3), 4, 3)
    d = g.to_dict()
    assert d == {"D": 3, "sigma": "2/3", "anchor": "16/81"}
    assert Grid.from_dict(d) == g
