from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcalc.errors import ContinuityViolation, ZeroDenominator
from asymcalc.ivset import IvSet
from asymcalc.polytools import poly
from asymcalc.pwfunc import PwFunction
from asymcalc.window import Piecewise, Seg


def test_continuity_enforced():
    with pytest.raises(ContinuityViolation):
        Piecewise([Seg(0, 1, (0,)), Seg(1, 2, (1,))])


def test_denominator_roots_rejected():
    # den = w - 3/4 vanishes inside the segment
    with pytest.raises(ZeroDenominator):
        Seg(Q(1, 2), 1, (1,), (Q(-3, 4), 1))


def test_trailing_zero_coefficients_are_trimmed():
    assert Seg(Q(1, 2), 1, (0,)).is_zero()
    assert Seg(Q(1, 2), 1, (0,)) == Seg(Q(1, 2), 1, ())


def _element_record(num, den):
    return {"sigma": "1/2", "comps": [{"s": 0, "r": 0, "g": [
        {"lo": "1/2", "hi": "1", "num": num, "den": den}]}]}


def test_from_dict_trims_zero_coefficients():
    x = PwFunction.from_dict(_element_record(["0"], ["1"]))
    assert x.is_zero() and x.valuation() is None
    y = PwFunction.from_dict(_element_record(["1"], ["2", "0"]))
    assert y.equals(PwFunction.const(Q(1, 2)))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        PwFunction.from_dict(_element_record(["1"], ["0"]))
    with pytest.raises(ZeroDenominator):
        Seg(Q(1, 2), 1, (), (0, 0))


def test_linear_interp_eval():
    f = Piecewise.linear_interp([(0, 0), (Q(1, 2), 1), (1, 0)])
    assert f.eval(Q(1, 4)) == Q(1, 2)
    assert f.eval(Q(1, 2)) == 1
    assert f.eval(Q(7, 8)) == Q(1, 4)


def _ref_linear_interp(points):
    """Reference: each node segment through the validating `Seg(...)`."""
    pts = [(Q(w), Q(v)) for w, v in points]
    segs = []
    for (w0, v0), (w1, v1) in zip(pts, pts[1:]):
        slope = (v1 - v0) / (w1 - w0)
        segs.append(Seg(w0, w1, poly(v0 - slope * w0, slope)))
    return Piecewise.on(segs)


_nodes = st.lists(st.fractions(-4, 4, max_denominator=12), min_size=2,
                  max_size=6, unique=True).map(sorted)
_values = st.fractions(-3, 3, max_denominator=9) | st.just(Q(0))


@settings(max_examples=150, deadline=None)
@given(_nodes, st.data())
def test_linear_interp_matches_validated_segments(ws, data):
    vs = data.draw(st.lists(_values, min_size=len(ws), max_size=len(ws)))
    assert Piecewise.linear_interp(list(zip(ws, vs))).segs == \
        _ref_linear_interp(list(zip(ws, vs))).segs


@pytest.mark.parametrize("pts", [
    [(0, 1), (Q(1, 2), 1), (1, 3)],                   # a zero slope
    [(0, 0), (Q(1, 3), 0), (1, 0)],                   # zero lines only
    [(Q(1, 2), 0), (Q(3, 4), 0), (1, 2)],             # a zero line, then up
    [(Q(1, 2), Q(-3, 7)), (Q(5, 8), -1), (1, Q(2, 3))],  # negative values
    [(Q(-1, 3), Q(-5, 2)), (Q(1, 5), Q(-5, 2)), (Q(2, 3), Q(-1, 9))],
])
def test_linear_interp_segments_are_the_validated_ones(pts):
    f = Piecewise.linear_interp(pts)
    assert f.segs == _ref_linear_interp(pts).segs
    assert [f.eval(w) for w, _ in pts] == [Q(v) for _, v in pts]


def test_linear_interp_runs_no_segment_validation(monkeypatch):
    calls = []
    validate = Seg.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(Seg, "__post_init__", counted)
    Seg(Q(1, 2), 1, (1,))
    assert len(calls) == 1  # the counter sees a validating construction
    Piecewise.linear_interp([(Q(1, 2), Q(-1, 3)), (Q(3, 4), 0), (1, 0)])
    assert len(calls) == 1
    with pytest.raises(ValueError, match="strictly increase"):
        Piecewise.linear_interp([(Q(1, 2), 0), (Q(1, 2), 1)])
    with pytest.raises(ValueError, match="at least one segment"):
        Piecewise.linear_interp([(Q(1, 2), 0)])


def test_from_poly_eval():
    f = Piecewise.from_poly(Q(1, 2), 1, (0, 3, -6, 4))
    assert f.eval(Q(3, 4)) == Q(9, 16)
    assert f.eval(1) == 1
    assert f.eval(Q(1, 2)) == Q(1, 2)


def test_arithmetic():
    f = Piecewise.linear_interp([(0, 0), (1, 1)])
    g = Piecewise.const(0, 1, 2)
    assert f.add(g).eval(Q(1, 2)) == Q(5, 2)
    assert f.mul(f).eval(Q(1, 3)) == Q(1, 9)
    assert f.sub(f).is_zero()
    assert f.neg().eval(Q(1, 4)) == Q(-1, 4)
    assert f.scale(3).eval(Q(1, 3)) == 1


@st.composite
def profiles(draw):
    """Piecewise linear on [0, 1] with nodes on the 1/16 grid."""
    inner = draw(st.sets(st.integers(1, 15), max_size=6))
    ws = [0] + sorted(inner) + [16]
    return Piecewise.linear_interp(
        [(Q(w, 16), draw(st.integers(-3, 3))) for w in ws])


@settings(max_examples=80, deadline=None)
@given(profiles(), profiles())
def test_cells_cut_at_every_breakpoint_of_both(f, g):
    """The merge walk gives the cells of the sorted union of breakpoints,
    each with the segments of f and g that hold it."""
    cuts = sorted(set(f.breakpoints()) | set(g.breakpoints()))
    cells = list(f.cells(g))
    assert [(a, b) for a, b, _, _ in cells] == list(zip(cuts, cuts[1:]))
    for a, b, s, t in cells:
        assert s in f.segs and s.lo <= a and b <= s.hi
        assert t in g.segs and t.lo <= a and b <= t.hi
    for w in cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]:
        assert f.mul(g).eval(w) == f.eval(w) * g.eval(w)
        assert f.sub(g).eval(w) == f.eval(w) - g.eval(w)


def test_flat_zero_and_isolated_zeros():
    f = Piecewise.linear_interp([(0, 0), (Q(1, 4), 0), (Q(1, 2), 1), (1, 0)])
    flat = f.flat_zero()
    assert flat.contains(Q(1, 8))
    assert not flat.contains(Q(1, 2))
    assert f.isolated_zeros() == [1]


def test_quadratic_isolated_zero():
    # 2w^2 - 1 has the irrational zero sqrt(1/2) in [1/2, 1]
    f = Piecewise.from_poly(Q(1, 2), 1, (-1, 0, 2))
    zs = f.isolated_zeros()
    assert len(zs) == 1
    z = zs[0]
    assert not isinstance(z, Q)


def test_restrict_and_concat():
    f = Piecewise.linear_interp([(0, 0), (1, 2)])
    r = f.restrict(Q(1, 4), Q(3, 4))
    assert r.lo == Q(1, 4) and r.hi == Q(3, 4)
    assert r.eval(Q(1, 2)) == 1


def test_nonneg_on_all():
    f = Piecewise.linear_interp([(0, 0), (1, 1)])
    assert f.nonneg_on_all()
    assert not f.sub(Piecewise.const(0, 1, 1)).nonneg_on_all()


def _ref_eval(f, w):
    """Reference: the linear scan over the segments that `Piecewise.eval`
    replaced, first segment holding w."""
    w = Q(w)
    for s in f.segs:
        if s.lo <= w <= s.hi:
            return s.val(w)
    raise ValueError(f"{w} outside [{f.lo}, {f.hi}]")


@settings(max_examples=80, deadline=None)
@given(profiles(), profiles(), st.lists(st.fractions(0, 1), max_size=6))
def test_eval_by_bisection_matches_a_linear_scan(f, g, ws):
    """At every breakpoint, both ends, the midpoints of the segments and
    random points, on linear and quadratic profiles."""
    for h in (f, f.mul(g)):
        cuts = h.breakpoints()
        assert cuts[0] == h.lo == 0 and cuts[-1] == h.hi == 1
        mids = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
        for w in cuts + mids + ws:
            assert h.eval(w) == _ref_eval(h, w), w
        assert h.eval(0) == h.eval(Q(0)) and h.eval(1) == h.eval(Q(1))
        for w in (Q(-1, 16), Q(17, 16)):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                h.eval(w)
