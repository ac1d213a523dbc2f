"""The trusted `on` paths against the validating constructors.

Every operation that builds through `Seg.on`, `Piecewise.on`,
`PwFunction.on`, `AsymptoticSet.on`, `Iv.on` or `IvSet.on` must return
exactly what the validating constructors give for the same parts:
rebuilding a result through `Seg(...)`, `Piecewise(...)`, `PwFunction(...)`,
`AsymptoticSet(...)` and `IvSet(...)` must neither raise nor change it.
"""

import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymcalc.ivset as ivset_mod
from asymcalc.errors import IncommensurableRatio, ParseError
from asymcalc.ivset import Iv, IvSet
from asymcalc.polytools import padd, pdeg, peval, pgcd, pmul, poly
from asymcalc.pwfunc import PwFunction, TailComponent
from asymcalc.scaleset import (AsymptoticSet, _metric_median,
                               circle_closure, fold_to_window, insert_between,
                               upto1, with_neighbours)
from asymcalc.signs import flat_common_zero, zero_set
from asymcalc.window import Piecewise, Seg

# denominators without a root on [1/4, 1]; (2, 3) is not monic
_DENS = [(1,), (1, 1), (2, 3, 1), (1, 0, 1), (2, 3), (-2, 1)]
_VALUES = [Q(0), Q(0), Q(1), Q(-1), Q(1, 2), Q(3, 4), Q(-5, 3)]


@st.composite
def profiles(draw, lo, hi, v_lo, v_hi):
    """A continuous profile on [lo, hi] with the given end values, whose
    segments are zero, polynomial or rational, built by the validating
    constructors."""
    n = draw(st.integers(1, 4))
    ks = sorted(draw(st.lists(st.integers(1, 31), min_size=n - 1,
                              max_size=n - 1, unique=True)))
    cuts = [lo] + [lo + (hi - lo) * k / 32 for k in ks] + [hi]
    vals = [v_lo] + [draw(st.sampled_from(_VALUES)) for _ in ks] + [v_hi]
    segs = []
    for a, b, va, vb in zip(cuts, cuts[1:], vals, vals[1:]):
        kind = draw(st.sampled_from(["zero", "poly", "rat"]))
        if kind == "zero" and va == vb == 0:
            segs.append(Seg(a, b, ()))
            continue
        num = poly(*draw(st.lists(st.sampled_from(_VALUES), max_size=3)))
        den = poly(*draw(st.sampled_from(_DENS))) if kind == "rat" \
            else poly(1)
        # add a line through the end values minus those of num/den
        ra = va - peval(num, a) / peval(den, a)
        rb = vb - peval(num, b) / peval(den, b)
        slope = (rb - ra) / (b - a)
        line = poly(ra - slope * a, slope)
        segs.append(Seg(a, b, padd(num, pmul(line, den)), den))
    return Piecewise(segs)


def rebuilt(f: Piecewise) -> Piecewise:
    return Piecewise([Seg(s.lo, s.hi, s.num, s.den) for s in f.segs])


def assert_valid_profile(f: Piecewise):
    g = rebuilt(f)
    assert g == f and g.segs == f.segs


@st.composite
def elements(draw, sigmas=(Q(1, 2), Q(1, 4))):
    """Elements with zero, polynomial and rational profiles, deep
    components and, on a lower anchor, a head."""
    sg = draw(st.sampled_from(sigmas))
    comps = []
    for s, r in sorted(draw(st.sets(st.tuples(st.integers(-2, 2),
                                              st.sampled_from([0, 0, 1, 2])),
                                    min_size=1, max_size=3))):
        v1 = Q(0) if r else draw(st.sampled_from(_VALUES[2:]))
        comps.append(TailComponent(
            s, r, draw(profiles(sg, Q(1), sg ** s * v1, v1))))
    j = draw(st.integers(0, 2))
    head = None
    if j:
        top = sum((c.g.eval(1) for c in comps), Q(0))
        head = draw(profiles(sg ** j, Q(1), top,
                             draw(st.sampled_from(_VALUES))))
    return PwFunction(sg, comps, head, sg ** j)


def assert_valid_element(x: PwFunction):
    head = rebuilt(x.head) if x.head is not None else None
    y = PwFunction(x.sigma, [TailComponent(c.s, c.r, rebuilt(c.g))
                             for c in x.comps], head, x.c0, x.D)
    assert (y.grid, y.comps, y.head) == (x.grid, x.comps, x.head)


@st.composite
def _ivs(draw, lo):
    """A union of up to three intervals inside (lo, 1]."""
    out = IvSet.empty()
    for _ in range(draw(st.integers(0, 3))):
        i, k = sorted(draw(st.lists(st.integers(0, 16), min_size=2,
                                    max_size=2)))
        a, b = lo + (1 - lo) * i / 16, lo + (1 - lo) * k / 16
        if i == 0 and k == 0:
            continue
        if a == b:
            out = out.union(IvSet.point(a))
        else:
            out = out.union(IvSet([Iv(a, b, i > 0 and draw(st.booleans()),
                                      draw(st.booleans()))]))
    return out


@st.composite
def asets(draw):
    sg = draw(st.sampled_from([Q(1, 2), Q(1, 4)]))
    j = draw(st.integers(0, 2))
    head = draw(_ivs(sg ** j)) if j else None
    return AsymptoticSet(sg, draw(_ivs(sg)), head, sg ** j)


def assert_valid_ivset(s: IvSet):
    """Fraction ends, and the sort-and-merge of `IvSet(...)` changes
    nothing."""
    assert type(s.ivs) is tuple
    assert all(type(iv.lo) is Q and type(iv.hi) is Q for iv in s.ivs)
    assert IvSet([Iv(iv.lo, iv.hi, iv.lc, iv.hc) for iv in s.ivs]) == s


def assert_valid_set(S: AsymptoticSet):
    T = AsymptoticSet(S.sigma, S.shape, S.head, S.c0, S.D)
    assert (T.grid, T.shape, T.head) == (S.grid, S.shape, S.head)
    assert_valid_ivset(S.shape)
    assert_valid_ivset(S.head)


# -- profiles -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(profiles(Q(1, 2), Q(1), Q(1, 2), Q(1)),
       profiles(Q(1, 2), Q(1), Q(0), Q(1, 3)),
       st.sampled_from([Q(0), Q(-1), Q(3, 2)]),
       st.integers(0, 15), st.integers(1, 16),
       st.sampled_from([(Q(1, 2), Q(1, 2)), (Q(2), Q(-1)), (Q(3), Q(-2))]))
def test_profile_operations_match_validating_path(f, g, c, i, k, ab):
    assert_valid_profile(f)
    for h in (f.neg(), f.scale(c), f.add(g), f.sub(g), f.mul(g),
              f.add(f.neg())):
        assert_valid_profile(h)
    if i < k:
        assert_valid_profile(f.restrict(Q(16 + i, 32), Q(16 + k, 32)))
    a, b = ab
    # the image denominator of w -> a*w + b has the leading coefficient a
    assert_valid_profile(f.affine_image(a, b))


def assert_canonical(f: Piecewise):
    """Every segment holds int coefficients in the canonical form: num and
    den coprime, content 1 over both, den with a positive leading
    coefficient, and ((), (1,)) for zero."""
    for s in f.segs:
        num, den = s.num, s.den
        assert all(type(c) is int for c in num + den)
        assert den and den[-1] > 0 and math.gcd(*num, *den) == 1
        assert pdeg(pgcd(num, den)) == 0 if num else den == (1,)


@settings(max_examples=150, deadline=None)
@given(profiles(Q(1, 2), Q(1), Q(1, 2), Q(1)),
       profiles(Q(1, 2), Q(1), Q(0), Q(1, 3)),
       st.sampled_from([Q(-1), Q(1, 2), Q(3, 2), Q(-2, 3), Q(6)]),
       st.integers(1, 15),
       st.sampled_from([(Q(1, 2), Q(1, 2)), (Q(2, 3), Q(1, 3)),
                        (Q(3, 4), Q(-5, 8))]))
def test_segments_are_canonical_integer_fractions(f, g, c, i, ab):
    m = Q(16 + i, 32)
    outs = [f, f.add(g), f.sub(g), f.mul(g), f.scale(c), f.restrict(m, 1),
            f.affine_image(*ab),
            Piecewise.concat([f.restrict(Q(1, 2), m), g.restrict(m, 1)
                              .add(Piecewise.const(m, 1, f.eval(m) -
                                                   g.eval(m)))])]
    for h in outs:
        assert_canonical(h)
        assert_valid_profile(h)


def test_sum_with_a_common_factor_is_reduced():
    # 1/(w+1) + 1/(w+1) = (2w+2)/(w+1)^2 before the gcd step
    f = Piecewise.from_poly(Q(1, 2), 1, (1,), (1, 1))
    s = f.add(f)
    assert s.segs == (Seg(Q(1, 2), Q(1), (Q(2),), (Q(1), Q(1))),)
    assert_valid_profile(s)
    assert_valid_profile(f.mul(Piecewise.from_poly(Q(1, 2), 1, (1, 1))))


def test_scale_by_zero_is_one_zero_segment():
    f = Piecewise.linear_interp([(Q(1, 2), 1), (Q(3, 4), 0), (1, 2)])
    z = f.scale(0)
    assert z.segs == Piecewise.zero(Q(1, 2), 1).segs
    assert z.segs == (Seg(Q(1, 2), Q(1), ()),)
    assert_valid_profile(z)


# -- elements -------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(elements(), elements(), st.sampled_from([Q(0), Q(-1), Q(2, 3)]),
       st.integers(0, 2), st.integers(1, 3))
def test_element_operations_match_validating_path(x, y, q, t, m):
    outs = [x.neg(), x.scale(q), x.lower_anchor(t), x.germ()]
    for op, arg in ((x.coarsen, m), (x.add, y), (x.sub, y), (x.mul, y)):
        try:
            outs.append(op(arg))
        except IncommensurableRatio:
            pass  # a deep weight that the coarser ratio cannot hold
    for z in outs:
        assert_valid_element(z)


# -- sets -----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(asets(), asets(), st.integers(0, 2), st.integers(1, 3))
def test_set_operations_match_validating_path(S, T, t, m):
    A, B = S.closure(), T.closure()
    for R in (S.union(T), S.intersect(T), S.complement(), A, S.interior(),
              S.lower_anchor(t), S.coarsen(m), _metric_median(A, B)):
        assert_valid_set(R)
    sg = S.sigma
    for s in (upto1(sg), circle_closure(S.shape, sg),
              fold_to_window(S.shape.scale(sg), sg)):
        assert_valid_ivset(s)


@settings(max_examples=100, deadline=None)
@given(elements())
def test_zero_sets_match_validating_path(x):
    for c in x.comps:
        assert_valid_ivset(c.g.flat_zero())
    assert_valid_ivset(flat_common_zero(x))
    assert_valid_ivset(zero_set(x)[0])


# -- the trusted operations make no validation ----------------------------


def test_trusted_operations_do_not_validate(monkeypatch, osc, hat, negl,
                                            A, B, P):
    calls = []

    def counting(cls, name):
        orig = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls.append(f"{cls.__name__}.{name}")
            return orig(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    w = osc.lower_anchor(2)
    x = w.add(negl)
    y = PwFunction(Q(1, 4), [TailComponent(
        1, 0, Piecewise.linear_interp([(Q(1, 4), Q(1, 4)), (1, 1)]))])
    S = AsymptoticSet.orbit_interval(Q(5, 16), Q(1, 2), sigma=Q(1, 4))
    f = hat.comps[0].g
    shapes = [X.shape for X in (A, B, P, S)] + [S.closure().shape,
                                                 IvSet.empty()]
    dom = Iv(Q(1, 4), 1, False, True)
    counting(Seg, "__post_init__")
    counting(PwFunction, "_validate")
    counting(AsymptoticSet, "__init__")
    counting(Iv, "__post_init__")
    counting(IvSet, "__init__")
    convert = ivset_mod.Q

    def converting(*args):
        calls.append("ivset.Q")
        return convert(*args)
    monkeypatch.setattr(ivset_mod, "Q", converting)
    insert_between(A, B)
    _metric_median(A.closure(), B.complement().closure())
    for X in (A, B, P, S, S.closure()):
        with_neighbours(X.closure().shape, X.sigma)
    S.lower_anchor(3), S.coarsen(3)
    for a in shapes:
        a.complement(dom), a.fat_part(), a.scale(Q(1, 2)), a.closure()
        a.scale(3), a.interior_rel(dom)
        for b in shapes:
            a.intersect(b), a.subset_of(b), a.union(b)
    f.neg(), f.scale(3), f.scale(0), f.restrict(Q(5, 8), Q(7, 8))
    f.add(f), f.mul(f)
    for a, b in ((x, hat), (w, y), (hat, y)):
        a.neg(), a.scale(2), a.add(b), a.mul(b)
    x.lower_anchor(2), x.coarsen(3), hat.coarsen(2), negl.coarsen(3)
    for T in (A, B.lower_anchor(1), P, S):
        A.closure(), T.complement(), A.union(T), A.intersect(T)
        T.interior(), T.is_closed(), T.closure().is_closed()
    assert calls == []


# -- from_dict keeps validating ---------------------------------------------


def _ivs_record(lo, hi):
    return [{"lo": lo, "hi": hi, "lc": True, "hc": True}]


def _pw_record(lo, hi, c="1"):
    return [{"lo": lo, "hi": hi, "num": [c], "den": ["1"]}]


@pytest.mark.parametrize("rec", [
    {"sigma": "1/2", "shape": _ivs_record("1/4", "3/4")},
    {"sigma": "1/2", "anchor": "1/2", "shape": [],
     "head": _ivs_record("1/4", "3/4")},
    {"sigma": "1/2", "shape": _ivs_record("1/0", "1")},
    {"sigma": "1/0", "shape": _ivs_record("3/4", "1")},
])
def test_set_from_dict_rejects_malformed_records(rec):
    with pytest.raises(ParseError):
        AsymptoticSet.from_dict(rec)


@pytest.mark.parametrize("rec", [
    {"sigma": "1/2", "comps": [{"s": 0, "r": 0, "g": _pw_record("0", "1")}]},
    {"sigma": "1/2", "anchor": "1/2",
     "comps": [{"s": 0, "r": 0, "g": _pw_record("1/2", "1")}],
     "head": _pw_record("1/4", "1")},
    {"sigma": "1/2", "comps": [{"s": 0, "r": 0,
                                "g": _pw_record("1/2", "1", "1/0")}]},
    {"sigma": "1/0", "comps": [{"s": 0, "r": 0,
                                "g": _pw_record("1/2", "1")}]},
])
def test_element_from_dict_rejects_malformed_records(rec):
    with pytest.raises(ParseError):
        PwFunction.from_dict(rec)


def test_intervals_and_segments_are_slotted():
    # intervals and segments are the most numerous values; neither the
    # validating nor the trusted construction leaves an instance dict
    a, b = Q(1, 2), Q(3, 4)
    built = [Iv(a, b, True, False), Iv.on(a, b, True, False),
             Seg(a, b, (Q(1), Q(2))), Seg.on(a, b, (Q(1), Q(2)), (Q(1),))]
    for obj in built:
        assert not hasattr(obj, "__dict__"), obj
    assert built[0] == built[1] and built[2] == built[3]
