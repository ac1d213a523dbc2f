import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymcalc.errors import ContinuityViolation
from asymcalc.pwfunc import PwFunction, TailComponent, unify
from asymcalc.verify.corpus import random_element
from asymcalc.window import Piecewise

elements = st.integers(min_value=0, max_value=10 ** 6).map(
    lambda n: random_element(random.Random(n)))


def test_seam_rule_enforced():
    # r = 0 requires g(sigma) = sigma^s g(1)
    bad = Piecewise.from_poly(Q(1, 2), 1, (0, 0, 1))   # w^2
    with pytest.raises(ContinuityViolation):
        PwFunction(Q(1, 2), [TailComponent(0, 0, bad)])


def test_deep_profile_must_vanish_at_seams():
    ramp = Piecewise.linear_interp([(Q(1, 2), 0), (Q(1), 1)])
    with pytest.raises(ContinuityViolation):
        PwFunction(Q(1, 2), [TailComponent(0, 1, ramp)])


def test_eval_blocks(osc):
    # u = 3/16 sits two blocks down with window coordinate w = 3/4
    assert osc.eval(Q(3, 16)) == Q(9, 64)
    assert osc.eval(1) == 1
    assert osc.eval(Q(1, 2)) == Q(1, 2)


def test_upower_eval():
    rho = PwFunction.upower(1)
    for u in (Q(1), Q(5, 8), Q(3, 16), Q(1, 1024)):
        assert rho.eval(u) == u
    inv = PwFunction.upower(-2)
    assert inv.eval(Q(1, 8)) == 64


def test_valuation(rho, osc, negl, hat):
    assert rho.valuation() == 1
    assert osc.valuation() == 1
    assert negl.valuation() is None
    assert negl.is_negligible()
    assert hat.valuation() == 0


def test_add_mul_eval(hat, osc):
    s = hat.add(osc)
    p = hat.mul(osc)
    for u in (Q(3, 16), Q(5, 8), Q(1, 3)):
        assert s.eval(u) == hat.eval(u) + osc.eval(u)
        assert p.eval(u) == hat.eval(u) * osc.eval(u)


def test_equiv_mod_negligible(hat, negl):
    assert hat.add(negl).equiv(hat)
    assert not hat.add(negl).equals(hat)
    assert hat.sub(hat).is_zero()


def test_serialization_roundtrip(hat, osc, negl):
    for x in (hat, osc, negl):
        assert PwFunction.from_dict(x.to_dict()).equals(x)


def test_lower_anchor_preserves_values(osc):
    moved = osc.lower_anchor(2)
    assert moved.c0 == Q(1, 4)
    for u in (Q(3, 16), Q(1, 3), Q(7, 8), 1):
        assert moved.eval(u) == osc.eval(u)


def test_coarsen_preserves_values(osc):
    c = osc.coarsen(2)
    assert c.sigma == Q(1, 4)
    for u in (Q(3, 16), Q(1, 3), Q(7, 8), 1):
        assert c.eval(u) == osc.eval(u)


def test_unify_aligns_grids(osc):
    other = PwFunction.upower(1, Q(1, 4))
    a, b = unify(osc, other)
    assert a.sigma == b.sigma == Q(1, 4)
    assert a.eval(Q(3, 16)) == osc.eval(Q(3, 16))


def test_dominance_data(rho, negl):
    from asymcalc.pwfunc import dominance_data
    assert dominance_data(rho)[0][:2] == (0, 1)
    d = dominance_data(negl)
    assert d[0][0] == 1


@settings(max_examples=120, deadline=None)
@given(elements, elements, elements)
def test_ring_laws(a, b, c):
    u = Q(3, 16)
    lhs = a.mul(b.add(c))
    rhs = a.mul(b).add(a.mul(c))
    assert lhs.equals(rhs)
    assert a.add(b).equals(b.add(a))
    assert a.mul(b).eval(u) == a.eval(u) * b.eval(u)


@settings(max_examples=80, deadline=None)
@given(elements, elements)
def test_valuation_ultrametric(a, b):
    va, vb, vs = a.valuation(), b.valuation(), a.add(b).valuation()
    if vs is None:
        return
    bound = min(v for v in (va, vb) if v is not None)
    assert vs >= bound


_RATIOS = (Q(1, 2), Q(2, 3), Q(3, 7), Q(1, 10))
_fractions_in_0_1 = st.tuples(st.integers(1, 10 ** 6),
                              st.integers(1, 10 ** 6)).map(
    lambda t: Q(min(t), max(t)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_RATIOS), st.integers(0, 3), st.integers(0, 420),
       st.one_of(st.none(), st.just(Q(1)), _fractions_in_0_1),
       _fractions_in_0_1)
@example(Q(1, 10), 2, 400, Q(1), Q(1))
@example(Q(3, 7), 0, 0, Q(1), Q(1))
@example(Q(2, 3), 1, 301, None, Q(1, 10 ** 200))
def test_block_of_brackets_u(sg, t, k, f, r):
    # u is a block edge sigma^k c0 (f = 1), a point inside block k, or a
    # random rational r c0 below the anchor (f = None)
    x = PwFunction.zero(sg).lower_anchor(t)
    c0 = sg ** t
    assert x.c0 == c0
    if f is None:
        u = r * c0
    else:
        u = sg ** k * c0 * (sg + (1 - sg) * f)
    kb, w = x.block_coord(u)
    assert x.block_of(u) == kb
    assert sg ** (kb + 1) * c0 < u <= sg ** kb * c0
    assert w == u / (sg ** kb * c0) and sg < w <= 1
    if f is not None:
        assert kb == k
