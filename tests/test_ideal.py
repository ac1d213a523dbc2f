from fractions import Fraction as Q

import pytest

import asymcalc.ideal as ideal_mod
from asymcalc.errors import ImproperIdeal, SearchBoundExceeded
from asymcalc.genconst import GenConstant
from asymcalc.ideal import (FgIdeal, _slope_bound, annihilator_member,
                            closure_member, f_of_I_member, hb_construct,
                            ideal_member, pure_part_member, radical_member,
                            z_subset, zclosure_member, zpart_member)
from asymcalc.ivset import Iv, IvSet
from asymcalc.pwfunc import PwFunction, TailComponent
from asymcalc.scaleset import AsymptoticSet
from asymcalc.signs import NONNEG, POS, ZERO, eventual_sign_on
from asymcalc.verify import corpus_generate
from asymcalc.window import Piecewise


def _tent(lo, mid, hi):
    prof = Piecewise.linear_interp(
        [(Q(1, 2), 0), (lo, 0), (mid, 1), (hi, 0), (Q(1), 0)])
    return PwFunction(Q(1, 2), [TailComponent(0, 0, prof)])


def test_proper_and_improper(hat, rho):
    assert FgIdeal([hat]).is_proper()
    assert not FgIdeal([rho]).is_proper()
    assert not FgIdeal([hat, rho]).is_proper()


def test_ideal_member(hat, hat2, osc):
    I = FgIdeal([hat])
    ok, n = ideal_member(hat.mul(PwFunction.upower(5)), I)
    assert ok
    assert ideal_member(PwFunction.const(1), I) == (False, None)
    assert ideal_member(hat2, I) == (False, None)
    assert ideal_member(hat.mul(osc), I)[0]


def test_z_subset(hat, hat2, osc, negl):
    assert z_subset(hat, hat)
    assert z_subset(hat.mul(hat), hat)
    assert z_subset(osc, hat)          # empty zero set is inside anything
    assert not z_subset(hat, osc)
    assert z_subset(hat, negl)         # negligible target accepts all
    assert not z_subset(negl, hat)


def test_f_of_I_member(hat, P, full):
    I = FgIdeal([hat])
    # a closed neighborhood of the zero set of hat (seam-wrapped)
    nbhd = AsymptoticSet(Q(1, 2), IvSet([
        Iv(Q(1, 2), Q(21, 32), False, True), Iv(Q(27, 32), 1, True, True)]))
    assert f_of_I_member(nbhd, I)
    assert not f_of_I_member(P, I)
    assert f_of_I_member(full, I)


def test_radical_member(hat, osc):
    I2 = FgIdeal([hat.mul(hat)])
    ok, m, n = radical_member(hat, I2)
    assert ok and m == 2
    assert not radical_member(PwFunction.const(1), FgIdeal([hat]))[0]
    assert not radical_member(osc, FgIdeal([hat]))[0]


def test_pure_part_member(hat):
    I = FgIdeal([hat])
    assert pure_part_member(hat, I) == (False, None)
    # supported strictly where hat is invertible, away from its zero set
    inside = _tent(Q(21, 32), Q(11, 16), Q(23, 32))
    ok, wit = pure_part_member(inside, I)
    assert ok
    if wit is not None:
        x = GenConstant(inside)
        assert (x * wit).rep.equiv(x.rep)
        assert ideal_member(wit.rep, I)[0]
    assert zpart_member(inside, I)
    assert not zpart_member(hat, I)


def test_pure_rejects_improper(rho, hat):
    with pytest.raises(ImproperIdeal):
        pure_part_member(hat, FgIdeal([rho]))


def test_zclosure_equals_closure(hat, hat2, osc, negl, rho):
    I = FgIdeal([hat])
    for x in (hat, hat2, osc, negl, hat.mul(osc)):
        assert zclosure_member(x, I) == closure_member(x, I)
    assert closure_member(negl, I)


def test_annihilator(hat):
    far = _tent(Q(29, 32), Q(15, 16), Q(31, 32))
    I = FgIdeal([hat])
    assert annihilator_member(far, I)
    assert not annihilator_member(hat, I)


def test_hb_construct():
    J, x, y = hb_construct()
    assert J.is_proper()
    assert not x.is_negligible() and not y.is_negligible()
    assert (x * y).rep.is_zero()
    assert annihilator_member(y, J)
    # the dichotomy instance: no nontrivial idempotent splits this pair
    from asymcalc.genconst import idempotent_class
    assert idempotent_class(x.rep) is None


# -- the least witness against the linear scan it replaced ---------------


def _dominated(x, I, N):
    """Whether x^2 <= eps^(-N) * sos at all small enough scales."""
    sos = I.sos.rep
    z = sos.mul(sos.eps_power(-N)).sub(x.mul(x))
    return eventual_sign_on(z, I.full_set()) in (POS, NONNEG, ZERO)


def _scan_member(x, I):
    """Reference: try N = 0, 1, ... up to the slope bound."""
    if x.is_negligible():
        return (True, 0)
    if not z_subset(I.sos, x):
        return (False, None)
    for N in range(_slope_bound(x, I.sos.rep) + 1):
        if _dominated(x, I, N):
            return (True, N)
    return (False, None)


def _scan_radical(x, I, mmax):
    """Reference: the linear scan over powers, each by _scan_member."""
    if not z_subset(I.sos, x):
        return (False, None, None)
    p = x
    for m in range(1, mmax + 1):
        ok, N = _scan_member(p, I)
        if ok:
            return (True, m, N)
        p = p.mul(x)
    raise SearchBoundExceeded("no power entered the ideal")


def _fixture_cases(hat, hat2, osc, negl, rho):
    one = PwFunction.const(1)
    elems = [hat, hat2, osc, negl, rho, one, hat.mul(osc),
             hat.mul(PwFunction.upower(5)), hat.add(rho),
             hat.add(rho.scale(Q(1, 2)))]
    ideals = [FgIdeal([hat]), FgIdeal([hat.mul(hat)]), FgIdeal([osc]),
              FgIdeal([hat, rho.mul(rho)]), FgIdeal([hat2, hat.mul(rho)])]
    return elems, ideals


# Corpus seeds, with the powers taken, that give witnesses strictly above
# the valuation floor (11, 15) and non-members that pass the
# zero-structure test (16).
_CORPUS = ((11, (1, 2)), (15, (1, 2)), (16, (1,)))
# z_N for this seed-16 element, a generator of its ideal, is classified
# POS at N = 0, where x^2 cancels against sos, and MIXED for N >= 1.
_CANCELLING = (16, 1, 4, 1)


def _member_cases(hat, hat2, osc, negl, rho):
    """(label, x^m, I) over fixtures with m = 1, 2, 3 and over _CORPUS."""
    elems, ideals = _fixture_cases(hat, hat2, osc, negl, rho)
    for i, I in enumerate(ideals):
        for j, x in enumerate(elems):
            for m in (1, 2, 3):
                yield ("fixture", i, j, m), x.pow(m), I
    for seed, powers in _CORPUS:
        c = corpus_generate(seed, 6)
        for i, I in enumerate(c.ideals):
            for j, x in enumerate(c.elements):
                for m in powers:
                    yield (seed, i, j, m), x.pow(m), I


def test_ideal_member_matches_linear_scan(hat, hat2, osc, negl, rho):
    above_floor = 0
    for label, x, I in _member_cases(hat, hat2, osc, negl, rho):
        got = ideal_member(x, I)
        assert got == _scan_member(x, I), label
        if got[0] and not x.is_negligible() and \
                got[1] > ideal_mod._valuation_floor(x, I.sos.rep):
            above_floor += 1
    assert above_floor >= 10


def test_radical_member_matches_linear_scan(hat, hat2, osc, negl, rho):
    elems, ideals = _fixture_cases(hat, hat2, osc, negl, rho)
    powers = set()
    for I in ideals:
        for x in elems:
            try:
                want = _scan_radical(x, I, 3)
            except SearchBoundExceeded:
                with pytest.raises(SearchBoundExceeded):
                    radical_member(x, I, 3)
                continue
            assert radical_member(x, I, 3) == want
            powers.add(want[1])
    assert {1, 2}.issubset(powers)


def test_domination_is_monotone_in_N(hat, hat2, osc, negl, rho):
    for label, x, I in _member_cases(hat, hat2, osc, negl, rho):
        if label == _CANCELLING or x.is_negligible() or \
                not z_subset(I.sos, x):
            continue
        holds = [_dominated(x, I, N)
                 for N in range(_slope_bound(x, I.sos.rep) + 1)]
        assert holds == sorted(holds), label


def _cancelling_case():
    seed, i, j, _ = _CANCELLING
    c = corpus_generate(seed, 6)
    return c.elements[j], c.ideals[i]


@pytest.mark.xfail(strict=True, reason="the sign engine reports MIXED for "
                   "z_N above a floor where x^2 cancels against sos")
def test_domination_is_monotone_when_x2_cancels():
    x, I = _cancelling_case()
    holds = [_dominated(x, I, N)
             for N in range(_slope_bound(x, I.sos.rep) + 1)]
    assert holds == sorted(holds)


def test_generator_member_decided_at_floor():
    x, I = _cancelling_case()
    assert any(g.rep.equiv(x) for g in I.gens)
    assert ideal_member(x, I) == _scan_member(x, I) == (True, 0)


def test_nonmember_costs_two_sign_decisions(hat, monkeypatch):
    calls = []

    def counted(z, S):
        calls.append(z)
        return eventual_sign_on(z, S)

    monkeypatch.setattr(ideal_mod, "eventual_sign_on", counted)
    I = FgIdeal([hat.mul(hat)])
    assert z_subset(I.sos, hat)
    assert ideal_member(hat, I) == (False, None)
    # the valuation floor, then the slope bound; the scan made five
    assert len(calls) == 2
