import argparse
import importlib.util
import json
import os
import random
from fractions import Fraction as Q
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import profile_points

import asymcalc.ideal as ideal_mod
import asymcalc.signs as signs_mod
from asymcalc.afilter import Closure, OfIdeal, filter_member
from asymcalc.errors import (ImproperIdeal, PreconditionViolated,
                             RepresentabilityError, SearchBoundExceeded)
from asymcalc.genconst import GenConstant, _bisect, _rep, urysohn
from asymcalc.grid import unify
from asymcalc.ideal import (FgIdeal, _slope_bound, annihilator_member,
                            closure_member, f_of_I_member, hb_construct,
                            ideal_member, pure_part_member, radical_member,
                            z_subset, zclosure_member, zpart_member)
from asymcalc.ivset import Iv, IvSet
from asymcalc.polytools import (RootPt, isolate_roots, pdeg, poly, pt_cmp,
                                squarefree)
from asymcalc.pwfunc import PwFunction, TailComponent
from asymcalc.scaleset import AsymptoticSet, circle_closure, distance_profile
from asymcalc.signs import (NONNEG, POS, ZERO, BadPt, _bad_hits,
                            bad_structure, common_window, eventual_sign_on,
                            flat_common_zero, point_sign,
                            restr_invertible_bool, zero_set)
from asymcalc.verify import corpus_generate
from asymcalc.verify.corpus import tent
from asymcalc.window import Piecewise

_TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "query_outputs.py")
_spec = importlib.util.spec_from_file_location("query_outputs", _TOOL)
query_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(query_outputs)


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


def test_repeated_filter_question_makes_no_sign_decision(hat, P, full,
                                                          monkeypatch):
    """The ideal keeps each set's answer: an equal set asked again runs
    no restr_invertible_bool, and a fresh ideal of the same generators
    gives the same answers."""
    calls = []
    decide = ideal_mod.restr_invertible_bool

    def counted(x, S):
        calls.append(S)
        return decide(x, S)

    monkeypatch.setattr(ideal_mod, "restr_invertible_bool", counted)
    I = FgIdeal([hat])
    nbhd = AsymptoticSet(Q(1, 2), IvSet([
        Iv(Q(1, 2), Q(21, 32), False, True), Iv(Q(27, 32), 1, True, True)]))
    sets = [nbhd, P, full,
            AsymptoticSet.orbit_interval(Q(5, 8), Q(3, 4), lc=False)]
    first = [f_of_I_member(S, I) for S in sets]
    assert first[:3] == [True, False, True]
    n = len(calls)
    assert n
    copies = [AsymptoticSet.on(S.grid, IvSet(S.shape.ivs), IvSet(S.head.ivs))
              for S in sets]
    assert [f_of_I_member(S, I) for S in copies] == first
    assert len(calls) == n
    assert [f_of_I_member(S, FgIdeal(I.gens)) for S in sets] == first
    assert len(calls) == 2 * n


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
    inside = tent(Q(21, 32), Q(11, 16), Q(23, 32))
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
    far = tent(Q(29, 32), Q(15, 16), Q(31, 32))
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
        return signs_mod.eventually_nonneg(z, S)

    monkeypatch.setattr(ideal_mod, "eventually_nonneg", counted)
    I = FgIdeal([hat.mul(hat)])
    assert z_subset(I.sos, hat)
    assert ideal_member(hat, I) == (False, None)
    # the valuation floor, then the slope bound; the scan made five
    assert len(calls) == 2


# -- kept answers -----------------------------------------------------------


def _copy(x: PwFunction) -> PwFunction:
    """The same function as a distinct object that keeps nothing yet."""
    return PwFunction.on(x.grid, x.comps, x.head)


def _count_sign_calls(monkeypatch):
    calls = []

    def counted(z, S):
        calls.append(z)
        return signs_mod.eventually_nonneg(z, S)

    monkeypatch.setattr(ideal_mod, "eventually_nonneg", counted)
    return calls


def test_repeated_member_makes_no_sign_decision(hat, osc, monkeypatch):
    calls = _count_sign_calls(monkeypatch)
    I = FgIdeal([hat.mul(hat), osc.mul(hat)])
    first = ideal_member(hat, I)
    assert calls
    n = len(calls)
    assert ideal_member(_copy(hat), I) == first
    assert len(calls) == n


def test_radical_member_reuses_the_first_power(hat, monkeypatch):
    calls = _count_sign_calls(monkeypatch)
    I = FgIdeal([hat])
    ok, N = ideal_member(hat, I)
    assert ok and calls
    n = len(calls)
    assert radical_member(hat, I) == (True, 1, N)
    assert len(calls) == n


def test_zero_set_is_built_once_per_element(hat, monkeypatch):
    calls = []
    walk = signs_mod._candidate_points

    def counted(x):
        calls.append(x)
        return walk(x)

    monkeypatch.setattr(signs_mod, "_candidate_points", counted)
    first = zero_set(hat)
    assert zero_set(hat) is first
    assert calls == [hat]
    I = FgIdeal([hat.mul(hat)])
    # two questions, one walk for each element they read
    assert zclosure_member(hat, I) and zclosure_member(hat, I)
    assert calls == [hat, I.sos_germ]
    other = _copy(hat)
    assert zero_set(other) == first
    assert calls == [hat, I.sos_germ, other]


def test_radical_member_needs_a_power(hat, negl):
    I = FgIdeal([hat])
    for x in (hat, negl):
        for mmax in (0, -1):
            with pytest.raises(PreconditionViolated):
                radical_member(x, I, mmax)
    assert radical_member(negl, I, 1) == (True, 1, 0)


_BAND_A = (Q(9, 16), Q(5, 8), Q(11, 16))
_BAND_B = (Q(3, 4), Q(13, 16), Q(7, 8))


def _band_ideal(s):
    """The ideal of a tent on the window band A and eps^s times a tent on
    the band B."""
    return FgIdeal([tent(*_BAND_A), tent(*_BAND_B, s)])


def _depth_pair():
    """Two elements that differ only in the depth of their component on
    the band B.  Against `_band_ideal(s)`, the live one needs N = 4 + 2s,
    the deep one N = 6, which the band A needs."""
    return [tent(*_BAND_A, -3).add(tent(*_BAND_B, -2, r)) for r in (0, 1)]


def test_kept_answers_equal_fresh_ones():
    """Every query of the seed-1 ideal workload, answered through its
    shared pool, where ideals and elements keep their answers, equals the
    answer of a fresh ideal of the same generators on a fresh copy of the
    element, which keep nothing yet.  The depth pair follows, asked of two
    ideals: its two keys differ only in the depth of one component, and
    each element has a different answer in each ideal."""
    warm = [json.loads(line) for line in query_outputs.query_lines("ideal", 1)]
    assert len(warm) == 1020
    run = query_outputs._bench()
    import harness

    wl, items, _ = run.setup(argparse.Namespace(
        workload="ideal", seed=1, seconds=query_outputs.SECONDS))
    cold = []

    class Log(harness.Recorder):
        def call(self, kind, fn, *args):
            out = super().call(kind, fn, *args)
            cold.append({"item": self.item, "kind": kind,
                         "status": out.status,
                         "value": query_outputs.canonical(out.value)})
            return out

    rec = Log()
    for i, item in enumerate(items):
        a, I = item.args
        if isinstance(a, PwFunction):
            a = _copy(a)
        rec.begin(i)
        wl.run(type(item)(item.spec, (a, FgIdeal(I.gens))), rec)
    assert cold == warm

    xs = _depth_pair()
    want = [[(True, 14), (True, 6)], [(True, 16), (True, 6)]]
    Is = [_band_ideal(5), _band_ideal(6)]
    assert [[ideal_member(x, I) for x in xs] for I in Is] == want
    assert [[radical_member(x, I, 2)[1:] for x in xs] for I in Is] == \
        [[(1, N) for _, N in row] for row in want]
    assert [[ideal_member(_copy(x), FgIdeal(I.gens)) for x in xs]
            for I in Is] == want


# -- the germ path against the parent's full-representative path ---------


def _pt_in_ivset(p, s: IvSet) -> bool:
    """Reference: membership of a point through `pt_cmp`, as the sign
    engine read it before points compared like numbers."""
    if isinstance(p, Q):
        return s.contains(p)
    for iv in s.ivs:
        cl = pt_cmp(p, iv.lo)
        ch = pt_cmp(p, iv.hi)
        if (cl > 0 or (cl == 0 and iv.lc)) and (ch < 0 or (ch == 0 and iv.hc)):
            return True
    return False


def _ref_zero_structure(x):
    """Reference: the flat common zero of x and the points outside it
    where the value pattern is 0 or deep, by a walk over every breakpoint
    and root of the r = 0 profiles."""
    flat = flat_common_zero(x)
    pts = []
    for p in profile_points([c.g for c in x.comps if c.r == 0]):
        sg, deep = point_sign(x, p)
        if not flat.contains(p) and (sg == 0 or deep):
            pts.append(p)
    return flat, pts


def _ref_z_subset(a, b):
    """Reference: zero structures of the full representatives, unified
    with their heads."""
    ar, br = unify(_rep(a), _rep(b))
    if br.is_negligible():
        return True
    if ar.is_negligible():
        return False
    fa, pa = _ref_zero_structure(ar)
    fb, pb = _ref_zero_structure(br)
    if not fa.subset_of(fb):
        return False
    return all(_pt_in_ivset(p, fb) or any(pt_cmp(p, q) == 0 for q in pb)
               for p in pa)


def _ref_domination_exponent(xr, I):
    """Reference: every z_N built from the full representatives of sos and
    x^2, each step re-unifying anchors and heads."""
    sos = I.sos.rep
    full = I.full_set()
    xr2 = xr.mul(xr)

    def holds(N):
        z = sos.mul(sos.eps_power(-N)).sub(xr2)
        return z if eventual_sign_on(z, full) in (POS, NONNEG, ZERO) \
            else None

    lo = ideal_mod._valuation_floor(xr, sos)
    hi = _slope_bound(xr, sos)
    if holds(lo) is not None:
        return lo
    if holds(hi) is None:
        return None
    return _bisect(holds, lo, hi)[0]


def _ref_member(x, I):
    xr = _rep(x)
    if xr.is_negligible():
        return (True, 0)
    if not _ref_z_subset(I.sos, xr):
        return (False, None)
    N = _ref_domination_exponent(xr, I)
    return (False, None) if N is None else (True, N)


def _ref_radical(x, I, mmax):
    if not _ref_z_subset(I.sos, x):
        return (False, None, None)
    xr = _rep(x)
    if xr.is_negligible():
        return (True, 1, 0)
    p = xr
    for m in range(1, mmax + 1):
        N = _ref_domination_exponent(p, I)
        if N is not None:
            return (True, m, N)
        p = p.mul(xr)
    raise SearchBoundExceeded("no power entered the ideal")


def _ref_pure(x, I):
    """Reference verdict of pure_part_member: the window test on the full
    representatives, unified with the head of sos."""
    if restr_invertible_bool(I.sos.rep, I.full_set()):
        raise ImproperIdeal("improper")
    xr = _rep(x)
    if xr.is_negligible():
        return True
    if I.is_zero():
        return False
    xu, sos = unify(xr, I.sos.rep)
    flat, pts = _ref_zero_structure(I.sos.rep)
    Z = flat.closure()
    for p in pts:
        Z = Z.union(IvSet.point(p))
    sg = I.sos.rep.sigma
    Zset = AsymptoticSet(sg, circle_closure(Z, sg).intersect(
        IvSet([Iv(sg, 1, False, True)])), D=sos.D)
    win = IvSet([Iv(xu.sigma, 1, False, True)])
    Xflat = AsymptoticSet(xu.sigma, flat_common_zero(xu).intersect(win),
                          D=xu.D)
    return Zset.subset_of(Xflat.interior())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ImproperIdeal, SearchBoundExceeded) as e:
        return type(e).__name__


_QUARTER = Q(1, 4)


def _quarter_element():
    """An element on the ratio 1/4 that vanishes on the window zeros of
    the fixture hat but not on their copies one half-block down, so that
    its zero structure must be compared on the common ratio 1/4."""
    prof = Piecewise.linear_interp(
        [(_QUARTER, 0), (Q(3, 8), 1), (Q(1, 2), 0), (Q(5, 8), 0),
         (Q(3, 4), 1), (Q(7, 8), 0), (Q(1), 0)])
    return PwFunction(_QUARTER, [TailComponent(0, 0, prof)])


def _quarter_sets():
    """Closed sets on the ratio 1/4 whose complements sit in the lower or
    the upper half of the window (1/4, 1]."""
    out = []
    for a, b in ((Q(9, 32), Q(5, 16)), (Q(11, 16), Q(13, 16))):
        out.append(AsymptoticSet.orbit_interval(_QUARTER, a, _QUARTER,
                                                lc=False).union(
            AsymptoticSet.orbit_interval(b, 1, _QUARTER)).closure())
    return out


def _below_anchor_cases(hat, hat2, osc, negl, rho):
    """Elements and ideals whose representatives sit on anchors below 1:
    lowered fixtures and corpus elements, distance profiles and urysohn
    witnesses, so that every question runs on a germ that differs from
    the stored representative."""
    elems, ideals = _fixture_cases(hat, hat2, osc, negl, rho)
    c = corpus_generate(11, 6)
    A = AsymptoticSet.orbit_interval(Q(5, 8), Q(7, 8))
    S = AsymptoticSet.orbit_interval(Q(41, 64), Q(25, 32)).closure()
    T = AsymptoticSet.orbit_interval(Q(39, 64), Q(51, 64)).closure()
    xs = [x.lower_anchor(t) for t, x in enumerate(elems[:8], 1)]
    xs += [x.lower_anchor(2) for x in c.elements[:3]]
    xs += [distance_profile(A), urysohn(S, T).rep,
           hat.add(distance_profile(A).scale(Q(1, 3))),
           _quarter_element().lower_anchor(1)]
    Is = [ideals[0], ideals[3],
          FgIdeal([hat.lower_anchor(3)]),
          FgIdeal([hat2.lower_anchor(1), hat.mul(rho).lower_anchor(2)]),
          FgIdeal([distance_profile(A)]),
          FgIdeal([g.rep.lower_anchor(1) for g in c.ideals[0].gens])]
    return xs + elems[:4], Is


def test_germ_path_matches_full_representatives(hat, hat2, osc, negl, rho):
    xs, Is = _below_anchor_cases(hat, hat2, osc, negl, rho)
    assert all(x.c0 < 1 for x in xs[:-4])
    members = 0
    for i, I in enumerate(Is):
        for j, x in enumerate(xs):
            label = (i, j)
            assert z_subset(I.sos, x) == _ref_z_subset(I.sos, x), label
            assert z_subset(x, I.sos) == _ref_z_subset(x, I.sos), label
            assert zclosure_member(x, I) == _ref_z_subset(I.sos, x), label
            got = ideal_member(x, I)
            assert got == _ref_member(x, I), label
            members += got[0]
            assert _outcome(radical_member, x, I, 2) == \
                _outcome(_ref_radical, x, I, 2), label
            want = _outcome(_ref_pure, x, I)
            pure = _outcome(pure_part_member, x, I)
            assert (pure if isinstance(pure, str) else pure[0]) == want, \
                label
    assert members >= 5


def test_f_of_I_matches_full_representatives(hat, hat2, osc, negl, rho,
                                             A, B, P, full):
    _, Is = _below_anchor_cases(hat, hat2, osc, negl, rho)
    sets = [A.closure(), B.closure(), P, full,
            A.lower_anchor(2).closure(), B.union(P).closure()]
    sets += _quarter_sets()
    for I in Is:
        for S in sets:
            coS = S.complement().closure()
            want = True if not coS.is_characteristic() else \
                restr_invertible_bool(I.sos.rep, coS)
            assert f_of_I_member(S, I) == want
            assert filter_member(Closure(OfIdeal(I)), S) == \
                _ref_closure_of_ideal(S, I)
        assert I.is_proper() == \
            (not restr_invertible_bool(I.sos.rep, I.full_set()))


def _ref_closure_of_ideal(S, I):
    """Reference: the obstruction structure of the full representative of
    sos, recomputed for each set."""
    O = S.complement().interior()
    if not O.is_characteristic():
        return True
    sos, shape = common_window(I.sos.rep, O)
    flat, badpts = bad_structure(sos)
    if flat and flat.intersect(shape):
        return False
    return not any(_bad_hits(b, shape) for b in badpts)


def test_ratio_quarter_inputs_distinguish_windows(hat):
    # the kept structures of an ideal on the ratio 1/2 would give the
    # wrong answer on these inputs if read on the ratio 1/4 window
    I = FgIdeal([hat])
    x = _quarter_element()
    assert not z_subset(I.sos, x) and not zclosure_member(x, I)
    assert zclosure_member(x.mul(hat), I)
    low, high = _quarter_sets()
    assert not f_of_I_member(low, I)
    assert f_of_I_member(high, I)


def test_purity_witnesses_below_anchor(hat):
    # witnesses for elements stored on anchors below 1 hold exactly
    I = FgIdeal([hat.lower_anchor(2)])
    for x in (tent(Q(21, 32), Q(11, 16), Q(23, 32)).lower_anchor(3),
              tent(Q(43, 64), Q(11, 16), Q(45, 64))):
        ok, y = pure_part_member(x, I)
        assert ok and y is not None
        assert (GenConstant(x) * y).rep.equiv(x)
        assert _ref_member(y, I)[0]


# -- each ideal computes its structures once, on first use ---------------


def test_structures_computed_once_and_lazily(hat, monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return bad_structure(x)

    monkeypatch.setattr(signs_mod, "bad_structure", counted)
    I = FgIdeal([hat, hat.mul(PwFunction.upower(1))])
    assert calls == []
    assert I.is_proper()
    rng = random.Random(5)
    for _ in range(20):
        a, b = sorted(rng.sample(range(33, 64), 2))
        S = AsymptoticSet.orbit_interval(Q(a, 64), Q(b, 64)).closure()
        f_of_I_member(S, I)
    # recomputing the structure on every call would make 21
    assert len(calls) == 1


def test_purity_witness_failing_x_equals_xy_raises(hat, monkeypatch):
    inside = tent(Q(21, 32), Q(11, 16), Q(23, 32))
    monkeypatch.setattr(ideal_mod, "_cutoff",
                        lambda S, T, v: PwFunction.const(Q(1, 2)))
    with pytest.raises(AssertionError, match="x\\*y = x"):
        pure_part_member(inside, FgIdeal([hat]))


def _ref_purity_support(xr):
    """Reference: the union of the closed complements of each r = 0
    component's flat zero."""
    sg = xr.sigma
    supp = IvSet.empty()
    for c in xr.comps:
        if c.r == 0:
            supp = supp.union(c.g.flat_zero().complement(
                Iv(sg, 1, True, True)).closure())
    return circle_closure(supp, sg)


def _purity_support(xr, monkeypatch):
    """The trace of the support S that `_purity_witness` builds, caught
    where it hands S to `halfway_toward`."""
    seen = []

    def catch(shape, zeros, sg, S):
        seen.append(S.shape)
        raise RepresentabilityError("caught")

    monkeypatch.setattr(ideal_mod, "halfway_toward", catch)
    assert ideal_mod._purity_witness(
        xr, None, AsymptoticSet.full(xr.sigma, xr.D)) is None
    return seen[0]


def test_purity_support_matches_reference(hat, negl, monkeypatch):
    # two flat zeros that meet at the point 3/4 only
    left = Piecewise.linear_interp([(Q(1, 2), 0), (Q(3, 4), 0),
                                    (Q(7, 8), 1), (1, 0)])
    right = Piecewise.linear_interp([(Q(1, 2), 0), (Q(5, 8), 1),
                                     (Q(3, 4), 0), (1, 0)])
    meet = PwFunction(Q(1, 2), [TailComponent(0, 0, left),
                                TailComponent(1, 0, right)])
    xs = [hat, negl, meet]  # negl has no r = 0 component
    for seed in range(4):
        xs += corpus_generate(seed, 24).elements
    for xr in xs:
        assert _purity_support(xr, monkeypatch) == _ref_purity_support(xr)
    assert _purity_support(negl, monkeypatch).is_empty()
    # the fat common zero is empty, so x is supported on the whole window
    assert _purity_support(meet, monkeypatch) == AsymptoticSet.full().shape


# -- the point protocol against the pt_cmp references --------------------


def _old_bad_hits(b: BadPt, C: IvSet) -> bool:
    """Reference: `signs._bad_hits` with its own branch for irrational
    bad points."""
    p = b.pos
    if b.point_bad and _pt_in_ivset(p, C):
        return True
    if isinstance(p, Q):
        if b.left_bad and C.limit_from_left(p):
            return True
        if b.right_bad and C.limit_from_right(p):
            return True
    else:
        for iv in C.ivs:
            if iv.is_point():
                continue
            if pt_cmp(p, iv.lo) >= 0 and pt_cmp(p, iv.hi) <= 0:
                inside_l = pt_cmp(p, iv.lo) > 0
                inside_r = pt_cmp(p, iv.hi) < 0
                if (b.left_bad and inside_l) or (b.right_bad and inside_r):
                    return True
    return False


@st.composite
def _mixed_points(draw):
    """Fractions on the 1/16 grid and the roots that `isolate_roots` gives
    for random squarefree polynomials on [0, 2], and a set whose ends are
    those Fractions or interval ends of the RootPts.  The roots are isolated afresh, not taken from the shared cache, so an
    example does not depend on how far earlier ones refined them."""
    pts = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=3, max_size=5))
        p = squarefree(poly(*coeffs))
        if pdeg(p) >= 1:
            pts.extend(isolate_roots.__wrapped__(p, Q(0), Q(2)))
    ends = [Q(draw(st.integers(0, 32)), 16) for _ in range(3)]
    ends += [e for r in pts if isinstance(r, RootPt)
             for e in (r.lo, r.hi)]
    pts += ends[:3]
    cuts = sorted(set(draw(st.lists(st.sampled_from(ends), max_size=6))))
    ivs = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        ivs.append(Iv(a, b, draw(st.booleans()), draw(st.booleans())))
    ivs += [Iv(c, c, True, True) for c in cuts[len(cuts) // 2 * 2:]]
    return draw(st.permutations(pts)), IvSet(ivs)


@settings(max_examples=200, deadline=None)
@given(_mixed_points())
def test_points_compare_like_numbers(case):
    pts, C = case
    for r in pts:
        if isinstance(r, RootPt):
            # a rational inside the interval, which pt_cmp would cut at
            lo, hi = r.lo, r.hi
            for q in [(lo + hi) / 2] + [q for q in pts if isinstance(q, Q)]:
                assert not r == q and not q == r and r != q
            assert (r.lo, r.hi) == (lo, hi)
    assert sorted(pts) == sorted(pts, key=cmp_to_key(pt_cmp))
    for p in pts:
        assert C.contains(p) == _pt_in_ivset(p, C)
        assert C.limit_from_left(p) == \
            _old_bad_hits(BadPt(p, False, True, False), C)
        assert C.limit_from_right(p) == \
            _old_bad_hits(BadPt(p, False, False, True), C)
        for flags in ((True, False, False), (False, True, True),
                      (True, True, True)):
            b = BadPt(p, *flags)
            assert _bad_hits(b, C) == _old_bad_hits(b, C)
