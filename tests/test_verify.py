from fractions import Fraction as Q

import mpmath
import pytest

from asymcalc.errors import AllSamplesZero, PreconditionViolated, UnknownCheck
from asymcalc.pwfunc import PwFunction, TailComponent
from asymcalc.verify import (OracleConfig, available_checks, corpus_generate,
                             oracle_valuation, oracle_vanishes_on, run_checks)
from asymcalc.scaleset import AsymptoticSet
from asymcalc.ivset import IvSet
from asymcalc.verify.oracle import (_block_maxima, _deep_blocks, _fit, _grid,
                                    _log_sampler, _logabs, _shape_points)
from asymcalc.window import Piecewise

CFG = OracleConfig(depth=1600)


def test_oracle_valuation_rho(rho):
    est = oracle_valuation(rho, CFG)
    assert not est.diverging
    assert est.contains(1)
    assert est.hi - est.lo <= 0.11


def test_oracle_valuation_osc(osc):
    est = oracle_valuation(osc, CFG)
    assert not est.diverging
    assert est.contains(1)


def test_oracle_flags_negligible(negl):
    est = oracle_valuation(negl, CFG)
    assert est.diverging
    assert est.contains(None)


def test_oracle_all_samples_zero():
    with pytest.raises(AllSamplesZero):
        oracle_valuation(PwFunction.zero(), CFG)


def test_oracle_vanishes_on(hat, P, full):
    from asymcalc.scaleset import AsymptoticSet
    Z = AsymptoticSet.orbit_interval(Q(17, 32), Q(19, 32))
    assert oracle_vanishes_on(hat, Z, CFG) in (True, None)
    assert oracle_vanishes_on(hat, P, CFG) in (False, None)


def test_oracle_vanishes_on_point_orbit(hat, P):
    # the samples land on the point orbit itself, where hat = 1
    assert oracle_vanishes_on(hat, P, CFG) is False
    assert oracle_vanishes_on(hat, P, OracleConfig(depth=400)) is False


def test_corpus_deterministic():
    a = corpus_generate(11, 12)
    b = corpus_generate(11, 12)
    assert [e.to_dict() for e in a.elements] == \
        [e.to_dict() for e in b.elements]
    assert [s.to_dict() for s in a.sets] == [s.to_dict() for s in b.sets]


def test_corpus_size_cap():
    with pytest.raises(PreconditionViolated):
        corpus_generate(0, 10 ** 6)


def test_corpus_spans_kinds():
    c = corpus_generate(1, 40)
    kinds = {type(f).__name__ for f in c.filters}
    assert len(kinds) >= 2
    rs = {comp.r for e in c.elements for comp in e.comps}
    assert rs >= {0, 1, 2}
    assert any(s.shape.points() for s in c.sets)
    assert any(s.shape.fat_part() for s in c.sets)
    assert any(len(i.gens) > 1 for i in c.ideals)


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        run_checks("no-such-check", seed=0)


def test_named_checks_present():
    names = available_checks()
    assert "ext-eltair-duality" in names
    assert "prime-ideal-char" in names


def test_reports_reproducible():
    a = run_checks("ext-eltair-duality", seed=5, size=10)[0]
    b = run_checks("ext-eltair-duality", seed=5, size=10)[0]
    assert a.canonical_bytes() == b.canonical_bytes()
    assert a.passed


def test_interior_closure_check_passes():
    r = run_checks("interior-closure", seed=2, size=10)[0]
    assert r.passed and r.instances > 0


def _exact_sampler(x):
    """The reference sampler: log|x(u)| from the exact value x.eval(u)."""
    def log_abs(u):
        val = x.eval(u)
        return _logabs(val) if val else None
    return log_abs


def _assert_matches_exact(x, cfg):
    """Every grid sample of the log-domain oracle lies within 1e-6 of the
    exact log|x(u)|, zero exactly where x(u) = 0, and the estimate agrees
    with the one fitted to the exact samples."""
    with mpmath.workdps(cfg.precision):
        fast, exact = _log_sampler(x, cfg), _exact_sampler(x)
        for _, u in _grid(cfg):
            got, want = fast(u), exact(u)
            if want is None:
                assert got is None, u
            else:
                assert got is not None and abs(got - want) <= 1e-6, u
        ref = _fit(_block_maxima(exact, cfg), cfg)
    est = oracle_valuation(x, cfg)
    assert est.diverging == ref.diverging
    assert est.lo == pytest.approx(ref.lo, abs=1e-6)
    assert est.hi == pytest.approx(ref.hi, abs=1e-6)


SHALLOW = OracleConfig(depth=400, window=40)


def test_oracle_matches_exact_on_fixtures(rho, osc, negl):
    for x in (rho, osc, negl):
        _assert_matches_exact(x, CFG)


def test_oracle_matches_exact_on_corpus():
    for x in corpus_generate(37, 60).elements[:12]:
        _assert_matches_exact(x, SHALLOW)


def test_oracle_matches_exact_on_head_and_mixed_components(hat):
    tent = Piecewise.linear_interp(
        [(Q(1, 2), 0), (Q(5, 8), Q(3, 2)), (Q(7, 8), -1), (Q(1), 0)])
    mixed = PwFunction(Q(1, 2), [
        TailComponent(-1, 0, hat.comps[0].g.scale(3)),
        TailComponent(1, 1, tent),
        TailComponent(0, 2, tent.neg())])
    moved = mixed.lower_anchor(3)
    assert moved.c0 == Q(1, 8)
    for x in (mixed, moved):
        _assert_matches_exact(x, SHALLOW)


def test_oracle_cancelling_exponents_give_zero_samples():
    # exponents 2k and k(k-1) coincide on block 3, where the two
    # components cancel exactly
    tent = Piecewise.linear_interp(
        [(Q(1, 2), 0), (Q(3, 4), 1), (Q(1), 0)])
    a, b = TailComponent(2, 0, tent), TailComponent(0, 2, tent.neg())
    assert a.exponent(3) == b.exponent(3)
    x = PwFunction(Q(1, 2), [a, b])
    with mpmath.workdps(SHALLOW.precision):
        fast = _log_sampler(x, SHALLOW)
        on_block_3 = [u for k, u in _grid(SHALLOW) if k == 3]
        assert on_block_3
        for u in on_block_3:
            assert x.eval(u) == 0
            assert fast(u) is None
    _assert_matches_exact(x, SHALLOW)


def _deep_blocks_walk(S, cfg):
    """The block-by-block walk that _deep_blocks replaced, as a reference."""
    ws = _shape_points(S.shape)
    floor = max(Q(1, 2 ** (cfg.depth // 8)), cfg.min_scale)
    k, low = 0, S.c0 * S.sigma
    while low * S.sigma >= floor:
        k, low = k + 1, low * S.sigma
    if not ws or k == 0:
        return []
    return [[S.c0 * S.sigma ** j * w for w in ws] for j in (k - 1, k)]


@pytest.mark.parametrize("sigma", [Q(1, 2), Q(2, 3), Q(1, 3), Q(9, 10),
                                   Q(1, 1024)])
@pytest.mark.parametrize("j", [0, 1, 5, 40])
def test_deep_blocks_matches_walk(sigma, j):
    S = AsymptoticSet(sigma, IvSet.interval((1 + sigma) / 2, 1), c0=sigma ** j)
    floors = [Q(1, 2 ** e) for e in range(0, 200, 7)]
    # floors on block edges, just off them, at and above the anchor
    floors += [S.c0 * sigma ** m * f for m in (0, 1, 2, 3, 17)
               for f in (1, Q(1001, 1000), Q(999, 1000))]
    floors += [S.c0 * 2, Q(1)]
    # a depth this large leaves the floor to min_scale
    cfgs = [OracleConfig(depth=8 * 4000, min_scale=f) for f in floors]
    cfgs += [OracleConfig(depth=d) for d in (8, 64, 800, 1600)]
    for cfg in cfgs:
        assert _deep_blocks(S, cfg) == _deep_blocks_walk(S, cfg), cfg
    empty = AsymptoticSet(sigma, IvSet.empty(), c0=sigma ** j)
    assert _deep_blocks(empty, OracleConfig()) == []
