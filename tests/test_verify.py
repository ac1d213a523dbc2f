import json
import math
from fractions import Fraction as Q

import mpmath
import pytest

from asymcalc.errors import AllSamplesZero, PreconditionViolated, UnknownCheck
from asymcalc.pwfunc import PwFunction, TailComponent
from asymcalc.verify import (CheckReport, OracleConfig, ValuationEstimate,
                             available_checks, corpus_generate,
                             oracle_valuation, oracle_vanishes_on, run_checks)
from asymcalc.scaleset import AsymptoticSet
from asymcalc.ivset import IvSet
from asymcalc.verify import oracle
from asymcalc.verify.oracle import (_HALF, _RESIDUES, _block_maxima,
                                    _deep_samples, _fit, _fit_blocks,
                                    _float_sampler, _locator, _logabs, _mpf,
                                    _profiles, _shape_points, _tail_sampler)
from asymcalc.grid import Grid
from asymcalc.window import Piecewise, Seg

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


def _ref_grid(cfg):
    """The valuation samples (k, u), u = 2^-k * b_i for each residue b_i,
    on the full blocks k = 1 .. depth // 8 - 1 of the ratio 1/2."""
    for k in range(1, cfg.depth // 8):
        for b in _RESIDUES:
            yield k, Q(b.numerator, b.denominator << k)


def _ref_log_sampler(x, cfg):
    """The reference sampler: log|x(u)| at one sample u, located with
    block_coord and summed in the log domain from scratch, with an exact
    mpmath log at every sample (the per-sample loop _block_maxima
    replaced)."""
    comps = x.comps
    log_sigma = _logabs(x.sigma)
    sigma = _mpf(x.sigma)
    cutoff = mpmath.mpf(10) ** (8 - oracle.PRECISION)
    profiles = {}

    def log_abs(u):
        if u > x.c0:
            val = x.head.eval(u)
            return _logabs(val) if val else None
        k, w = x.grid.block_coord(u)
        if w not in profiles:
            profiles[w] = [(c, g, _mpf(g)) for c in comps
                           for g in (c.g.eval(w),) if g]
        groups = {}
        for c, g, m in profiles[w]:
            e = c.exponent(k)
            if e in groups:
                t = groups[e][0] + g
                groups[e] = (t, _mpf(t))
            else:
                groups[e] = (g, m)
        terms = [(e, m) for e, (t, m) in groups.items() if t]
        if not terms:
            return None
        e0 = min(e for e, _ in terms)
        vals = [sigma ** (e - e0) * m for e, m in terms]
        total = mpmath.fsum(vals)
        if len(vals) > 1 and abs(total) <= cutoff * max(map(abs, vals)):
            return None
        return e0 * log_sigma + mpmath.log(abs(total))

    return log_abs


def _ref_block_maxima(log_abs, cfg):
    """The largest log_abs(u) over the samples of each block, block by
    block and in residue order within a block."""
    best = {}
    for k, u in _ref_grid(cfg):
        la = log_abs(u)
        if la is not None and (k not in best or la > best[k]):
            best[k] = la
    if not best:
        raise AllSamplesZero("element vanished at every grid point")
    return best


def _exact_sampler(x):
    """The exact sampler: log|x(u)| from the exact value x.eval(u)."""
    def log_abs(u):
        val = x.eval(u)
        return _logabs(val) if val else None
    return log_abs


def _fast_samples(x, cfg):
    """(k, u, log|x(u)| or None) at every grid sample, residue by residue,
    from the locator and the tail sampler of the oracle."""
    at, tail, locate = _profiles(x), _tail_sampler(x), _locator(x, _HALF)
    for b in _RESIDUES:
        for k in range(cfg.depth // 8 - 1, 0, -1):
            u = Q(b.numerator, b.denominator << k)
            place = locate(k, Q(1, 1 << k), b)
            if place is None:
                val = x.head.eval(u)
                yield k, u, _logabs(val) if val else None
            else:
                K, w = place
                yield k, u, tail(K, at(w))


def _assert_same_maxima(x, cfg):
    """The per-block maxima are the reference's on its deepest 2 * wn
    blocks with a nonzero sample, the ones the slope fit reads, exactly,
    by repr."""
    with mpmath.workdps(oracle.PRECISION):
        got = _block_maxima(x, cfg)
        want = _ref_block_maxima(_ref_log_sampler(x, cfg), cfg)
    assert repr(sorted(got.items())) == \
        repr(sorted(want.items())[-2 * _fit_blocks(cfg):])


def _assert_matches_exact(x, cfg):
    """Every grid sample of the log-domain oracle lies within 1e-6 of the
    exact log|x(u)|, zero exactly where x(u) = 0, and the estimate agrees
    with the one fitted to the exact samples."""
    exact = _exact_sampler(x)
    with mpmath.workdps(oracle.PRECISION):
        seen = 0
        for _, u, got in _fast_samples(x, cfg):
            want = exact(u)
            seen += 1
            if want is None:
                assert got is None, u
            else:
                assert got is not None and abs(got - want) <= 1e-6, u
        assert seen == 8 * (cfg.depth // 8 - 1)
        ref = _fit(_ref_block_maxima(exact, cfg), cfg)
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


def _mixed(hat):
    """Components of three depth increments, one of them with a head-free
    and a lowered-anchor copy."""
    tent = Piecewise.linear_interp(
        [(Q(1, 2), 0), (Q(5, 8), Q(3, 2)), (Q(7, 8), -1), (Q(1), 0)])
    mixed = PwFunction(Q(1, 2), [
        TailComponent(-1, 0, hat.comps[0].g.scale(3)),
        TailComponent(1, 1, tent),
        TailComponent(0, 2, tent.neg())])
    moved = mixed.lower_anchor(3)
    assert moved.c0 == Q(1, 8)
    return mixed, moved


def test_oracle_matches_exact_on_head_and_mixed_components(hat):
    for x in _mixed(hat):
        _assert_matches_exact(x, SHALLOW)


def _cancelling():
    """Exponents 2k and k(k-1) coincide on block 3, where the two
    components cancel exactly."""
    tent = Piecewise.linear_interp(
        [(Q(1, 2), 0), (Q(3, 4), 1), (Q(1), 0)])
    a, b = TailComponent(2, 0, tent), TailComponent(0, 2, tent.neg())
    assert a.exponent(3) == b.exponent(3)
    return PwFunction(Q(1, 2), [a, b])


def test_oracle_cancelling_exponents_give_zero_samples():
    x = _cancelling()
    with mpmath.workdps(oracle.PRECISION):
        on_block_3 = [(u, la) for k, u, la in _fast_samples(x, SHALLOW)
                      if k == 3]
        assert on_block_3
        for u, la in on_block_3:
            assert x.eval(u) == 0
            assert la is None
    _assert_matches_exact(x, SHALLOW)


def _on_ratio(sigma, t=2):
    """An element on ratio sigma with components of depth increments 0, 1
    and 2 on two profiles that vanish at the seam, anchor lowered by t."""
    a, b = sigma + (1 - sigma) / 3, sigma + 2 * (1 - sigma) / 3
    tent = Piecewise.linear_interp([(sigma, 0), (a, 1), (1, 0)])
    wave = Piecewise.linear_interp([(sigma, 0), (a, Q(3, 2)), (b, -1),
                                    (1, 0)])
    x = PwFunction(sigma, [TailComponent(1, 0, tent),
                           TailComponent(-1, 1, wave),
                           TailComponent(0, 2, tent.neg())])
    return x.lower_anchor(t)


RATIOS = (Q(1, 2), Q(2, 3), Q(3, 7), Q(1, 10), Q(9, 10))


def _near_cancelling(rel):
    """Components of exponents 0 and K on one tent that cancel on block
    K = 3 up to rel times either term; the tent peaks at the residue b_1,
    a window coordinate of the grid.  There the float sum falls under
    1e-6 of its terms, so the sample takes the exact path, where x(u) is
    nonzero, or counts as zero when rel is under the cutoff
    10^(8 - precision)."""
    w, K = _RESIDUES[1], 3
    tent = Piecewise.linear_interp([(Q(1, 2), 0), (w, 1), (Q(1), 0)])
    a = -Q(1, 2 ** K) * (1 - rel)
    x = PwFunction(Q(1, 2), [TailComponent(0, 0, tent.scale(a)),
                             TailComponent(1, 0, tent)])
    assert x.grid.block_coord(w / 2 ** K) == (K, w)
    assert x.eval(w / 2 ** K) == rel / 2 ** K
    with mpmath.workdps(oracle.PRECISION):
        p = _profiles(x)(w)
        assert _float_sampler(x)(K, p) is None
        zero = rel < Q(1, 10 ** (oracle.PRECISION - 8))
        assert (_tail_sampler(x)(K, p) is None) == zero
    return x


def test_block_maxima_match_reference_bit_for_bit(rho, osc, negl, hat):
    for x in (rho, osc, negl):
        _assert_same_maxima(x, CFG)
    # a window wider than the grid leaves no block out
    _assert_same_maxima(rho, OracleConfig(depth=160, window=200))
    for x in corpus_generate(37, 60).elements[:12]:
        _assert_same_maxima(x, SHALLOW)
    for x in (*_mixed(hat), _cancelling(),
              _near_cancelling(Q(1, 10 ** 7)),
              _near_cancelling(Q(1, 10 ** 60))):
        _assert_same_maxima(x, SHALLOW)
    # profile values beyond the range of doubles leave the float screen
    # out (tiny) or never skip (huge)
    tent = Piecewise.linear_interp([(Q(1, 2), 0), (Q(3, 4), 1), (Q(1), 0)])
    for c in (Q(1, 2 ** 1100), Q(2 ** 1100)):
        x = PwFunction(Q(1, 2), [TailComponent(1, 0, tent.scale(c)),
                                 TailComponent(0, 1, tent.scale(-c))])
        _assert_same_maxima(x, SHALLOW)
    # anchors lowered by 8 put head samples on the grid for every ratio
    for sigma in RATIOS[1:]:
        for t in (0, 2, 8):
            x = _on_ratio(sigma, t)
            assert x.c0 == sigma ** t
            _assert_same_maxima(x, SHALLOW)


def _sample_grids():
    """(grid, ws) for the locator tests: the valuation grid with the
    residues, and the grid of a set on the ratio 2/3 anchored three blocks
    down with the set's shape points."""
    S = AsymptoticSet(Q(2, 3), IvSet.interval(Q(3, 4), Q(1)), c0=Q(2, 3) ** 3)
    return [(_HALF, _RESIDUES), (S.grid, _shape_points(S.shape))]


# on the ratio 1/4 the residue b_0 = 1 lands on w = 1 at every even block
@pytest.mark.parametrize("sigma", [*RATIOS, Q(1, 4)])
@pytest.mark.parametrize("j", [0, 1, 3])
def test_walk_steps_to_block_coord(monkeypatch, sigma, j):
    """Walking the blocks of each sample grid, _locator places each sample
    u = top * w below x's anchor at block_coord(u), and gives None above
    it; on a shared ratio it hands back the same w object and runs no
    block_coord."""
    x = PwFunction.on(Grid(sigma, j), [])
    calls = []
    coord = Grid.block_coord

    def counted(self, u):
        calls.append(u)
        return coord(self, u)

    monkeypatch.setattr(Grid, "block_coord", counted)
    for grid, ws in _sample_grids():
        locate = _locator(x, grid)
        shared = grid.sigma == sigma
        for k in range(1, 200):
            top = grid.c0 * grid.sigma ** k
            for w in ws:
                u = top * w
                place = locate(k, top, w)
                if u > x.c0:
                    assert place is None, (k, w)
                    continue
                assert place == coord(x.grid, u), (k, w)
                if shared:
                    assert place[1] is w
        assert shared == (calls == [])
        del calls[:]


def test_oracle_locates_each_residue_once(monkeypatch, rho, hat):
    """The oracle never runs block_coord on the ratio 1/2, where each
    residue is its own window coordinate, at any anchor."""
    calls = []
    coord = Grid.block_coord

    def counted(self, u):
        calls.append(u)
        return coord(self, u)

    monkeypatch.setattr(Grid, "block_coord", counted)
    for x in (rho, *_mixed(hat), _on_ratio(Q(1, 2), 2),
              _on_ratio(Q(1, 2), 6), _on_ratio(Q(2, 3))):
        for cfg in (SHALLOW, CFG):
            del calls[:]
            oracle_valuation(x, cfg)
            if x.sigma == Q(1, 2):
                assert calls == []
            else:
                assert calls


def test_oracle_looks_up_each_kept_profile_once(monkeypatch, rho, hat):
    """On the ratio 1/2 a residue keeps its w, so each residue looks its
    profile up once, although the residues take turns block by block."""
    calls = []
    profiles = oracle._profiles

    def counted(x):
        at = profiles(x)

        def counted_at(w):
            calls.append(w)
            return at(w)
        return counted_at

    monkeypatch.setattr(oracle, "_profiles", counted)
    for x in (rho, *_mixed(hat)):
        for cfg in (SHALLOW, CFG):
            del calls[:]
            oracle_valuation(x, cfg)
            assert 0 < len(calls) <= 8


def test_oracle_takes_about_one_exact_log_per_block(monkeypatch, rho, hat):
    """The float screen leaves about one exact tail evaluation per block
    the fit reads, where the per-sample loop took eight.  The extra ones
    are samples without an estimate: their exponents coincide, or their
    float sum cancels."""
    extra = 8
    calls = []
    sampler = oracle._tail_sampler

    def counted(x):
        tail = sampler(x)

        def counted_tail(K, p):
            calls.append(K)
            return tail(K, p)
        return counted_tail

    monkeypatch.setattr(oracle, "_tail_sampler", counted)
    for x in (rho, *_mixed(hat), _on_ratio(Q(2, 3))):
        for cfg in (SHALLOW, CFG):
            del calls[:]
            oracle_valuation(x, cfg)
            assert 0 < len(calls) <= 2 * _fit_blocks(cfg) + extra


def test_oracle_samples_only_the_blocks_the_fit_reads(monkeypatch, rho, hat):
    """The walk stops once it holds the 2 * wn blocks the fit reads: at
    most 8 float estimates per such block, plus one block of slack."""
    calls = []
    sampler = oracle._float_sampler

    def counted(x):
        estimate = sampler(x)

        def counted_estimate(K, p):
            calls.append(K)
            return estimate(K, p)
        return counted_estimate

    monkeypatch.setattr(oracle, "_float_sampler", counted)
    for x in (rho, *_mixed(hat), _on_ratio(Q(2, 3))):
        for cfg in (SHALLOW, CFG):
            del calls[:]
            oracle_valuation(x, cfg)
            assert 0 < len(calls) <= 8 * 2 * _fit_blocks(cfg) + 8


def _rational_profiles(sigma):
    """Profiles on [sigma, 1] with segments of deg den >= 1: a quotient
    of quadratics whose reduced value shares no factor with w, and a
    piecewise one that joins a line to 1/w at w = 3/4 of the window."""
    m = sigma + (1 - sigma) * Q(3, 4)
    whole = Piecewise.from_poly(sigma, 1, (Q(-3, 4), 0, 1), (2, 1, 1))
    line = Seg(sigma, m, (1 / m,))
    inverse = Seg(m, Q(1), (1,), (0, 1))
    return [whole, Piecewise([line, inverse])]


def _kernel_cases():
    """(grid, comps): corpus elements, then components on rational
    segments and on a tent, scaled by 2^k for k at and next to the ends
    of the float range, on three ratios.  A _Profile reads only the
    components' profiles, s and r, so these need not form an element."""
    cases = [(x.grid, x.comps) for seed in (0, 3)
             for x in corpus_generate(seed, 24).elements]
    for sigma in (Q(1, 2), Q(2, 3), Q(9, 10)):
        tent = Piecewise.linear_interp(
            [(sigma, 0), ((1 + sigma) / 2, 1), (1, 0)])
        for g in (*_rational_profiles(sigma), tent):
            cases.append((Grid(sigma), [TailComponent(0, 0, g)]))
            for k in (298, 299, 300):
                cases.append((Grid(sigma), [
                    TailComponent(0, 0, g.scale(Q(2) ** k)),
                    TailComponent(1, 0, g.scale(Q(1, 2 ** k))),
                    TailComponent(0, 1, g.scale(Q(3, 2 ** k)))]))
                cases += [(Grid(sigma), [TailComponent(1, 0, g.scale(c))])
                          for c in (Q(2) ** k, Q(1, 2 ** k))]
    return cases


def _kernel_points(grid, sets):
    """The window coordinates of the residues' samples on the deepest 12
    blocks, the shape points of the sets on the grid's ratio, and
    sigma."""
    locate = _locator(PwFunction.on(grid, []), _HALF)
    ws = {place[1] for b in _RESIDUES for k in range(11, 0, -1)
          for place in (locate(k, Q(1, 1 << k), b),) if place}
    for S in sets:
        if S.sigma == grid.sigma:
            ws.update(_shape_points(S.shape))
    return sorted(ws | {grid.sigma})


def _reduced_e(g):
    return abs(g.numerator).bit_length() - g.denominator.bit_length()


def test_profile_from_integers_matches_eval():
    """Each _Profile float is float(c.g.eval(w)), each lazily built exact
    value is c.g.eval(w), and the floats are there exactly as the range
    rule says: with floats every |g| lies in (2^-300, 2^300), and every
    profile with all |g| in [2^-296, 2^296] has them."""
    sets = [*corpus_generate(0, 24).sets, *corpus_generate(3, 24).sets,
            AsymptoticSet.full(Q(2, 3)), AsymptoticSet.full(Q(9, 10))]
    seen = dropped = 0
    cases = _kernel_cases()
    assert any(len(seg.den) > 1 for _, comps in cases for c in comps
               for seg in c.g.segs)
    for grid, comps in cases:
        for w in _kernel_points(grid, sets):
            want = [(c, g) for c in comps for g in (c.g.eval(w),) if g]
            p = oracle._Profile(comps, w)
            assert p.mpfs is None
            exact = [(c, Q(N, D)) for c, N, D in p.terms]
            assert exact == want
            assert [(type(N), type(D)) for _, N, D in p.terms] == \
                [(int, int)] * len(want)
            seen += 1
            if p.floats is None:
                dropped += 1
                assert not all(-297 <= _reduced_e(g) <= 297 for _, g in want)
                continue
            assert all(-300 < _reduced_e(g) < 300 for _, g in want)
            assert p.floats == [(c.s, c.r, float(g)) for c, g in want]
            if len(want) == 1:
                assert p.flog == math.log(abs(float(want[0][1])))
    assert seen > 5000 and 0 < dropped < seen


def test_profile_floats_at_the_ends_of_the_range():
    """A single value 2^k: the one-bit slack keeps floats up to |k| = 297
    and drops them from |k| = 299, inside the old rule's (2^-300, 2^300)
    at 299 and outside it at 300."""
    w = Q(3, 4)
    for k in range(290, 302):
        for c in (Q(2) ** k, Q(1, 2 ** k)):
            x = PwFunction.const(c)
            p = oracle._Profile(x.comps, w)
            assert [(c_, Q(N, D)) for c_, N, D in p.terms] == \
                [(x.comps[0], c)]
            if k <= 297:
                assert p.floats == [(0, 0, float(c))]
            if k >= 299:
                assert p.floats is None


def test_valuation_equals_fit_over_every_block(rho, osc, negl, hat):
    """The estimate from the deepest blocks only is the one fitted to the
    maxima of every block, float for float, at every window."""
    shallow = (*corpus_generate(37, 60).elements, *_mixed(hat), _cancelling(),
               _near_cancelling(Q(1, 10 ** 7)),
               _near_cancelling(Q(1, 10 ** 60)),
               _head_only(Q(1, 4), Q(1, 2)), _head_only(Q(1, 8), Q(1, 2)),
               *(_on_ratio(sigma, t) for sigma in RATIOS for t in (0, 8)))
    for x, depth in [*((x, 1600) for x in (rho, osc, negl)),
                     *((x, 400) for x in shallow)]:
        cfg = OracleConfig(depth=depth)
        with mpmath.workdps(oracle.PRECISION):
            every = _ref_block_maxima(_ref_log_sampler(x, cfg), cfg)
        for window in (8, 16, 40, 200):
            cfg = OracleConfig(depth=depth, window=window)
            with mpmath.workdps(oracle.PRECISION):
                want = _fit(every, cfg)
            got = oracle_valuation(x, cfg)
            assert (got.lo, got.hi, got.diverging) == \
                (want.lo, want.hi, want.diverging), (x, cfg)


@pytest.mark.parametrize("depth", [8, 16])
def test_oracle_valuation_rejects_a_grid_too_shallow_for_a_slope(depth):
    # depth 16 has one block, where u^2 read as diverging; depth 8 has
    # none, where it raised AllSamplesZero
    with pytest.raises(PreconditionViolated, match=f"depth {depth}"):
        oracle_valuation(PwFunction.upower(2), OracleConfig(depth=depth))


def test_oracle_valuation_on_three_blocks():
    # three nonzero blocks left one block for the drift slope, which
    # divided by zero
    est = oracle_valuation(PwFunction.upower(2), OracleConfig(depth=32))
    assert not est.diverging and est.contains(2)


def test_diverging_estimate_contains_only_none():
    drift = oracle.ValuationEstimate(1.0, math.inf, True)
    assert drift.contains(None)
    assert not drift.contains(5) and not drift.contains(1)
    finite = oracle.ValuationEstimate(0.95, 1.05, False)
    assert finite.contains(1) and not finite.contains(None)
    assert not finite.contains(2)


def _head_only(c0, top):
    """A negligible element: zero below c0, a tent on the head."""
    head = Piecewise.linear_interp([(c0, 0), (top, 1), (Q(1), 0)])
    return PwFunction(Q(1, 2), [], head=head, c0=c0)


@pytest.mark.parametrize("c0", [Q(1, 4), Q(1, 8)])
def test_oracle_diverges_on_element_vanishing_below_anchor(c0):
    # c0 = 1/4 leaves one block with a nonzero sample, c0 = 1/8 two, both
    # far above the fit window
    x = _head_only(c0, Q(1, 2))
    assert x.valuation() is None
    for cfg in (SHALLOW, CFG):
        est = oracle_valuation(x, cfg)
        assert est.diverging
        assert est.contains(None)
        assert not est.contains(0)


def test_oracle_imports_no_exact_decision_module():
    """The oracle reads elements only through their representation."""
    import ast
    import pathlib
    from asymcalc.verify import oracle
    banned = {"signs", "genconst", "ideal", "afilter"}
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + \
                [a.name for a in node.names]
        else:
            continue
        found += sorted(banned.intersection(names))
    assert found == []


def _deep_blocks(S, cfg):
    """The sample points u = top * w of _deep_samples, one list per
    block."""
    return [[top * w for w in ws] for _, top, ws in _deep_samples(S, cfg)]


def _ref_vanishes_on(x, S, cfg):
    """The vanishing oracle with x.eval at every sample, as a reference:
    each block votes from all of its samples."""
    n = oracle.QUANTIFIER_BOUND
    votes = set()
    for block in _deep_blocks(S, cfg):
        mags = [(u, abs(x.eval(u))) for u in block]
        if all(m <= u ** n for u, m in mags):
            votes.add(True)
        elif any(m * m > u ** n for u, m in mags):
            votes.add(False)
        else:
            votes.add(None)
    return votes.pop() if len(votes) == 1 else None


def test_vanishes_on_matches_eval_reference():
    pairs = []
    for seed in range(4):
        c = corpus_generate(seed, 24)
        pairs += zip(c.elements, c.sets)
    # |u^6| lies between u^8 and u^4: both blocks abstain
    pairs += [(PwFunction.upower(6), S) for S in corpus_generate(0, 4).sets]
    votes = []
    for x, S in pairs:
        for cfg in (SHALLOW, CFG):
            votes.append(oracle_vanishes_on(x, S, cfg))
            assert votes[-1] == _ref_vanishes_on(x, S, cfg), (x, S, cfg)
    # the reference builds the exact weights of depth increment 2, which
    # on the ratio 9/10 have some 10^5 bits at depth 400; depth 160 keeps
    # them near 5 * 10^4 (the oracle builds none, see the depth-400 tests
    # below)
    cfg = OracleConfig(depth=160)
    for sigma in RATIOS:
        mid = (1 + sigma) / 2
        # the profiles of _on_ratio vanish on the seam, at w = 1
        sets = [AsymptoticSet.full(sigma), AsymptoticSet.full(),
                AsymptoticSet.orbit_point(Q(1), sigma),
                AsymptoticSet.orbit_interval(mid, 1, sigma, lc=False),
                AsymptoticSet(sigma, IvSet.interval(sigma, mid),
                              c0=sigma ** 3)]
        for x in (_on_ratio(sigma, 0), _on_ratio(sigma, 2)):
            for S in sets:
                votes.append(oracle_vanishes_on(x, S, cfg))
                assert votes[-1] == _ref_vanishes_on(x, S, cfg), (x, S)
    assert {True, False, None} <= set(votes)


def _ratio_9_10_pairs():
    """_on_ratio(9/10) at anchors 1 and sigma^2 against the full set and the
    orbit of w = 1, where its profiles vanish: the depth-400 case whose
    exact weights have some 10^5 bits."""
    sigma = Q(9, 10)
    sets = (AsymptoticSet.full(sigma), AsymptoticSet.orbit_point(Q(1), sigma))
    return [(_on_ratio(sigma, t), S) for t in (0, 2) for S in sets]


def test_vanishing_vote_at_depth_400_on_ratio_9_10_is_restr_zero():
    from asymcalc.signs import restr_zero
    cfg = OracleConfig(depth=400)
    votes = []
    for x, S in _ratio_9_10_pairs():
        votes.append(oracle_vanishes_on(x, S, cfg))
        assert votes[-1] == restr_zero(x, S), (x, S)
    assert votes == [False, True, False, True]


@pytest.fixture
def exact_evaluations(monkeypatch):
    """The points u of every PwFunction.eval call, in order."""
    calls = []
    evaluate = PwFunction.eval

    def counted(self, u):
        calls.append(u)
        return evaluate(self, u)

    monkeypatch.setattr(PwFunction, "eval", counted)
    return calls


def test_vanishing_vote_evaluates_no_sample_below_the_anchor_exactly(
        exact_evaluations):
    cfg = OracleConfig(depth=400)
    for x, S in _ratio_9_10_pairs():
        del exact_evaluations[:]
        oracle_vanishes_on(x, S, cfg)
        assert all(u > x.c0 for u in exact_evaluations), (x, S)


def test_vanishing_vote_on_a_threshold_is_decided_exactly(exact_evaluations):
    """|u^k| against u^8 and u^4: u^6 lies strictly between them, u^4 and
    u^8 on them.  The float estimate of each sample lies within the margin
    of a threshold, so every sample takes the exact path, on the element's
    own ratio and on the ratio 1/4, and the votes are the exact ones."""
    sets = [*corpus_generate(0, 4).sets, AsymptoticSet.full(Q(1, 4)),
            AsymptoticSet.orbit_interval(Q(5, 16), Q(3, 4), Q(1, 4))]
    for k, want in ((4, None), (6, None), (8, True)):
        x = PwFunction.upower(k)
        for S in sets:
            for cfg in (SHALLOW, CFG):
                del exact_evaluations[:]
                assert oracle_vanishes_on(x, S, cfg) is want, (k, S, cfg)
                assert exact_evaluations == \
                    [u for block in _deep_blocks(S, cfg) for u in block]


def test_vanishing_vote_takes_head_samples_exactly(exact_evaluations):
    """An anchor below the deepest samples of S leaves every sample in the
    head, on the shared ratio and on another one: each is evaluated
    exactly, in order, up to the first False of its block."""
    x = _on_ratio(Q(1, 2), 56)
    cfg = OracleConfig(depth=400)
    for S, want in ((AsymptoticSet.full(), False),
                    (AsymptoticSet.orbit_point(Q(1)), True),
                    (AsymptoticSet.full(Q(1, 4)), False)):
        del exact_evaluations[:]
        assert oracle_vanishes_on(x, S, cfg) is want
        blocks = _deep_blocks(S, cfg)
        assert all(u > x.c0 for block in blocks for u in block)
        if want:
            assert exact_evaluations == [u for b in blocks for u in b]
        else:
            assert exact_evaluations == [blocks[0][0], blocks[1][0]]
        assert _ref_vanishes_on(x, S, cfg) is want


def test_vanishing_vote_evaluates_only_what_the_screen_leaves_open(
        monkeypatch, exact_evaluations):
    """x.eval runs only at samples u = top * w that the float screen
    leaves open, each at most once, in the order of its block; the votes
    are unchanged.  Pairs of a shared ratio and of two ratios, at two
    depths."""
    screen = oracle._vanishing_screen
    open_samples = []

    def counted(x, S):
        level = screen(x, S)

        def counted_level(j, top, w):
            place = level(j, top, w)
            if place is None:
                open_samples.append(top * w)
            return place
        return counted_level

    monkeypatch.setattr(oracle, "_vanishing_screen", counted)
    pairs = []
    for seed in range(2):
        c = corpus_generate(seed, 24)
        pairs += zip(c.elements, c.sets)
    pairs += [(_on_ratio(sigma), S) for sigma in (Q(1, 2), Q(2, 3))
              for S in (AsymptoticSet.full(Q(1, 2)),
                        AsymptoticSet.full(Q(2, 3)))]
    evaluated = opened = samples = 0
    for x, S in pairs:
        for cfg in (SHALLOW, OracleConfig(depth=160)):
            del exact_evaluations[:], open_samples[:]
            vote = oracle_vanishes_on(x, S, cfg)
            it = iter(open_samples)
            assert all(u in it for u in exact_evaluations), (x, S, cfg)
            evaluated += len(exact_evaluations)
            opened += len(open_samples)
            assert vote == _ref_vanishes_on(x, S, cfg), (x, S, cfg)
            samples += sum(map(len, _deep_blocks(S, cfg)))
    assert 0 < evaluated <= opened < samples


def test_vanishing_screen_builds_no_exact_profile(monkeypatch):
    """The vanishing screen places each sample from a profile's integer
    terms and floats; no vote builds the exact profile values."""
    profiles = []
    looked_up = oracle._profiles

    def kept(x):
        at = looked_up(x)

        def kept_at(w):
            profiles.append(at(w))
            return profiles[-1]
        return kept_at

    monkeypatch.setattr(oracle, "_profiles", kept)
    votes = []
    for seed in range(2):
        c = corpus_generate(seed, 24)
        for x, S in zip(c.elements, c.sets):
            for cfg in (SHALLOW, CFG):
                votes.append(oracle_vanishes_on(x, S, cfg))
    assert profiles
    assert all(p.mpfs is None for p in profiles)
    assert {True, False} <= set(votes)


def _deep_blocks_walk(S, cfg):
    """The block-by-block walk that _deep_blocks replaced, as a reference."""
    ws = _shape_points(S.shape)
    floor = max(Q(1, 2 ** (cfg.depth // 8)), oracle.MIN_SCALE)
    k, low = 0, S.c0 * S.sigma
    while low * S.sigma >= floor:
        k, low = k + 1, low * S.sigma
    if not ws or k == 0:
        return []
    return [[S.c0 * S.sigma ** j * w for w in ws] for j in (k - 1, k)]


@pytest.mark.parametrize("sigma", [Q(1, 2), Q(2, 3), Q(1, 3), Q(9, 10),
                                   Q(1, 1024)])
@pytest.mark.parametrize("j", [0, 1, 5, 40])
def test_deep_blocks_matches_walk(monkeypatch, sigma, j):
    S = AsymptoticSet(sigma, IvSet.interval((1 + sigma) / 2, 1), c0=sigma ** j)
    floors = [Q(1, 2 ** e) for e in range(0, 200, 7)]
    # floors on block edges, just off them, at and above the anchor
    floors += [S.c0 * sigma ** m * f for m in (0, 1, 2, 3, 17)
               for f in (1, Q(1001, 1000), Q(999, 1000))]
    floors += [S.c0 * 2, Q(1)]
    # a depth this large leaves the floor to MIN_SCALE, moved to each floor
    deep = OracleConfig(depth=8 * 4000)
    for f in floors:
        monkeypatch.setattr(oracle, "MIN_SCALE", f)
        assert _deep_blocks(S, deep) == _deep_blocks_walk(S, deep), f
    monkeypatch.undo()
    for cfg in [OracleConfig(depth=d) for d in (8, 64, 800, 1600)]:
        assert _deep_blocks(S, cfg) == _deep_blocks_walk(S, cfg), cfg
        for j, top, ws in _deep_samples(S, cfg):
            assert top == S.c0 * S.sigma ** j
            assert ws == _shape_points(S.shape)
    empty = AsymptoticSet(sigma, IvSet.empty(), c0=sigma ** j)
    assert _deep_blocks(empty, OracleConfig()) == []


def strict_json(data):
    """json.loads that refuses the non-JSON constants Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(data, parse_constant=refuse)


def test_failure_witnesses_serialize_to_strict_json():
    """Every witness kind the checks record: elements, sets, strings,
    booleans, integers, None, and float intervals that need not be
    finite."""
    x = PwFunction.upower(1)
    S = AsymptoticSet.orbit_point(Q(3, 4))
    rep = CheckReport(name="demo", anchor="anchor", seed=0)
    rep.record_failure(element=x, set=S, exact="1/2", predicate=True,
                       prefix=3, order=None, filter=repr(S),
                       interval=[1.5, math.inf], spread=[-math.inf, math.nan])
    assert not rep.passed
    got = strict_json(rep.canonical_bytes())["failures"][0]
    assert got["interval"] == [1.5, "inf"]
    assert got["spread"] == ["-inf", "nan"]
    assert got["element"] == x.to_dict() and got["set"] == S.to_dict()
    assert (got["exact"], got["predicate"], got["prefix"], got["order"]) \
        == ("1/2", True, 3, None)
    json.dumps(rep.to_dict(), allow_nan=False)


def test_a_failing_oracle_check_records_strict_json(monkeypatch):
    # an estimate that misses every valuation below 3/2 and diverges above
    from asymcalc.verify import checks
    monkeypatch.setattr(checks, "oracle_valuation", lambda x, cfg:
                        ValuationEstimate(1.5, math.inf, False))
    rep = run_checks("valuation-oracle", seed=0, size=8)[0]
    assert rep.failures and not rep.passed
    failures = strict_json(rep.canonical_bytes())["failures"]
    assert all(f["interval"] == [1.5, "inf"] for f in failures)
