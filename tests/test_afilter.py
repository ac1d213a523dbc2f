import random
from fractions import Fraction as Q

import pytest

from asymcalc.afilter import (FG, Closure, CounterExample, Interior, OfIdeal,
                              Verified, _arc_pair, _doubled_pair,
                              _filter_sigma, _rand_q, _some_member,
                              _split_member, filter_member, i_of_f_member,
                              prec_interval_basis, prime_check,
                              pseudoprime_check, rapid_element, rapid_witness)
from asymcalc.errors import (AsymcalcError, ChainNotDescending, ImproperFilter,
                             NotMember, PreconditionViolated)
from asymcalc.ideal import FgIdeal
from asymcalc.scaleset import AsymptoticSet, insert_between


def test_fg_membership(A, B, P, full):
    F = FG([A])
    assert filter_member(F, B)
    assert filter_member(F, A)
    assert not filter_member(F, P)
    assert filter_member(F, full)


def test_fg_member_needs_closed(A):
    F = FG([A])
    open_set = AsymptoticSet.orbit_interval(Q(3, 5), Q(9, 10),
                                            lc=False, hc=False)
    with pytest.raises(PreconditionViolated):
        filter_member(F, open_set)


def test_fg_rejects_improper():
    left = AsymptoticSet.orbit_interval(Q(9, 16), Q(5, 8))
    right = AsymptoticSet.orbit_interval(Q(3, 4), Q(7, 8))
    with pytest.raises(ImproperFilter):
        FG([left, right])


def test_interior_closure_membership(A, B):
    F = FG([A])
    assert filter_member(Interior(F), B)      # A strictly inside B
    assert not filter_member(Interior(F), A)  # not strictly inside itself
    assert filter_member(Closure(F), A)


def test_normalize_laws(A):
    F = FG([A])
    assert isinstance(Interior(Interior(F)).normalize(), Interior)
    assert isinstance(Closure(Closure(F)).normalize(), Closure)
    assert isinstance(Interior(Closure(F)).normalize(), Interior)
    assert isinstance(Closure(Interior(F)).normalize(), Closure)


def test_ofideal_membership(hat, full):
    from asymcalc.ivset import Iv, IvSet
    F = OfIdeal(FgIdeal([hat]))
    nbhd = AsymptoticSet(Q(1, 2), IvSet([
        Iv(Q(1, 2), Q(21, 32), False, True), Iv(Q(27, 32), 1, True, True)]))
    assert filter_member(F, nbhd)
    assert filter_member(F, full)
    assert not filter_member(F, AsymptoticSet.orbit_point(Q(3, 4)))
    # interior of the ideal filter is itself
    assert isinstance(Interior(F).normalize(), OfIdeal)


def test_i_of_f_member(hat, A, B):
    F = FG([A])
    assert not i_of_f_member(hat, F)   # hat(3/4) = 1 on the base
    Z = FG([AsymptoticSet.orbit_interval(Q(17, 32), Q(19, 32))])
    assert i_of_f_member(hat, Z)


def test_pseudoprime_refuted_for_fg(A, P):
    for S in (A, P):
        res = pseudoprime_check(FG([S]), trials=100, seed=7)
        assert isinstance(res, CounterExample)
        full = AsymptoticSet.full()
        assert full.subset_of(res.S.interior().union(res.T.interior()))
        assert not filter_member(FG([S]), res.S)
        assert not filter_member(FG([S]), res.T)


def test_prime_refuted_for_fg(A):
    F = FG([A])
    res = prime_check(F, trials=100, seed=7)
    assert isinstance(res, CounterExample)
    assert filter_member(F, res.S.union(res.T))
    assert not filter_member(F, res.S)
    assert not filter_member(F, res.T)


# -- reference: the two trial loops that _refute replaced -------------------


def _old_pseudoprime_check(F, trials, seed):
    if trials < 1:
        raise PreconditionViolated("at least one trial")
    F = F.normalize()
    sigma = _filter_sigma(F)
    full = AsymptoticSet.full(sigma)
    cuts = []
    base = _some_member(F)
    for iv in base.shape.ivs:
        cuts.extend([iv.lo, iv.hi])
    cuts = sorted(set(c for c in cuts if sigma < c < 1))
    done = 0
    for t in range(trials):
        rng = random.Random(f"pseudoprime-{seed}-{t}")
        if t % 3 == 2:
            if cuts and t % 6 == 2:
                cut = cuts[rng.randrange(len(cuts))]
            else:
                cut = _rand_q(rng, sigma, 1)
            try:
                S, T = _doubled_pair(sigma, cut)
            except (ValueError, ZeroDivisionError):
                continue
        else:
            S, T = _arc_pair(rng, sigma)
        if not full.subset_of(S.interior().union(T.interior())):
            continue
        done += 1
        if not filter_member(F, S) and not filter_member(F, T):
            return CounterExample(S, T)
    return Verified(done)


def _old_prime_check(F, trials, seed):
    if trials < 1:
        raise PreconditionViolated("at least one trial")
    F = F.normalize()
    sigma = _filter_sigma(F)
    member_set = _some_member(F)
    cuts = []
    for iv in member_set.shape.ivs:
        cuts.extend([iv.lo, iv.hi])
    cuts = sorted(set(c for c in cuts if sigma < c < 1))
    done = 0
    for t in range(trials):
        rng = random.Random(f"prime-{seed}-{t}")
        if t % 3 == 2:
            if cuts and t % 6 == 2:
                cut = cuts[rng.randrange(len(cuts))]
            else:
                cut = _rand_q(rng, sigma, 1)
            try:
                S, T = _doubled_pair(sigma, cut)
            except (ValueError, ZeroDivisionError):
                continue
        else:
            S, T = _split_member(member_set, rng, sigma)
        if S is None:
            continue
        U = S.union(T)
        if not filter_member(F, U.closure()):
            continue
        done += 1
        if not filter_member(F, S) and not filter_member(F, T):
            return CounterExample(S, T)
    return Verified(done)


def _outcome(check, F, trials, seed):
    try:
        res = check(F, trials, seed)
    except AsymcalcError as e:
        return type(e).__name__
    if isinstance(res, CounterExample):
        return "cex", res.S.to_dict(), res.T.to_dict()
    return res


def test_trial_loops_match_reference():
    from asymcalc.verify import corpus_generate
    filters = corpus_generate(17, 40).filters
    filters += [FG([AsymptoticSet.orbit_point(Q(k, 64))]) for k in (37, 45)]
    filters += [FG([AsymptoticSet.orbit_interval(Q(9, 16), Q(13, 16))])]
    kinds = {}
    for F in filters:
        for seed in (7, 1234, 99991):
            for new, old in ((prime_check, _old_prime_check),
                             (pseudoprime_check, _old_pseudoprime_check)):
                got = _outcome(new, F, 24, seed)
                assert got == _outcome(old, F, 24, seed), (F, seed, new)
                kind = got[0] if isinstance(got, tuple) else type(got)
                kinds[kind] = kinds.get(kind, 0) + 1
    # both outcomes occur, so the comparison covers both exits of the loop
    assert kinds.get("cex") and kinds.get(Verified)


def test_result_truthiness():
    # Verified is truthy ("property held"), CounterExample is falsy
    assert bool(Verified(trials=10))
    S = AsymptoticSet.full()
    assert not bool(CounterExample(S, S))


def _chain(L=4):
    return [AsymptoticSet.orbit_interval(Q(40 - k, 64), Q(48 + k, 64))
            for k in range(L, 0, -1)]


def test_rapid_witness():
    chain = _chain()
    F = FG([c.closure() for c in chain])
    base = rapid_witness(F, chain)
    assert base.set_eq(chain[-1])


def test_rapid_witness_rejects_bad_chains(A, B):
    F = FG([B])
    with pytest.raises(NotMember):
        rapid_witness(F, [AsymptoticSet.orbit_point(Q(3, 4))])
    with pytest.raises(ChainNotDescending):
        rapid_witness(F, [B, B])


def test_rapid_element_sandwich():
    chain = _chain()
    phi = rapid_element(chain)
    x = phi.rep
    assert [c.s for c in x.comps] == [1, 2, 3, 4]
    # on the flat core of band n the element equals u^n exactly
    for n, an in ((1, Q(36, 64)), (2, Q(37, 64)), (3, Q(38, 64)),
                  (4, Q(39, 64))):
        for k in (1, 3, 9):
            u = an * Q(1, 2) ** k
            assert x.eval(u) == u ** n


def test_rapid_element_band_zero():
    # band 0, outside the outermost chain set: phi = eps exactly
    x = rapid_element(_chain()).rep
    for w in (Q(33, 64), Q(35, 64), Q(53, 64), Q(63, 64), Q(1)):
        for k in (0, 1, 5):
            u = w * Q(1, 2) ** k
            assert x.eval(u) == u


def test_rapid_element_six_term_chain():
    chain = _chain(6)
    phi = rapid_element(chain)
    assert [c.s for c in phi.rep.comps] == [1, 2, 3, 4, 5, 6]


def test_prec_interval_basis(A, B, full):
    pred = prec_interval_basis(A, B)
    assert pred(insert_between(A, B))
    assert not pred(A)
    assert not pred(full)
    pf = prec_interval_basis(full, full)
    assert pf(full)
