"""End-to-end acceptance suite.

Each test exercises one release gate at desk scale: exact decision
procedures checked against independently constructed witnesses, seeded
corpora, and (in the last test) the numeric shadow oracle.  Every test
prints one PASS/FAIL line in the terminal summary and enforces a wall
clock budget.  Numeric corroboration that cannot decide an instance is
flagged inconclusive, never counted against the exact engine.

Criteria report through `CheckReport`, as the named checks do, and one
that shares a statement with a check calls that check's per-instance body.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as Q

from conftest import ACCEPTANCE_LINES, profile_points

from asymcalc.afilter import (FG, CounterExample, filter_member,
                              i_of_f_member, rapid_element, rapid_witness)
from asymcalc.errors import AsymcalcError
from asymcalc.genconst import (GenConstant, idempotent_class,
                               restr_invertible, restr_zero, urysohn,
                               zero_product_split)
from asymcalc.ideal import (FgIdeal, annihilator_member, closure_member,
                            f_of_I_member, hb_construct, ideal_member,
                            pure_part_member, radical_member, zclosure_member,
                            zpart_member)
from asymcalc.ivset import Iv, IvSet
from asymcalc.polytools import RootPt
from asymcalc.pwfunc import PwFunction
from asymcalc.scaleset import (AsymptoticSet, circle_closure,
                               distance_profile, insert_between, prec_union)
from asymcalc.signs import common_window, flat_common_zero, zero_set
from asymcalc.verify import (CheckReport, OracleConfig, corpus_generate,
                             ideal_of_fg, oracle_valuation,
                             oracle_vanishes_on, random_set)
from asymcalc.verify.checks import (cauchy_instance, duality_instance,
                                    extension_instance, galois_instance,
                                    interior_closure_instance,
                                    inv_char_instance, prime_cover_instance,
                                    zero_product_instance)
from asymcalc.verify.corpus import pair_stream, q64, tent

# -- shared plumbing ------------------------------------------------------

_CORPORA = {}


def corpus(seed, size=24):
    key = (seed, size)
    if key not in _CORPORA:
        _CORPORA[key] = corpus_generate(seed, size)
    return _CORPORA[key]


@contextmanager
def criterion(num, slug, budget):
    rep = CheckReport(name=slug, anchor=f"acceptance criterion {num}",
                      seed=0)
    t0 = time.perf_counter()
    ok = False
    try:
        yield rep
        ok = rep.passed
    finally:
        dt = rep.wall_time = time.perf_counter() - t0
        verdict = "PASS" if ok and dt < budget else "FAIL"
        extra = (f", {rep.inconclusive} inconclusive"
                 if rep.inconclusive else "")
        ACCEPTANCE_LINES.append(
            f"criterion {num:2d} [{slug}]: {verdict} "
            f"({rep.instances} instances{extra}, "
            f"{dt:.1f}s / budget {budget}s)")
    assert rep.passed, f"criterion {num} failed on: {rep.failures}"
    assert dt < budget, f"criterion {num} over budget: {dt:.1f}s >= {budget}s"


def distinct_cuts(rng, n):
    cuts = set()
    while len(cuts) < n:
        cuts.add(Q(rng.randint(33, 63), 64))
    return sorted(cuts)


# -- criterion 2 helper: independent refuting-subset search ---------------


def _refuter_windows(p, sg):
    """Candidate closed shapes around a window point, small to smaller."""
    out = []
    if isinstance(p, RootPt):
        for _ in range(3):
            p.refine()
        lo, hi = max(sg, p.lo), min(Q(1), p.hi)
        out.append((lo, hi))
        return out
    for h in (Q(1, 64), Q(1, 256)):
        lo, hi = max(sg, p - h), min(Q(1), p + h)
        out.extend([(lo, hi), (lo, max(lo, p)), (min(hi, p), hi)])
    if p > sg:
        out.append((p, p))
    return out


def find_refuter(x, S):
    """A nonempty subset of cl S on which x fails to be invertible, found
    by scanning profile roots and breakpoints of x, or None.  Decisions on
    the candidate subsets still go through restr_invertible; what this
    searches independently is the location."""
    xw, shape = common_window(x, S)
    sg, D = xw.sigma, xw.D
    clS = S.closure()
    if xw.is_negligible():
        return clS if not clS.is_empty() else None
    C = circle_closure(shape, sg)
    flat = flat_common_zero(xw).intersect(IvSet(
        [Iv(iv.lo, iv.hi, True, True) for iv in C.ivs]))
    cands = []
    for iv in flat.ivs:
        cands.append(iv.lo if iv.lo == iv.hi else (iv.lo + iv.hi) / 2)
    # every breakpoint and root of the r = 0 profiles, not the engine's
    # pruned walk, whose pruning this search should corroborate
    cands.extend(profile_points([c.g for c in xw.comps if c.r == 0]))
    seen = set()
    for p in cands:
        key = repr(p)
        if key in seen:
            continue
        seen.add(key)
        for (lo, hi) in _refuter_windows(p, sg):
            if hi < lo or hi <= sg:
                continue
            T = AsymptoticSet.orbit_interval(lo, hi, sg, lo > sg, True, D)
            Tc = T.intersect(clS)
            if Tc.is_empty() or not Tc.is_characteristic():
                continue
            if not restr_invertible(x, Tc)[0]:
                return Tc
    return None


# -- criterion 5 helper: independent vanishing-filter membership ----------


def flat_zero_set(x):
    """The largest representable set on which x vanishes at all orders:
    the common flat zeros plus isolated common zeros of the live
    profiles.  None when irrational isolated zeros make the rational
    shape ambiguous."""
    full = AsymptoticSet.full(x.sigma, x.D)
    xw, _ = common_window(x, full)
    if xw.is_negligible():
        return full
    Z, irrational = zero_set(xw)
    if irrational:
        return None
    win = IvSet([Iv(xw.sigma, Q(1), False, True)])
    return AsymptoticSet(xw.sigma, Z.intersect(win), D=xw.D)


def independent_vanishing_member(x, I):
    """Whether x vanishes on some member of the invertibility filter of I,
    decided through the maximal vanishing set of x rather than through
    the pure-part routine.  None when undecidable over rational shapes."""
    S = flat_zero_set(x)
    if S is None:
        return None
    if S.is_empty():
        return False
    if not S.is_characteristic():
        return True
    assert restr_zero(x, S)
    return f_of_I_member(S, I)


# -- the criteria ---------------------------------------------------------


def test_c01_extension_order_duality_and_density():
    rng = random.Random("accept-01")
    with criterion(1, "order-duality-density", 10) as st:
        for k in range(300):
            if k % 2 == 0:
                S = random_set(rng)
                T = random_set(rng)
            else:
                cuts = distinct_cuts(rng, 4)
                S = AsymptoticSet.orbit_interval(cuts[1], cuts[2])
                T = AsymptoticSet.orbit_interval(cuts[0], cuts[3],
                                                 lc=False, hc=False)
            duality_instance(st, S, T)


def test_c02_invertibility_characterization():
    rng = random.Random("accept-02")
    cp = corpus(5, 40)
    pairs = pair_stream(rng, cp)
    with criterion(2, "inv-char", 60) as st:
        opened = 0
        while st.instances < 200:
            x, S = next(pairs)
            if not S.is_characteristic():
                continue
            # (a) <=> (c): constructive inversion succeeds exactly when the
            # predicate holds, up to the single-component representation
            # limit, and the constructed inverse is exact.
            ok, n = inv_char_instance(st, x, S)
            # (a) <=> (d): the refuting-subset search finds a witness
            # exactly on the non-invertible pairs.
            T = find_refuter(x, S)
            if ok:
                assert T is None, "refuter found under an invertible pair"
            else:
                assert T is not None, "no refuting subset found"
                assert T.subset_of(S.closure())
                assert not restr_invertible(x, T)[0]
            # openness: an order-n invertible restriction survives
            # perturbation by one further scale power.
            if ok and opened < 50:
                opened += 1
                bump = GenConstant(x.eps_power(n + 1))
                assert restr_invertible((GenConstant(x) + bump).rep, S)[0]
                assert restr_invertible((GenConstant(x) - bump).rep, S)[0]


def test_c03_zero_and_invertible_extension():
    rng = random.Random("accept-03")
    cp = corpus(7, 40)
    pairs = pair_stream(rng, cp)
    with criterion(3, "extension", 60) as st:
        while st.instances < 200:
            pick = st.instances % 4
            if pick == 0:
                # crafted vanishing restriction: a tent, probed away from
                # its support
                cuts = distinct_cuts(rng, 5)
                x = tent(cuts[2], cuts[3], cuts[4])
                S = AsymptoticSet.orbit_interval(cuts[0], cuts[1])
            elif pick == 1:
                # crafted invertible restriction: a tent probed at its core
                cuts = distinct_cuts(rng, 3)
                x = tent(cuts[0], cuts[1], cuts[2])
                S = AsymptoticSet.orbit_point(cuts[1])
            else:
                x, S = next(pairs)
                if not S.is_characteristic():
                    continue
            extension_instance(st, x, S)


def test_c04_zero_product_split():
    rng = random.Random("accept-04")
    with criterion(4, "zero-product", 30) as st:
        for k in range(100):
            cuts = distinct_cuts(rng, 6)
            a = tent(cuts[0], cuts[1], cuts[2])
            b = tent(cuts[3], cuts[4], cuts[5])
            if k % 3 == 2:
                # extra deep components inside the same disjoint supports
                a = (GenConstant(a)
                     + GenConstant(tent(cuts[0], cuts[1], cuts[2], r=1))).rep
                b = (GenConstant(b)
                     + GenConstant(tent(cuts[3], cuts[4], cuts[5], r=2))).rep
            assert a.mul(b).is_zero()
            zero_product_instance(st, a, b)
        assert st.inconclusive == 0


def test_c05_filter_ideal_correspondence():
    rng = random.Random("accept-05")
    cp = corpus(9, 40)
    with criterion(5, "galois-correspondence", 120) as st:
        # direction one: the invertibility filter of a realized ideal of a
        # generated filter recovers the interior of the filter
        filters = [f for f in cp.filters if isinstance(f, FG)]
        while len(filters) < 50:
            filters.append(FG([random_set(rng).closure()]))
        for F in filters[:50]:
            I = ideal_of_fg(F)
            for _ in range(100):
                galois_instance(st, F, I, random_set(rng).closure())
        # direction two: the ideal of the invertibility filter is the pure
        # part, checked against an independent maximal-vanishing-set probe
        ideals = [I for I in cp.ideals if I.is_proper() and not I.is_zero()]
        while len(ideals) < 50:
            cuts = distinct_cuts(rng, 3)
            if len(ideals) % 2 == 0:
                A = AsymptoticSet.orbit_interval(cuts[0], cuts[2])
                ideals.append(FgIdeal([distance_profile(A)]))
            else:
                ideals.append(FgIdeal([tent(cuts[0], cuts[1], cuts[2])]))
        probe_rng = random.Random("accept-05-probes")
        for I in ideals[:50]:
            for j in range(100):
                if j % 2 == 0:
                    x = probe_rng.choice(cp.elements)
                else:
                    cuts = distinct_cuts(probe_rng, 3)
                    x = tent(cuts[0], cuts[1], cuts[2])
                st.instances += 1
                indep = independent_vanishing_member(x, I)
                pure, wit = pure_part_member(x, I)
                if indep is None:
                    st.inconclusive += 1
                else:
                    assert indep == pure, \
                        "pure part disagrees with the vanishing-set probe"
                if pure and wit is not None:
                    xg = GenConstant(x)
                    assert (xg * wit).rep.equiv(xg.rep), \
                        "purity witness fails x = x*y"
                    assert ideal_member(wit.rep, I)[0], \
                        "purity witness lies outside the ideal"


def test_c06_closure_laws():
    rng = random.Random("accept-06")
    cp = corpus(13, 40)
    with criterion(6, "closure-laws", 120) as st:
        for F in cp.filters[:25]:
            for _ in range(8):
                interior_closure_instance(st, F, random_set(rng).closure())
        # adjoining a closure element to a finitely generated ideal leaves
        # its invertibility filter unchanged
        for k in range(12):
            cuts = distinct_cuts(rng, 2)
            A = AsymptoticSet.orbit_interval(cuts[0], cuts[1])
            d = GenConstant(distance_profile(A))
            I = FgIdeal([d * d])
            assert closure_member(d.rep, I) and not ideal_member(d.rep, I)[0]
            J = FgIdeal([d * d, d])
            for _ in range(8):
                S = random_set(rng).closure()
                st.instances += 1
                assert f_of_I_member(S, I) == f_of_I_member(S, J), \
                    "adjoining a closure element changed the filter"
        # closure approximation: pure elements admit exact multiplicative
        # approximants, so every valuation gap up to 8 is witnessed
        for k in range(10):
            cuts = distinct_cuts(rng, 5)
            A = AsymptoticSet.orbit_interval(cuts[0], cuts[1])
            I = FgIdeal([distance_profile(A)])
            x = tent(cuts[2], cuts[3], cuts[4])
            pure, y = pure_part_member(x, I)
            assert pure and y is not None
            xg = GenConstant(x)
            for n in range(1, 9):
                st.instances += 1
                gap = (xg * y - xg).rep.valuation()
                assert gap is None or gap >= n, \
                    f"approximation gap below {n}"


def test_c07_prime_and_pseudoprime():
    rng = random.Random("accept-07")
    cp = corpus(17, 40)
    full = AsymptoticSet.full()
    filters = [f for f in cp.filters if isinstance(f, FG)]
    filters.extend(FG([AsymptoticSet.orbit_point(q64(rng))])
                   for _ in range(6))
    while len(filters) < 12:
        filters.append(FG([random_set(rng).closure()]))
    with criterion(7, "prime-pseudoprime", 120) as st:
        for F in filters:
            # every representable finitely generated filter is refutable,
            # and one constructed cover refutes both properties
            ce = prime_cover_instance(st, F)
            assert isinstance(ce, CounterExample), \
                "refuter built no counterexample"
            S, T = ce.S, ce.T
            # the parts are closed, so the pseudoprime counterexample
            # covers with a closed union and also refutes primality;
            # consistent with prime <=> pseudoprime and radical
            assert S.is_closed() and T.is_closed()
            # transfer filter -> ideal: build an exact zero-divisor pair
            # outside the ideal of the filter; fattening each half of the
            # covering split keeps the zero sets overlapping on bands
            V, W = prec_union(S.interior(), T.interior(), full)
            M = insert_between(V, S.interior())
            N = insert_between(W, T.interior())
            x = urysohn(M, S.interior())
            y = urysohn(N, T.interior())
            st.instances += 1
            assert (x * y).rep.is_zero(), "transfer pair product not zero"
            assert not i_of_f_member(x, F), "transfer element fell in I(F)"
            assert not i_of_f_member(y, F), "transfer element fell in I(F)"
            # transfer ideal -> filter: split the zero product back into a
            # covering pair outside the filter
            T2, U2 = zero_product_split(x, y)
            T2, U2 = T2.closure(), U2.closure()
            st.instances += 1
            assert full.subset_of(T2.interior().union(U2.interior()))
            assert restr_zero(x, T2) and restr_zero(y, U2)
            assert not filter_member(F, T2) and not filter_member(F, U2)
        assert st.inconclusive == 0


def _descending_chain(base, c, length=4):
    """Members of FG([base]) strictly descending in the extension order
    towards the base.  Each set lies strictly between the base and the
    one before; the first such set sits below the complement of a point
    orbit outside the base, tried at c first.  A full base has no proper
    superset, so its only chain is [base]."""
    sg, D = base.sigma, base.D
    if base.set_eq(AsymptoticSet.full(sg, D)):
        return [base]
    p = next(q for q in [c] + [Q(i, 64) for i in range(33, 65)]
             if base.intersect(AsymptoticSet.orbit_point(q, sg, D)).is_empty())
    S = AsymptoticSet.orbit_point(p, sg, D).complement()
    chain = []
    for _ in range(length):
        S = insert_between(base, S)
        chain.append(S)
    return chain


def test_c08_rapid_witnesses_and_closedness():
    rng = random.Random("accept-08")
    cp = corpus(19, 40)
    with criterion(8, "rapid-closedness", 60) as st:
        filters = [f for f in cp.filters if isinstance(f, FG)]
        while len(filters) < 10:
            filters.append(FG([random_set(rng).closure()]))
        for F in filters:
            st.instances += 1
            base = F.base()
            c = q64(rng)
            chain = _descending_chain(base, c)
            W = rapid_witness(F, chain)
            assert filter_member(F, W.closure()), "witness left the filter"
            for Sk in chain:
                assert not W.difference(Sk).is_characteristic(), \
                    "witness remainder accumulates"
            # closedness probes for the ideal of the filter
            J = ideal_of_fg(F)
            d = GenConstant(distance_profile(base))
            for x in (d, d * d, d * GenConstant.const(3, d.sigma)):
                st.instances += 1
                assert closure_member(x.rep, J)
                assert i_of_f_member(x, F), \
                    "closure element escaped the closed ideal"
        # exact band inequalities for the canonical rapid element of a
        # six-term descending chain
        chain6 = [AsymptoticSet.orbit_interval(Q(40 - k, 64), Q(48 + k, 64))
                  for k in range(6, 0, -1)]
        phi = rapid_element(chain6)
        assert [c.s for c in phi.rep.comps] == [1, 2, 3, 4, 5, 6]
        sg = phi.rep.sigma
        for j in range(1, 9):
            for i in range(33, 65):
                w = Q(i, 64) - Q(1, 128)
                u = w * sg ** j
                n = sum(1 for Sk in chain6 if Sk.contains(u))
                st.instances += 1
                val = phi.rep.eval(u)
                assert u ** (n + 1) <= val <= 2 * u ** n, \
                    f"band inequality fails at u={u} (band {n})"


def test_c09_finitely_generated_structure():
    rng = random.Random("accept-09")
    cp = corpus(23, 40)
    with criterion(9, "fg-structure", 60) as st:
        ideals = [I for I in cp.ideals if I.is_proper()]
        while len(ideals) < 8:
            cuts = distinct_cuts(rng, 3)
            ideals.append(FgIdeal([tent(cuts[0], cuts[1], cuts[2])]))
        pairs = pair_stream(rng, cp)
        for k in range(200):
            x, _ = next(pairs)
            if k % 3 == 0:
                cuts = distinct_cuts(rng, 3)
                x = tent(cuts[0], cuts[1], cuts[2])
            I = ideals[k % len(ideals)]
            st.instances += 1
            assert zclosure_member(x, I) == closure_member(x, I), \
                "zclosure_member disagrees with closure_member"
            assert zpart_member(x, I) == pure_part_member(x, I)[0], \
                "zpart_member disagrees with pure_part_member"
        # no proper nonzero finitely generated ideal is radical: a square
        # generator admits an order-halving radical witness outside it
        for k in range(10):
            cuts = distinct_cuts(rng, 3)
            if k % 2 == 0:
                g = GenConstant(distance_profile(
                    AsymptoticSet.orbit_interval(cuts[0], cuts[2])))
            else:
                g = GenConstant(tent(cuts[0], cuts[1], cuts[2]))
            I = FgIdeal([g * g])
            st.instances += 1
            assert I.is_proper() and not I.is_zero()
            rad, m, _ = radical_member(g.rep, I, mmax=4)
            assert rad and m >= 2, "radical witness not certified"
            assert not ideal_member(g.rep, I)[0], \
                "square ideal unexpectedly radical"


def test_c10_completeness():
    rng = random.Random("accept-10")
    cp = corpus(29, 40)
    with criterion(10, "cauchy-completeness", 30) as st:
        for k in range(20):
            base = GenConstant(rng.choice(cp.elements))
            xs = [base]
            for n in range(1, 6):
                c = Q(rng.randint(-8, 8), 8)
                step = GenConstant(PwFunction.upower(n + 1)) * \
                    GenConstant.const(c, base.sigma)
                if n % 2 == 0:
                    cuts = distinct_cuts(rng, 3)
                    step = GenConstant(
                        tent(cuts[0], cuts[1], cuts[2], s=n + 1))
                xs.append(xs[-1] + step)
            cauchy_instance(st, xs)
        assert st.inconclusive == 0


def test_c11_annihilators_and_idempotents():
    rng = random.Random("accept-11")
    cp = corpus(31, 40)
    with criterion(11, "annihilator-hb", 30) as st:
        J, x, y = hb_construct()
        st.instances += 1
        assert ideal_member(x, J)[0]
        assert annihilator_member(y, J)
        assert (x * y).rep.is_zero()
        assert not x.is_negligible() and not y.is_negligible()
        # annihilator membership certifies exact zero products with every
        # generator, and the closure meets the annihilator only at zero
        probes = [GenConstant(e) for e in cp.elements[:20]]
        probes.extend([x, y, GenConstant.zero(), GenConstant.const(1)])
        for z in probes:
            st.instances += 1
            if annihilator_member(z, J):
                for g in J.gens:
                    assert (z * g).rep.is_negligible(), \
                        "annihilator member with nonzero product"
                if closure_member(z.rep, J):
                    assert z.is_negligible(), \
                        "closure meets annihilator away from zero"
        # idempotent dichotomy on the instance: every exact idempotent
        # probe classifies as 0 or 1
        e0 = GenConstant.zero()
        e1 = GenConstant.const(1)
        negl = GenConstant(tent(Q(17, 32), Q(9, 16), Q(19, 32), r=1))
        for e in (e0, e1, e1 + negl, e0 + negl):
            st.instances += 1
            cls = idempotent_class(e)
            assert ((e * e) - e).rep.is_negligible()
            assert cls is not None, "idempotent escaped the dichotomy"
            assert (e - GenConstant.const(cls, e.sigma)).rep.is_negligible()
        for e in (x, GenConstant.const(2)):
            st.instances += 1
            assert not ((e * e) - e).rep.is_negligible()
            assert idempotent_class(e) is None


def test_c12_oracle_corroboration():
    rng = random.Random("accept-12")
    cp = corpus(37, 60)
    with criterion(12, "oracle-corroboration", 300) as st:
        hard_failures = 0
        matched = total = 0
        vgrid = OracleConfig(depth=1600, window=200)
        for x in cp.elements[:40]:
            st.instances += 1
            total += 1
            v = x.valuation()
            try:
                est = oracle_valuation(x, vgrid)
            except AsymcalcError:
                st.inconclusive += 1
                continue
            if v is None:
                agree = est.diverging
            else:
                agree = (not est.diverging
                         and est.lo - 0.05 <= float(v) <= est.hi + 0.05)
            if agree:
                matched += 1
            else:
                hard_failures += 1
        bgrid = OracleConfig(depth=400, window=40)
        pairs = pair_stream(rng, cp)
        done = 0
        while done < 60:
            x, S = next(pairs)
            if not S.is_characteristic():
                continue
            done += 1
            st.instances += 1
            total += 1
            exact = restr_zero(x, S)
            shadow = oracle_vanishes_on(x, S, bgrid)
            if shadow is None:
                st.inconclusive += 1
            elif shadow == exact:
                matched += 1
            else:
                hard_failures += 1
        assert hard_failures == 0, \
            f"{hard_failures} exact/oracle disagreements"
        assert matched + st.inconclusive == total
        assert matched >= Q(99, 100) * total, \
            f"agreement {matched}/{total} below 99%"
