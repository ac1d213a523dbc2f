import ast
import itertools
import pathlib
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymcalc.afilter as afilter_mod
from asymcalc.afilter import (FG, Closure, CounterExample, Interior, OfIdeal,
                              _some_member, filter_member, i_of_f_member,
                              rapid_element, rapid_witness, refuting_cover)
from asymcalc.errors import (AsymcalcError, ChainNotDescending, ImproperFilter,
                             NotMember, PreconditionViolated)
from asymcalc.grid import unify
from asymcalc.ideal import FgIdeal, f_of_I_member
from asymcalc.ivset import Iv, IvSet
from asymcalc.pwfunc import PwFunction, TailComponent
from asymcalc.scaleset import (AsymptoticSet, circle_closure, distance_profile,
                               grow_circle, upto1)
from asymcalc.signs import obstruction_on
from asymcalc.verify import corpus_generate
from asymcalc.verify.corpus import tent
from asymcalc.window import Piecewise


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


# -- the normal form against the recursive rules it replaced ---------------


def _ref_normalize(F):
    """The per-operator recursive normalize the one normal form replaced:
    int int = int, int cl = int, int F(I) = F(I), cl cl = cl, cl int = cl."""
    if isinstance(F, Interior):
        inner = _ref_normalize(F.of)
        if isinstance(inner, (OfIdeal, Interior)):
            return inner
        if isinstance(inner, Closure):
            return _ref_normalize(Interior(inner.of))
        return Interior(inner)
    if isinstance(F, Closure):
        inner = _ref_normalize(F.of)
        if isinstance(inner, Closure):
            return inner
        if isinstance(inner, Interior):
            return _ref_normalize(Closure(inner.of))
        return Closure(inner)
    return F


def _ref_member(F, S):
    """The per-class recursive membership the one normal form replaced."""
    if not S.is_closed():
        raise PreconditionViolated("closed sets only")
    if isinstance(F, FG):
        G, s = unify(F.base(), S)
        return G.shape.subset_of(s.shape)
    if isinstance(F, OfIdeal):
        return f_of_I_member(S, F.ideal)
    base = _ref_normalize(F)
    if type(base) is not type(F):
        return _ref_member(base, S)
    inner = base.of
    if isinstance(inner, FG):
        G, s = unify(inner.base(),
                     S.interior() if isinstance(F, Interior) else S)
        return G.shape.subset_of(s.shape)
    assert isinstance(F, Closure) and isinstance(inner, OfIdeal)
    return afilter_mod._closure_of_ideal_member(S, inner.ideal)


def _nestings(core, depth=3):
    """Every stack of up to `depth` interior and closure operators over
    core."""
    out = [core]
    for k in range(1, depth + 1):
        for ops in itertools.product((Interior, Closure), repeat=k):
            F = core
            for op in ops:
                F = op(F)
            out.append(F)
    return out


def _layers(F):
    """The operator types of F from the outside in, ending at the core."""
    out = [type(F)]
    while isinstance(F, (Interior, Closure)):
        F = F.of
        out.append(type(F))
    return out


@pytest.fixture(scope="module")
def corpus_cores():
    """A generated and a proper ideal core from one corpus, with its closed
    sets, the generated base and the ideal's full set as probes."""
    c = corpus_generate(3, 12)
    fg, ideal = c.filters[3], c.filters[0]
    assert isinstance(fg, FG) and isinstance(ideal, OfIdeal)
    assert ideal.ideal.is_proper()
    probes = [S for S in c.sets if S.is_closed()]
    probes += [fg.base(), ideal.ideal.full_set(), _edge_probe(ideal.ideal)]
    return (fg, ideal), probes


def _edge_probe(I):
    """The window minus an open arc (a, m) that starts at the top a of the
    first flat zero of sos and stops halfway to the next obstruction: the
    closed arc meets the zero at a and the open one misses it, so the set
    is in cl F(I) and not in F(I)."""
    sos, _, (flat, pts) = obstruction_on(I.sos_germ, I.full_set())
    a = flat.ivs[0].hi
    b = min([p.pos for p in pts if p.pos > a] +
            [iv.lo for iv in flat.ivs if iv.lo > a])
    S = AsymptoticSet(sos.sigma, IvSet([
        Iv(sos.sigma, a, False, True), Iv((a + b) / 2, Q(1), True, True)]))
    F = OfIdeal(I)
    assert filter_member(Closure(F), S) and not filter_member(F, S)
    return S


def test_normal_form_matches_the_recursive_rules(corpus_cores):
    cores, probes = corpus_cores
    for core in cores:
        seen = set()
        for F in _nestings(core):
            N = F.normalize()
            assert _layers(N) == _layers(_ref_normalize(F)), F
            assert afilter_mod._core(N) is core
            for S in probes:
                got = filter_member(F, S)
                assert got == _ref_member(F, S), (F, S)
                seen.add(got)
        # the probes separate members from non-members
        assert seen == {True, False}


def test_normal_form_needs_closed_probes(corpus_cores):
    cores, _ = corpus_cores
    open_set = AsymptoticSet.orbit_interval(Q(3, 5), Q(9, 10),
                                            lc=False, hc=False)
    for core in cores:
        for F in _nestings(core):
            with pytest.raises(PreconditionViolated):
                filter_member(F, open_set)


def test_afilter_has_one_normalize_and_no_member():
    """Membership is decided in `filter_member` alone, from the normal
    form that the base class's `normalize` alone defines."""
    tree = ast.parse(pathlib.Path(afilter_mod.__file__).read_text(
        encoding="utf-8"))
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)]
    assert names.count("normalize") == 1
    assert names.count("filter_member") == 1
    assert "member" not in names and "_need_closed" not in names
    assert "normalize" in vars(afilter_mod.FilterExpr)


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


def _assert_certificate(F, ce, sigma=Q(1, 2)):
    """The three conditions of a refuting cover, through filter_member."""
    assert isinstance(ce, CounterExample)
    S, T = ce.S, ce.T
    assert S.is_closed() and T.is_closed()
    assert filter_member(F, S.union(T))
    full = AsymptoticSet.full(sigma)
    assert full.subset_of(S.interior().union(T.interior()))
    assert not filter_member(F, S) and not filter_member(F, T)


def test_pseudoprime_refuted_for_fg(A, P):
    for S in (A, P):
        res = refuting_cover(FG([S]))
        full = AsymptoticSet.full()
        assert full.subset_of(res.S.interior().union(res.T.interior()))
        assert not filter_member(FG([S]), res.S)
        assert not filter_member(FG([S]), res.T)


def test_prime_refuted_for_fg(A):
    F = FG([A])
    res = refuting_cover(F)
    assert filter_member(F, res.S.union(res.T))
    assert not filter_member(F, res.S)
    assert not filter_member(F, res.T)


def test_improper_ideal_filter_raises():
    F = OfIdeal(FgIdeal([PwFunction.upower(1)]))
    assert filter_member(F, AsymptoticSet.empty())
    for G in (F, Closure(F)):
        with pytest.raises(ImproperFilter):
            refuting_cover(G)


def _root_element(sigma):
    """(2w^2 - 1)^2 (1 + k(1 - w)) with k chosen for the seam rule: its
    only window zero is the irrational w = 1/sqrt(2)."""
    q = (2 * sigma * sigma - 1) ** 2
    k = (1 / q - 1) / (1 - sigma)
    g = Piecewise.from_poly(sigma, 1, (1, 0, -4, 0, 4)).mul(
        Piecewise.from_poly(sigma, 1, (1 + k, -k)))
    return PwFunction(sigma, [TailComponent(0, 0, g)])


def _seam_element(sigma):
    """A tent vanishing at the seam plus -u: they cancel on the sigma+ side
    of w = sigma and the left side of w = 1, and nowhere else."""
    tent = Piecewise.linear_interp([(sigma, 0), (Q(5, 6), 1), (Q(1), 0)])
    return PwFunction(sigma, [
        TailComponent(0, 0, tent),
        TailComponent(1, 0, Piecewise.from_poly(sigma, 1, (0, -1)))])


@pytest.mark.parametrize("sigma", [Q(1, 2), Q(2, 3)])
def test_refuting_cover_at_a_seam_bad_point(sigma):
    # the first bad point is the sigma+ side of w = sigma, whose orbit is
    # that of w = 1, so the cover is cut around the copies of 1
    I = FgIdeal([_seam_element(sigma)])
    flat, pts = obstruction_on(I.sos_germ, I.full_set())[2]
    assert not flat and pts[0].pos == sigma and pts[0].right_bad
    F = OfIdeal(I)
    _assert_certificate(F, refuting_cover(F), sigma)


@st.composite
def filters(draw):
    """(filter, ratio): corpus filters, and on the ratios 1/2 and 2/3
    generated filters of orbit points and intervals, their interiors and
    closures, and the filters of ideals vanishing on such sets, at an
    irrational point, cancelling at the seam, or vanishing nowhere."""
    kind = draw(st.sampled_from(["corpus", "fg", "ideal", "root", "seam",
                                 "improper"]))
    if kind == "corpus":
        fs = corpus_generate(draw(st.integers(0, 30)), 12).filters
        return draw(st.sampled_from(fs)), Q(1, 2)
    sg = draw(st.sampled_from([Q(1, 2), Q(2, 3)]))
    if kind in ("root", "seam"):
        elt = _root_element if kind == "root" else _seam_element
        F = OfIdeal(FgIdeal([elt(sg)]))
    elif kind == "improper":
        F = OfIdeal(FgIdeal([PwFunction.upower(1, sg)]))
    else:
        ks = sorted(draw(st.sets(st.integers(1, 24), min_size=1,
                                 max_size=2)))
        a, b = (sg + (1 - sg) * Q(k, 24) for k in (ks[0], ks[-1]))
        S = AsymptoticSet.orbit_interval(a, b, sg)
        F = FG([S]) if kind == "fg" else \
            OfIdeal(FgIdeal([distance_profile(S)]))
    wrap = draw(st.sampled_from([None, Interior, Closure]))
    return (F if wrap is None else wrap(F)), sg


@settings(max_examples=60, deadline=None)
@given(filters())
def test_refuting_cover_certifies(F_sg):
    F, sg = F_sg
    if filter_member(F, AsymptoticSet.empty(sg)):
        # an improper filter holds every set and has no certificate
        with pytest.raises(ImproperFilter):
            refuting_cover(F)
        return
    _assert_certificate(F, refuting_cover(F), sg)


# -- reference: the randomized refuter the constructed cover replaced -------


def _rand_q(rng, lo, hi, den=64):
    n = rng.randrange(1, den)
    return lo + (hi - lo) * Q(n, den)


def _arc_pair(rng, sigma):
    """Two closed overlapping window arcs whose interiors cover the
    circle."""
    a = _rand_q(rng, sigma, 1)
    b = _rand_q(rng, sigma, 1)
    if a == b:
        b = sigma + (a - sigma) / 2
    a, b = min(a, b), max(a, b)
    eps = min((b - a) / 4, (a - sigma) / 2 + (1 - b) / 2) / 2
    if eps == 0:
        eps = (b - a) / 8
    S = AsymptoticSet(sigma, IvSet([Iv(a - eps if a - eps > sigma else a,
                                       b + eps if b + eps <= 1 else b,
                                       True, True)]).intersect(upto1(sigma)))
    # complementary arc through the seam, fattened to overlap
    Tsh = IvSet([Iv(sigma, a, False, True), Iv(b, Q(1), True, True)])
    T = AsymptoticSet(sigma, grow_circle(Tsh, eps, sigma))
    return S.closure(), T.closure()


def _doubled_pair(sigma, cut):
    """A period-doubled cover: on the squared ratio, one arc around the
    even copy of the cut and one around the odd copy, each avoiding the
    other copy."""
    s2 = sigma * sigma
    even, odd = cut, cut * sigma
    gap = min(abs(even - odd), even - s2, odd - s2, 1 - even, 1 - odd) / 4
    S = AsymptoticSet(s2, _arc_avoiding(s2, even, odd, gap))
    T = AsymptoticSet(s2, _arc_avoiding(s2, odd, even, gap))
    return S.closure(), T.closure()


def _arc_avoiding(sigma, around, avoid, gap):
    """The closed window circle minus an open gap around `avoid`."""
    lo, hi = avoid - gap, avoid + gap
    if lo <= sigma or hi >= 1:
        raise ValueError("gap leaves the window")
    if lo <= around <= hi:
        raise ValueError("gap hits the point to keep")
    return circle_closure(IvSet([Iv(sigma, lo, False, True),
                                 Iv(hi, Q(1), True, True)]), sigma)


def _split_member(G, rng, sigma):
    """Split a member's window shape at a random interior point."""
    fats = G.shape.fat_part().ivs
    if fats:
        iv = fats[rng.randrange(len(fats))]
        cut = _rand_q(rng, iv.lo, iv.hi)
        left = IvSet([Iv(iv.lo, cut, iv.lc, True)])
        right = IvSet([Iv(cut, iv.hi, True, iv.hc)])
    else:
        pts = list(G.shape.points())
        if len(pts) < 1:
            return None, None
        cut = pts[rng.randrange(len(pts))]
        left = IvSet([Iv(cut, cut, True, True)])
        right = IvSet.empty()
    rest = G.shape.difference(IvSet([iv]) if fats else left,
                              upto1(sigma).ivs[0])
    S = AsymptoticSet(sigma, left.union(rest), D=G.D).closure()
    T = AsymptoticSet(sigma, right.union(rest), D=G.D).closure()
    return S, T


def _random_refuter(F, trials, stream, split, covers):
    """The seeded trial loop: trial t draws from
    random.Random(f"{stream}-{t}"); every third trial tries a
    period-doubled cover, cut at a break of a member's shape on every other
    such trial, and the rest take split(member, rng, sigma).  Returns the
    first pair that covers with neither part in F, or None."""
    F = F.normalize()
    member = _some_member(F)
    sigma = member.sigma
    cuts = sorted(set(c for iv in member.shape.ivs for c in (iv.lo, iv.hi)
                      if sigma < c < 1))
    for t in range(trials):
        rng = random.Random(f"{stream}-{t}")
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
            S, T = split(member, rng, sigma)
        if S is None or not covers(F, sigma, S, T):
            continue
        if not filter_member(F, S) and not filter_member(F, T):
            return CounterExample(S, T)
    return None


def _old_pseudoprime_check(F, trials, seed):
    def covers(F, sigma, S, T):
        full = AsymptoticSet.full(sigma)
        return full.subset_of(S.interior().union(T.interior()))
    return _random_refuter(F, trials, f"pseudoprime-{seed}",
                           lambda member, rng, sigma: _arc_pair(rng, sigma),
                           covers)


def _old_prime_check(F, trials, seed):
    def covers(F, sigma, S, T):
        return filter_member(F, S.union(T).closure())
    return _random_refuter(F, trials, f"prime-{seed}", _split_member, covers)


def test_constructed_cover_refutes_what_the_random_search_refutes():
    refuted = 0
    for F in corpus_generate(17, 40).filters:
        for old in (_old_prime_check, _old_pseudoprime_check):
            try:
                res = old(F, 24, 7)
            except AsymcalcError:
                continue
            if res is not None:
                refuted += 1
                _assert_certificate(F, refuting_cover(F))
    assert refuted


def test_only_verify_imports_random():
    """The library is deterministic: outside `verify`, no module imports
    random."""
    root = pathlib.Path(afilter_mod.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.parent.name == "verify":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [path.name for a in node.names
                          if a.name.split(".")[0] == "random"]
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "random":
                found.append(path.name)
    assert found == []


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


def _runs_bump_profile(pts, sigma, n, D):
    """Reference: the run-splitting bump, zero between consecutive zero
    nodes and outside the node range."""
    mono = Piecewise.from_poly(sigma, Q(1), (Q(0),) * (n * D) + (Q(1),))
    runs, cur = [], [pts[0]]
    for prev, nxt in zip(pts, pts[1:]):
        if prev[1] == 0 and nxt[1] == 0 and prev[0] != nxt[0]:
            runs.append(cur)
            cur = [nxt]
        else:
            cur.append(nxt)
    runs.append(cur)
    out, w = [], sigma
    for run in runs:
        if len(run) < 2:
            continue
        lo, hi = run[0][0], run[-1][0]
        if lo > w:
            out.append(Piecewise.zero(w, lo))
        out.append(Piecewise.linear_interp(run))
        w = hi
    if w < 1:
        out.append(Piecewise.zero(w, Q(1)))
    return Piecewise.concat(out).mul(mono)


@st.composite
def nested_chains(draw):
    """Strictly nested single-interval orbits inside (1/2, 1), on 1/64."""
    L = draw(st.integers(1, 5))
    ends = sorted(draw(st.sets(st.integers(33, 63), min_size=2 * L,
                               max_size=2 * L)))
    return [AsymptoticSet.orbit_interval(Q(ends[k], 64),
                                         Q(ends[2 * L - 1 - k], 64))
            for k in range(L)]


@settings(max_examples=60, deadline=None)
@given(nested_chains(), st.sampled_from([1, 2]))
def test_bump_profile_matches_run_splitting(chain, D):
    seen = []

    def compare(pts, sigma, n, D):
        got = bump(pts, sigma, n, D)
        assert got == _runs_bump_profile(pts, sigma, n, D), (pts, n, D)
        seen.append(n)
        return got

    bump = afilter_mod._bump_profile
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(afilter_mod, "_bump_profile", compare)
        mp.setattr(afilter_mod, "_verify_rapid", lambda *args: None)
        rapid_element(chain, D)
    assert seen == list(range(1, len(chain) + 1))


def test_i_of_f_member_on_an_ideal_filter():
    """I(F(I)) for the ideal of a tent holds the elements that vanish on
    a neighborhood of the tent's zeros, whatever operator wraps F(I)."""
    I = FgIdeal([tent(Q(5, 8), Q(3, 4), Q(7, 8))])
    cases = [(tent(Q(11, 16), Q(3, 4), Q(13, 16)), True),
             (PwFunction.zero(), True),
             (tent(Q(5, 8), Q(3, 4), Q(7, 8)), False),
             (tent(Q(9, 16), Q(3, 4), Q(15, 16)), False),
             (PwFunction.const(1), False)]
    for F in (OfIdeal(I), Interior(OfIdeal(I)), Closure(OfIdeal(I))):
        assert [i_of_f_member(x, F) for x, _ in cases] == \
            [want for _, want in cases], F
