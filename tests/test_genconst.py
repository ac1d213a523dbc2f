import importlib.util
import math
import os
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymcalc.genconst as genconst_mod
import asymcalc.signs as signs_mod
from asymcalc.errors import (ModulusViolated, PreconditionViolated,
                             ProductNotZero, RepresentabilityError)
from asymcalc.genconst import (GenConstant, _certified_start, _cutoff,
                               _divide_profile, _failing_blocks,
                               _head_cutoff, _pl_between, _pl_quotient,
                               _scanned_start, cauchy_glue, extend_invertible,
                               extend_zero, idempotent_class, invert_on,
                               restr_invertible, restr_zero, sharp_dist,
                               urysohn, zero_product_split)
from asymcalc.grid import unify
from asymcalc.ivset import Iv, IvSet
from asymcalc.pwfunc import PwFunction, TailComponent
from asymcalc.scaleset import AsymptoticSet, with_neighbours
from asymcalc.signs import (NONNEG, POS, ZERO, bad_structure, common_window,
                            eventual_sign_on, obstruction_on,
                            restr_invertible_bool)
from asymcalc.verify import corpus_generate
from asymcalc.verify.corpus import tent
from asymcalc.window import Piecewise, Seg

ONE_ORBIT = AsymptoticSet.orbit_point(1)


def test_ring_wrapper(rho, hat):
    x, y = GenConstant(rho), GenConstant(hat)
    assert (x + y - y) == x
    assert (x * y).rep.equiv(rho.mul(hat))
    assert (x - x).is_negligible()
    assert x.valuation() == 1
    assert GenConstant.zero().valuation() == math.inf


def test_grid_properties():
    c = GenConstant.const(2)
    assert c.sigma == Q(1, 2) and c.D == 1
    r = GenConstant.rho(Q(1, 3), 2)
    assert r.sigma == Q(1, 3) and r.D == 2


def test_sharp_dist(rho):
    zero = GenConstant.zero()
    assert sharp_dist(rho, zero.rep) == pytest.approx(math.exp(-1))
    assert sharp_dist(rho, rho) == 0.0


def test_restr_invertible_frozen(rho, hat, P, A, full):
    assert restr_invertible(hat, P) == (True, 0, 1)
    assert restr_invertible(rho, full) == (True, 1, 1)
    ok, n, delta = restr_invertible(hat, A)
    assert (ok, n) == (True, 1) and 0 < delta <= 1
    assert restr_invertible(hat, full)[0] is False
    assert restr_invertible(hat, ONE_ORBIT)[0] is False


def test_urysohn_separates(A, B):
    f = urysohn(A, B)
    # zero on the orbit of A, one outside the interior of B
    assert f.eval(Q(3, 4)) == 0
    assert f.eval(Q(2, 5)) == 0   # (4/5)/2
    assert f.eval(Q(31, 64)) == 1
    assert restr_zero(f.rep, A)
    one = GenConstant.const(1)
    coB = B.interior().complement()
    assert restr_zero((one - f).rep, coB)


def test_urysohn_degenerate(full):
    f = urysohn(full, full)
    assert f.is_negligible() or f.rep.is_zero()


def test_invert_on(hat, osc, P, full):
    y = invert_on(hat, P)
    prod = GenConstant(hat) * y - GenConstant.const(1)
    assert restr_zero(prod.rep, P)

    z = invert_on(osc, full)
    prod2 = GenConstant(osc) * z - GenConstant.const(1)
    assert restr_zero(prod2.rep, full)


def test_invert_on_rejects_noninvertible(hat):
    with pytest.raises(PreconditionViolated):
        invert_on(hat, ONE_ORBIT)


def test_extend_invertible_frozen(hat, P):
    T = extend_invertible(hat, P)
    assert P.precedes(T)
    assert restr_invertible(hat, T)[0]
    assert T.shape == IvSet.interval(Q(177, 256), Q(207, 256))


@pytest.mark.parametrize("op", [restr_invertible, extend_invertible,
                                invert_on, restr_invertible_bool])
def test_obstruction_structure_built_once(hat, osc, P, A, full, op,
                                          monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return bad_structure(x)

    monkeypatch.setattr(signs_mod, "bad_structure", counted)
    monkeypatch.setattr(genconst_mod, "bad_structure", counted,
                        raising=False)
    for x, S in ((hat, P), (hat, A), (osc, full)):
        calls.clear()
        # a fresh copy: x keeps its structure once it is built
        op(PwFunction.on(x.grid, x.comps, x.head), S)
        assert len(calls) == 1, (op.__name__, x, S)


def _restrict_item(i):
    """Item i of the seed-1 `restrict` benchmark workload."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.Restrict(1).item(i)


def test_one_pair_builds_its_structure_once(hat, P, monkeypatch):
    """restr_invertible, extend_invertible and invert_on on one pair build
    the obstruction structure once, and a shared structure is immutable."""
    calls = []

    def counted(x):
        calls.append(x)
        return bad_structure(x)

    monkeypatch.setattr(signs_mod, "bad_structure", counted)
    for x, S in ((hat, P), _restrict_item(281).args):
        calls.clear()
        restr_invertible(x, S)
        extend_invertible(x, S)
        try:
            invert_on(x, S)
        except RepresentabilityError:
            pass  # item 281 has two live components, found after the check
        assert len(calls) == 1
        flat, pts = obstruction_on(x, S)[2]
        assert isinstance(pts, tuple)
        for b in pts:
            with pytest.raises(AttributeError):
                b.point_bad = not b.point_bad


def test_extend_zero_frozen(hat):
    T = extend_zero(hat, ONE_ORBIT)
    assert ONE_ORBIT.precedes(T)
    assert restr_zero(hat, T)
    assert T.shape == IvSet([Iv(Q(1, 2), Q(9, 16), False, True),
                             Iv(Q(15, 16), 1, True, True)])


def test_extend_zero_of_zero_is_full(P, full):
    z = PwFunction.zero()
    T = extend_zero(z, P)
    assert full.subset_of(T)


def test_zero_product_split(full):
    a = tent(Q(17, 32), Q(9, 16), Q(19, 32))
    b = tent(Q(3, 4), Q(25, 32), Q(13, 16))
    T, U = zero_product_split(a, b)
    assert full.subset_of(T.interior().union(U.interior()))
    assert restr_zero(a, T)
    assert restr_zero(b, U)


def test_zero_product_split_rejects(hat):
    with pytest.raises(ProductNotZero):
        zero_product_split(hat, hat)


def test_cauchy_glue(rho):
    xs = [GenConstant(PwFunction.upower(1))]
    for n in range(1, 4):
        xs.append(xs[-1] + GenConstant(PwFunction.upower(n + 1)))
    moduli = [Q(1, 2 ** n) for n in range(4)]
    s = cauchy_glue(xs, moduli)
    for n, xn in enumerate(xs):
        gap = (s - xn).valuation()
        assert gap == math.inf or gap >= n - 2


def test_cauchy_glue_rejects_bad_modulus():
    xs = [GenConstant.zero(), GenConstant.const(1)]
    with pytest.raises(ModulusViolated):
        cauchy_glue(xs, [Q(1), Q(1, 2)])


# -- the hoisted block scan against the block-by-block check it replaced --


def _ref_block_nonneg(z, k, shape):
    """Reference: build block k of z as a profile and test it on the
    closed hull of each shape interval."""
    total = z.block(k)
    for iv in shape.ivs:
        if iv.is_point():
            if total.eval(iv.lo) < 0:
                return False
        elif not total.restrict(iv.lo, iv.hi).nonneg_on_all():
            return False
    return True


def _ref_failing_blocks(z, shape, blocks):
    return [k for k in blocks if not _ref_block_nonneg(z, k, shape)]


def _item_281_gap():
    """(z, shape) of `restrict` item 281, whose threshold comes from the
    scan: z = x^2 - eps^4 on the window of its set."""
    x, S = _restrict_item(281).args
    xw, shape = common_window(x, S)
    return xw.mul(xw).sub(xw.eps_power(4)), shape


def test_item_281_threshold_from_the_scan():
    x, S = _restrict_item(281).args
    assert restr_invertible(x, S) == (True, 2, Q(1, 256))
    z, shape = _item_281_gap()
    assert _certified_start(z, shape) is None
    assert list(_failing_blocks(z, shape, range(48))) == \
        _ref_failing_blocks(z, shape, range(48))
    assert _scanned_start(z, shape) == 8


def test_scan_builds_no_block(monkeypatch):
    def no_block(self, k):
        raise AssertionError("the scan built a block")

    z, shape = _item_281_gap()
    monkeypatch.setattr(PwFunction, "block", no_block)
    assert _scanned_start(z, shape) == 8


@st.composite
def _deep_cases(draw):
    """(z, shape): a sum of unit tents on 1/64 marks, at least one with
    r > 0, some over w - 2 (negative on the window), possibly divided by
    u and squared less a power of eps, with a window interval or point on
    1/64 marks."""
    marks = st.integers(33, 63).map(lambda i: Q(i, 64))
    below = Piecewise.from_poly(Q(1, 2), 1, (1,), (-2, 1))
    x = None
    for r in [draw(st.integers(1, 2))] + \
            draw(st.lists(st.integers(0, 2), max_size=2)):
        lo, mid, hi = sorted(draw(st.lists(marks, min_size=3, max_size=3,
                                           unique=True)))
        g = tent(lo, mid, hi).comps[0].g.scale(
            draw(st.sampled_from([1, -1, Q(3, 2), Q(-1, 4)])))
        if draw(st.booleans()):
            g = g.mul(below)
        t = PwFunction(Q(1, 2), [TailComponent(draw(st.integers(-2, 2)), r,
                                               g)])
        x = t if x is None else x.add(t)
    if draw(st.booleans()):
        x = x.mul(PwFunction.upower(-1))
    n = draw(st.sampled_from([None, 0, 1, 2]))
    z = x if n is None else x.mul(x).sub(x.eps_power(2 * n))
    a, b = sorted(draw(st.lists(st.integers(32, 64), min_size=2,
                                max_size=2)))
    shape = IvSet.point(Q(a, 64)) if a == b else \
        IvSet.interval(Q(a, 64), Q(b, 64))
    return z, shape


@settings(max_examples=60, deadline=None)
@given(_deep_cases())
def test_hoisted_scan_matches_block_by_block(case):
    z, shape = case
    assert list(_failing_blocks(z, shape, range(12))) == \
        _ref_failing_blocks(z, shape, range(12))


def test_idempotent_class(hat, negl):
    # t = 2 puts the anchor at 1/4, below the anchor 1 of the constant 1
    for t in (0, 2):
        one = PwFunction.const(1).lower_anchor(t)
        assert one.add(negl).c0 == Q(1, 2) ** t
        assert idempotent_class(one) == 1
        assert idempotent_class(one.add(negl)) == 1
        assert idempotent_class(PwFunction.zero().lower_anchor(t)) == 0
        assert idempotent_class(hat.lower_anchor(t)) is None


# -- the least witness against the linear scan it replaced ---------------


def _gaps(x, S):
    """(window set, z_0 ... z_nmax) with z_n = x^2 - eps^(2n) on the
    common window of x and S."""
    xw, shape = common_window(x, S)
    nmax = max([0] + [max(0, -(-c.s // xw.D))
                      for c in xw.live_comps()]) + 1
    zs = [xw.mul(xw).sub(xw.eps_power(2 * n)) for n in range(nmax + 1)]
    return AsymptoticSet(xw.sigma, shape, D=xw.D), zs


def _scan_invertible(x, S):
    """Reference: try n = 0, 1, ... and certify delta for the first hit."""
    if not restr_invertible_bool(x, S):
        return (False, None, None)
    Sw, zs = _gaps(x, S)
    for n, z in enumerate(zs):
        if eventual_sign_on(z, Sw) in (POS, NONNEG, ZERO):
            break
    K = _certified_start(z, Sw.shape)
    if K is None:
        K = _scanned_start(z, Sw.shape)
    return (True, n, z.sigma ** K * z.c0)


def _invertible_cases(rho, hat, hat2, osc, negl, P, A, B, full):
    elems = [rho, hat, hat2, osc, negl, hat.mul(osc), hat.add(rho),
             hat.add(rho.scale(Q(1, 2))), osc.mul(rho)]
    for S in (P, A, B, full, ONE_ORBIT):
        for x in elems:
            yield x, S
    for seed in (1, 2, 5):
        c = corpus_generate(seed, 6)
        for S in c.sets:
            for x in c.elements:
                yield x, S


def test_restr_invertible_matches_linear_scan(rho, hat, hat2, osc, negl,
                                             P, A, B, full):
    exps = set()
    for x, S in _invertible_cases(rho, hat, hat2, osc, negl, P, A, B, full):
        want = _scan_invertible(x, S)
        assert restr_invertible(x, S) == want
        exps.add(want[1])
    # witnesses at the valuation floor, above it, and at n_max
    assert {None, 0, 1, 2, 3}.issubset(exps)


def test_invertibility_gap_is_monotone_in_n(rho, hat, hat2, osc, negl,
                                            P, A, B, full):
    for x, S in _invertible_cases(rho, hat, hat2, osc, negl, P, A, B, full):
        if not restr_invertible_bool(x, S):
            continue
        Sw, zs = _gaps(x, S)
        holds = [eventual_sign_on(z, Sw) in (POS, NONNEG, ZERO) for z in zs]
        assert holds == sorted(holds) and holds[-1]


# -- reference: the node-by-node `_pl_between` that the sweep replaced


def _old_pl_between(zeros, ones, sigma, lo, hi, wrap, anchor_value=None):
    if wrap:
        zeros = with_neighbours(zeros, sigma)
        ones = with_neighbours(ones, sigma)
    marks = [(iv.lo, iv.hi, Q(0)) for iv in zeros.ivs] + \
            [(iv.lo, iv.hi, Q(1)) for iv in ones.ivs]
    if anchor_value is not None:
        marks.append((lo, lo, Q(anchor_value)))
    marks.sort()
    if not marks:
        marks = [(lo, lo, Q(0))]

    def value_at(w):
        below = above = None
        for (a, b, v) in marks:
            if a <= w <= b:
                return v
            if b < w and (below is None or b > below[0]):
                below = (b, v)
            if a > w and (above is None or a < above[0]):
                above = (a, v)
        if below is None and above is None:
            raise RepresentabilityError("separating profile gap is "
                                        "unbounded")
        if below is None:
            return above[1]
        if above is None:
            return below[1]
        (wb, vb), (wa, va) = below, above
        return vb + (va - vb) * (w - wb) / (wa - wb)

    nodes = {lo, hi}
    for (a, b, _) in marks:
        for e in (a, b):
            if lo < e < hi:
                nodes.add(e)
    return Piecewise.linear_interp([(w, value_at(w)) for w in sorted(nodes)])


@st.composite
def _separated_marks(draw):
    """(zeros, ones, lo, hi, wrap, anchor): disjoint closed zero and one
    sets on a 1/16 grid.  With `wrap` they lie inside (1/2, 1), so their
    neighbour copies stay disjoint too; without it they may touch lo and
    hi, and the anchor value sits at lo."""
    wrap = draw(st.booleans())
    lo = Q(1, 2) if wrap else Q(draw(st.sampled_from([4, 8, 10])), 16)
    first, last = (9, 15) if wrap else (lo * 16, 16)
    ends = sorted(draw(st.lists(st.integers(first, last), unique=True,
                                max_size=8)))
    zeros, ones = [], []
    i = 0
    while i < len(ends):
        width = draw(st.integers(1, 2)) if i + 1 < len(ends) else 1
        a, b = Q(ends[i], 16), Q(ends[i + width - 1], 16)
        (zeros if draw(st.booleans()) else ones).append(Iv(a, b, True, True))
        i += width
    anchor = None if wrap else draw(st.sampled_from([None, 0, 1, Q(1, 3)]))
    return IvSet(zeros), IvSet(ones), lo, Q(1), wrap, anchor


@settings(max_examples=300, deadline=None)
@given(_separated_marks())
def test_pl_between_matches_node_scan(case):
    zeros, ones, lo, hi, wrap, anchor = case
    marks = [with_neighbours(m, Q(1, 2)) if wrap else m
             for m in (zeros, ones)]
    got = _pl_between(*marks, lo, hi, anchor)
    assert got == _old_pl_between(zeros, ones, Q(1, 2), lo, hi, wrap,
                                  anchor)


# -- one cut-off builder, and the division that reads one component of x

_H = Q(1, 2)


def _closed(a, b):
    return Iv(Q(a), Q(b), True, True)


_HEAD_ONLY = AsymptoticSet(_H, IvSet.empty(),
                           IvSet([_closed(Q(3, 4), Q(7, 8))]), _H)
_WITH_HEAD = AsymptoticSet(_H, IvSet([_closed(Q(3, 5), Q(9, 10))]),
                           IvSet([_closed(Q(5, 8), Q(15, 16))]), _H)


@pytest.mark.parametrize("S, T", [
    (AsymptoticSet.orbit_interval(Q(7, 10), Q(4, 5)),
     AsymptoticSet.orbit_interval(Q(3, 5), Q(9, 10))),
    # empty S
    (AsymptoticSet.empty(), AsymptoticSet.full()),
    # empty B, the complement of the interior of T
    (AsymptoticSet.orbit_interval(Q(7, 10), Q(4, 5)), AsymptoticSet.full()),
    # an S that is only a head, with B on the window and without
    (_HEAD_ONLY, _WITH_HEAD),
    (_HEAD_ONLY, AsymptoticSet(_H, IvSet([Iv(_H, Q(1), False, True)]),
                               _WITH_HEAD.head, _H)),
    # heads at different anchors
    (AsymptoticSet(_H, IvSet([_closed(Q(7, 10), Q(4, 5))]),
                   IvSet([_closed(Q(3, 8), Q(2, 5))]), Q(1, 4)), _WITH_HEAD),
    # S on ratio 1/2, T on 1/4
    (AsymptoticSet.orbit_interval(Q(7, 10), Q(4, 5)),
     AsymptoticSet(Q(1, 4), IvSet([_closed(Q(1, 3), Q(9, 20)),
                                   _closed(Q(13, 20), Q(17, 20))]))),
])
def test_cutoff_is_one_minus_urysohn(S, T):
    want = (GenConstant.const(1) - urysohn(S, T)).rep
    assert _cutoff(S, T, 1).to_dict() == want.to_dict()
    assert _cutoff(S, T, 0).to_dict() == urysohn(S, T).rep.to_dict()


def test_separating_profile_joins_through_the_trusted_path(A, B,
                                                          monkeypatch):
    """linear_interp, and with it the cut-off, call no validating
    Piecewise constructor."""
    want = Piecewise([Seg(0, Q(1, 2), (0, 2)), Seg(Q(1, 2), 1, (2, -2))])
    u = urysohn(A, B).rep.to_dict()

    def refuse(self, segs):
        raise AssertionError("validating constructor called")

    monkeypatch.setattr(Piecewise, "__init__", refuse)
    assert Piecewise.linear_interp([(0, 0), (Q(1, 2), 1), (1, 0)]) == want
    assert urysohn(A, B).rep.to_dict() == u


def _ref_head_cutoff(eps_n, sg, D):
    """Reference: the hand-built ramp `linear_interp`, `Piecewise.zero`
    and `concat`."""
    if eps_n >= 1:
        return PwFunction.const(1, sg, D)
    c0 = eps_n
    g = Piecewise.const(sg, Q(1), Q(1))
    ramp_hi = min(Q(1), c0 / sg)
    pieces = [Piecewise.linear_interp([(c0, Q(1)), (ramp_hi, Q(0))])]
    if ramp_hi < 1:
        pieces.append(Piecewise.zero(ramp_hi, Q(1)))
    head = Piecewise.concat(pieces)
    return PwFunction(sg, (TailComponent(0, 0, g),), head, c0, D)


@pytest.mark.parametrize("eps_n, sg", [
    *((Q(1, 2 ** k), Q(1, 2)) for k in range(1, 7)),
    (Q(2, 3), Q(2, 3)),  # the ramp reaches 1
    (Q(1), Q(1, 2)),
])
def test_head_cutoff_matches_hand_built_ramp(eps_n, sg):
    assert _head_cutoff(eps_n, sg, 1).to_dict() == \
        _ref_head_cutoff(eps_n, sg, 1).to_dict()


def _ref_divide_profile(psi, x):
    """Reference: `_divide_profile` through `unify`, which unrolls the
    blocks of x down to the lower anchor, and a shape check on psi."""
    a, b = unify(psi, x)
    comp = b.live_comps()[0]
    live = [c for c in a.comps if c.r == 0]
    if len(live) != 1 or live[0].s != 0:
        raise RepresentabilityError("separating profile has an unexpected "
                                    "shape")
    gy = _pl_quotient(live[0].g, comp.g)
    head = None
    if a.c0 < 1:
        head = Piecewise.const(a.c0, Q(1), gy.eval(Q(1)))
    return GenConstant(PwFunction(a.sigma, (TailComponent(-comp.s, 0, gy),),
                                  head, a.c0, a.D))


def _restrict_inverse_case(i):
    """(psi, x) as invert_on builds them for restrict item i."""
    x, S = _restrict_item(i).args
    return _cutoff(S, extend_invertible(x, S), 1), x


@pytest.mark.parametrize("i, c0", [(2, Q(1, 8)), (10, Q(1))])
def test_divide_profile_matches_unrolled_reference(i, c0):
    """Items 2 and 10: one component (3, 0), resp. (-1, 0), on anchor 1,
    against a cut-off on anchor c0."""
    psi, x = _restrict_inverse_case(i)
    assert (psi.c0, x.c0, len(x.comps)) == (c0, 1, 1)
    cases = [
        (psi, x),                   # x's anchor at or above psi's
        (psi, x.lower_anchor(5)),   # x's anchor below psi's: t < 0
        (psi.coarsen(2), x),        # x coarsened: m2 = 2
    ]
    for p, y in cases:
        want = _ref_divide_profile(p, y).rep.to_dict()
        assert _divide_profile(p.grid, p.comps[0].g, y).rep.to_dict() == want


def _single_component_inverses():
    """(x, S, T) for the invertible restrict items among the first 64 at
    seed 1 whose representative has one live component, T the extension
    set, where one is representable."""
    out = []
    for i in range(64):
        x, S = _restrict_item(i).args
        if len(x.live_comps()) == 1 and restr_invertible(x, S)[0]:
            try:
                out.append((x, S, extend_invertible(x, S)))
            except RepresentabilityError:
                pass
    return out


def test_invert_on_builds_only_the_cutoff_tail(monkeypatch):
    """The inverse equals the old route, which builds the whole cut-off
    with its head and divides its tail, on the closures' lower anchor.
    The new route interpolates once, for the tail, where the old one also
    interpolated the head; a constant cut-off, for an empty complement B
    of the extension's interior, needs no interpolation."""
    pairs = _single_component_inverses()
    assert len(pairs) >= 8
    calls = []
    pl_between = genconst_mod._pl_between

    def spy(*args):
        calls.append(args)
        return pl_between(*args)

    monkeypatch.setattr(genconst_mod, "_pl_between", spy)
    lowered = 0
    for x, S, T in pairs:
        psi = _cutoff(S, T, 1)
        s, t = unify(S, T)
        B = t.interior().complement()
        if not B.is_empty():
            assert psi.c0 == min(X.closure().c0 for X in (s, B))
            lowered += psi.c0 < 1
        want = _divide_profile(psi.grid, psi.comps[0].g, x).rep.to_dict()
        calls.clear()
        assert invert_on(x, S).rep.to_dict() == want
        assert len(calls) == (not B.is_empty())
    assert lowered


def test_invert_on_lowers_no_anchor_of_x(monkeypatch):
    x, S = _restrict_item(1).args
    lowered = []
    lower_anchor = PwFunction.lower_anchor

    def spy(self, t):
        if t:
            lowered.append(self)
        return lower_anchor(self, t)

    monkeypatch.setattr(PwFunction, "lower_anchor", spy)
    y = invert_on(x, S)
    assert y.rep.c0 == Q(1, 8)
    assert not any(z is x for z in lowered)


# -- the ring operations that no construction above calls -------------------

_SAMPLES = [Q(1), Q(9, 10), Q(3, 4), Q(5, 8), Q(7, 16), Q(3, 64),
            Q(9, 10) / 2 ** 7]


@pytest.mark.parametrize("name", ["rho", "hat", "osc", "negl"])
def test_ring_operations_match_profiles(request, name):
    x = request.getfixturevalue(name)
    g = GenConstant(x)
    for n in (0, 1, 3):
        assert (g ** n).rep.to_dict() == x.pow(n).to_dict()
    for u in _SAMPLES:
        v = x.eval(u)
        assert (-g).eval(u) == x.neg().eval(u) == -v
        assert (g ** 3).eval(u) == x.pow(3).eval(u) == v ** 3
        assert (g ** 0).eval(u) == 1
        for q in (Q(0), Q(-2, 3), Q(5)):
            assert g.scale(q).eval(u) == x.scale(q).eval(u) == q * v


def test_negligibility_of_the_ring_api(rho, hat, osc, negl):
    for x in (negl, negl.scale(Q(-7, 2)), negl.neg(), negl.mul(hat),
              hat.sub(hat), negl.pow(2)):
        g = GenConstant(x)
        assert g.is_zero() and g.is_negligible()
        assert genconst_mod.is_negligible(g) and genconst_mod.is_negligible(x)
        assert (-g).is_zero() and g.scale(3).is_zero()
    for x in (rho, hat, osc, rho.pow(4), hat.add(negl)):
        g = GenConstant(x)
        assert not g.is_zero() and not genconst_mod.is_negligible(g)
        assert not genconst_mod.is_negligible(x)
        assert not (-g).is_zero() and not (g ** 2).is_zero()
    assert GenConstant.zero().is_zero()
    assert GenConstant.rho() ** 0 == GenConstant.const(1)
