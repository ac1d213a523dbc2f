"""The quotient ring: moderate elements modulo super-polynomially small ones.

A GenConstant wraps a canonical PwFunction.  Equality, negligibility and the
sharp valuation only see the r = 0 components; everything with r > 0 is
invisible in the quotient.  Restriction predicates (x vanishes on S, x is
invertible on S) are decided exactly through the sign engine, and the
constructive operations (inversion, separating profiles, extension sets,
zero-product splitting, Cauchy gluing) return objects whose defining
properties are verified exactly by the same machinery.

Each invertibility question reads `signs.obstruction_on` once, decides it
with `signs.unobstructed` and builds its construction from the same triple.

Separating profiles: `urysohn` (0 on S, 1 outside the interior of T) and
1 - `urysohn` come from one builder, `_cutoff`, with the two values swapped,
so inversion and the purity witness need no ring subtraction.  `_cutoff`
is the tail of `_cutoff_tail` plus a head; the inverse reads only that
tail, since its own head is a constant.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction as Q

from .errors import (ModulusViolated, PreconditionViolated, ProductNotZero,
                     RepresentabilityError)
from .grid import Grid, unify
from .ivset import Iv, IvSet
from .pwfunc import PwFunction, TailComponent
from .scaleset import (AsymptoticSet, circle_closure, closed_with_neighbours,
                       fold_to_window, halfway_toward, orbit_with_full_head,
                       upto1)
from .signs import (common_window, eventually_nonneg, flat_common_zero,
                    obstruction_on, unobstructed, zero_set)
from .signs import restr_zero as _restr_zero_pw
from .polytools import (ZERO, _zsign, padd, pmul, poly_nonneg_on, pscale,
                        pt_enclosure)
from .window import Piecewise, Seg


class GenConstant:
    """An element of the quotient ring, stored by a canonical
    representative."""

    __slots__ = ("rep",)

    def __init__(self, rep: PwFunction):
        self.rep = rep

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c, sigma=Q(1, 2), D=1) -> "GenConstant":
        return GenConstant(PwFunction.const(c, sigma, D))

    @staticmethod
    def zero(sigma=Q(1, 2), D=1) -> "GenConstant":
        return GenConstant(PwFunction.zero(sigma, D))

    @staticmethod
    def rho(sigma=Q(1, 2), D=1) -> "GenConstant":
        """The canonical infinitesimal: the parametrization scale itself."""
        return GenConstant(PwFunction.upower(D, sigma, D))

    @property
    def sigma(self) -> Q:
        return self.rep.sigma

    @property
    def D(self) -> int:
        return self.rep.D

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        return GenConstant(self.rep.add(_rep(other)))

    def __sub__(self, other):
        return GenConstant(self.rep.sub(_rep(other)))

    def __mul__(self, other):
        return GenConstant(self.rep.mul(_rep(other)))

    def __neg__(self):
        return GenConstant(self.rep.neg())

    def __pow__(self, n):
        return GenConstant(self.rep.pow(n))

    def scale(self, q) -> "GenConstant":
        return GenConstant(self.rep.scale(q))

    def __eq__(self, other):
        if not isinstance(other, (GenConstant, PwFunction)):
            return NotImplemented
        return self.rep.equiv(_rep(other))

    __hash__ = None

    def __repr__(self):
        return f"GenConstant({self.rep!r})"

    # -- quotient-level queries -----------------------------------------

    def is_negligible(self) -> bool:
        return self.rep.is_negligible()

    def is_zero(self) -> bool:
        return self.is_negligible()

    def valuation(self):
        """Sharp valuation; +infinity exactly for the zero class."""
        v = self.rep.valuation()
        return math.inf if v is None else v

    def eval(self, u) -> Q:
        return self.rep.eval(u)


def _rep(x) -> PwFunction:
    return x.rep if isinstance(x, GenConstant) else x


def is_negligible(x) -> bool:
    return _rep(x).is_negligible()


def valuation(x):
    v = _rep(x).valuation()
    return math.inf if v is None else v


def sharp_dist(x, y) -> float:
    """The ultrametric exp(-v(x - y))."""
    v = valuation(GenConstant(_rep(x).sub(_rep(y))))
    return 0.0 if v is math.inf else math.exp(-v)


# -- restriction predicates ----------------------------------------------


def restr_zero(x, S: AsymptoticSet) -> bool:
    """Whether x vanishes faster than every scale power on S."""
    return _restr_zero_pw(_rep(x), S)


def restr_invertible(x, S: AsymptoticSet):
    """Whether |x| is eventually bounded below by a scale power on S.

    Returns (False, None, None) or (True, n, delta): |x| >= eps^n holds on
    S intersected with (0, delta), with n the least such exponent.

    z_n = x^2 - eps^(2n) grows with n, since 0 < eps <= 1, and the exact
    invertibility decision guarantees a witness at n_max, one above the
    largest component slope.  |x| >= eps^n on a set accumulating at 0
    forces n >= val(x), so n is searched by testing that floor and then
    bisecting up to n_max.  delta is certified for z at the least n when
    `_certified_start` gives a block.  When it returns None,
    `_scanned_start` checks only blocks 0 to 47, and from block 48 on no
    threshold is proven (ROADMAP item 3).
    """
    ob = obstruction_on(_rep(x), S)
    if not unobstructed(ob):
        return (False, None, None)
    xw, shape, _ = ob
    Sw = AsymptoticSet(xw.sigma, shape, D=xw.D)
    live = xw.live_comps()
    nmax = max([0] + [max(0, -(-c.s // xw.D)) for c in live]) + 1
    nlo = max(0, math.ceil(xw.valuation()))
    x2 = xw.mul(xw)

    def gap(n):
        return x2.sub(xw.eps_power(2 * n))

    def holds(n):
        z = gap(n)
        return z if eventually_nonneg(z, Sw) else None

    n, z = nlo, holds(nlo)
    if z is None:
        n, z = _bisect(holds, nlo, nmax)
    if z is None:
        z = gap(n)
    delta = z.sigma ** _start_block(z, shape) * z.c0
    return (True, n, delta)


def _bisect(holds, lo: int, hi: int):
    """(n, w) for the least n in (lo, hi] whose witness w = holds(n) is not
    None, given a holds that is monotone in n, fails at lo and holds at
    hi.  hi itself is never decided here: w is None when the least n is
    hi."""
    w = None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = holds(mid)
        if t is None:
            lo = mid
        else:
            hi, w = mid, t
    return hi, w


# -- explicit-threshold certification ------------------------------------
#
# Given that z >= 0 holds on the trace at all small enough scales, produce
# an explicit block K beyond which it holds.  Per trace cell the
# lexicographically dominant component either bounds the others through a
# geometric exponent gap, or every component is nonnegative on the cell
# (so the sum is nonnegative at every scale), or the cell carries no
# component at all.


def _gap_start(c0: TailComponent, c: TailComponent) -> int:
    """First k from which exponent(c) - exponent(c0) is nondecreasing."""
    if c.r == c0.r:
        return 0
    return max(0, (c0.s - c.s) // (c.r - c0.r) + 1)


def _dominance_start(sigma: Q, j0, m: Q, others) -> int:
    """Smallest certified k with m * sigma^e0(k) > sum of the other
    components' bounds, stable under increasing k."""
    k = max([0] + [_gap_start(j0, c) for c, _ in others])
    while True:
        tail = sum(M * sigma ** (c.exponent(k) - j0.exponent(k))
                   for c, M in others)
        if tail < m:
            return k
        k += 1
        if k > 4096:  # pragma: no cover - geometric gaps close fast
            raise AssertionError("dominance threshold runaway")


def _start_block(z: PwFunction, shape: IvSet) -> int:
    """A block K with z >= 0 on the shape trace from K on: certified, or
    else from the exact scan."""
    K = _certified_start(z, shape)
    return _scanned_start(z, shape) if K is None else K


def _certified_start(z: PwFunction, shape: IvSet):
    """Explicit K with z >= 0 on the shape trace for every block k >= K,
    or None when the bounded cell strategies do not apply."""
    comps = z.comps
    if not comps:
        return 0
    sigma = z.sigma
    C = circle_closure(shape, sigma)
    K = 0
    for p in C.points():
        k = _point_start(sigma, comps, p)
        if k is None:
            return None
        K = max(K, k)
    for iv in C.fat_part().ivs:
        k = _cell_start(sigma, comps, iv.lo, iv.hi)
        if k is None:
            return None
        K = max(K, k)
    return K


def _point_start(sigma, comps, p):
    vals = [(c, c.g.eval(p)) for c in comps]
    vals = [(c, v) for c, v in vals if v != 0]
    if not vals:
        return 0
    j0, v0 = vals[0]
    if v0 < 0:
        return None
    return _dominance_start(sigma, j0, v0,
                            [(c, abs(v)) for c, v in vals[1:]])


def _cell_start(sigma, comps, a, b, depth=0):
    if depth > 8:
        return None
    # each component with its profile on the cell, restricted once
    live = [(c, g) for c in comps for g in [c.g.restrict(a, b)]
            if not g.is_zero()]
    if not live:
        return 0
    # sign-agreement rescue: a sum of nonnegative terms needs no threshold
    if all(g.nonneg_on_all() for _, g in live):
        return 0
    j0, g0 = live[0]
    flat = g0.flat_zero()
    cuts = {a, b}
    for iv in flat.ivs:
        cuts.add(iv.lo)
        cuts.add(iv.hi)
    for zp in g0.isolated_zeros():
        lo, hi = pt_enclosure(zp, (b - a) / 16)
        cuts.add(max(a, lo))
        cuts.add(min(b, hi))
    pts = sorted(cuts)
    K = 0
    for lo, hi in zip(pts, pts[1:]):
        if flat.contains((lo + hi) / 2):
            # the dominant profile is identically zero here; recurse on the
            # remaining components
            k = _cell_start(sigma, [c for c, _ in live[1:]],
                            lo, hi, depth + 1)
        else:
            sub = g0.restrict(lo, hi)
            m = sub.abs_lower_bound_if_nonvanishing()
            if m is None:
                # sliver around a zero of the dominant profile
                if all(g.restrict(lo, hi).nonneg_on_all() for _, g in live):
                    k = 0
                else:
                    k = None
            elif sub.eval((lo + hi) / 2) < 0:
                k = None
            else:
                others = [(c, g.restrict(lo, hi).abs_upper_bound())
                          for c, g in live[1:]]
                k = _dominance_start(sigma, j0, m, others)
        if k is None:
            return None
        K = max(K, k)
    return K


# blocks the fallback threshold scan checks
_SCAN_SPAN = 48


def _scanned_start(z: PwFunction, shape: IvSet) -> int:
    """Fallback threshold: the block after the last block below _SCAN_SPAN
    on which z fails, each checked exactly (`_failing_blocks`).  The
    eventual claim is already established by the sign engine; this pins a
    concrete block, but blocks from _SCAN_SPAN on are not checked, so the
    threshold is not proven there (ROADMAP item 3)."""
    K = 0
    for k in _failing_blocks(z, shape, range(_SCAN_SPAN)):
        K = k + 1
    return K


def _failing_blocks(z: PwFunction, shape: IvSet, blocks):
    """The blocks k, in the order given, on which the tail of z is negative
    somewhere on the closed hull of a shape interval, each decided exactly.

    On a cell of `_trace_cells`, where component c has the segment
    N_c / D_c, block k of the tail is sum_c sigma^e_c(k) P_c / prod D with
    P_c = N_c prod_(c' != c) D_c', and prod D has one sign on the closed
    cell.  The P_c and that sign depend on the cell alone, so they are built
    once; a block multiplies the sum by the positive q^(max e - min e) /
    sigma^(min e), sigma = p/q, which leaves integer weights
    p^(e_c - min e) q^(max e - e_c)."""
    if not z.comps:
        return
    cells = _trace_cells(z, shape)
    p, q = z.sigma.numerator, z.sigma.denominator
    for k in blocks:
        es = [c.exponent(k) for c in z.comps]
        lo, hi = min(es), max(es)
        ws = [p ** (e - lo) * q ** (hi - e) for e in es]
        for a, b, sgn, parts in cells:
            total = ZERO
            for w, part in zip(ws, parts):
                total = padd(total, pscale(part, sgn * w))
            if (_zsign(total, a) < 0 if a == b
                    else not poly_nonneg_on(total, a, b)):
                yield k
                break


def _trace_cells(z: PwFunction, shape: IvSet):
    """(a, b, sign of prod D, (P_c)) for the cells [a, b] of the common
    refinement of the component profiles inside the closed hull of each
    shape interval; a point interval is the one cell [a, a]."""
    cells = []
    for iv in shape.ivs:
        if iv.is_point():
            spans = [(iv.lo, iv.lo)]
        else:
            cuts = sorted({iv.lo, iv.hi} | {w for c in z.comps
                                            for w in c.g.breakpoints()
                                            if iv.lo < w < iv.hi})
            spans = zip(cuts, cuts[1:])
        for a, b in spans:
            segs = [c.g.segment_at(a, 1 if a < b else -1) for c in z.comps]
            sgn, parts = 1, []
            for i, s in enumerate(segs):
                sgn *= s.den_sign()
                part = s.num
                for j, t in enumerate(segs):
                    if j != i:
                        part = pmul(part, t.den)
                parts.append(part)
            cells.append((a, b, sgn, parts))
    return cells


# -- separating profiles -------------------------------------------------


def urysohn(S: AsymptoticSet, T: AsymptoticSet) -> GenConstant:
    """A piecewise linear profile with values in [0, 1], vanishing on S and
    identically 1 outside the interior of T.  Needs S preceding T."""
    return GenConstant(_cutoff(S, T, 0))


def _cutoff(S: AsymptoticSet, T: AsymptoticSet, v) -> PwFunction:
    """The piecewise linear profile equal to v (0 or 1) on S and to 1 - v
    outside the interior B of T.  Needs S preceding T.  The tail is
    `_cutoff_tail`'s; the head interpolates between the heads of the two
    closed sets on the tail's anchor and starts from the tail's value."""
    grid, gw, pair = _cutoff_tail(S, T, v)
    gh = None
    if grid.c0 < 1:
        gh = _pl_between(*(x.closure().lower_anchor_to(grid.c0).head
                           for x in pair), grid.c0, Q(1), gw.eval(Q(1)))
    return PwFunction(grid.sigma, (TailComponent(0, 0, gw),), gh, grid.c0,
                      grid.D)


def _cutoff_tail(S: AsymptoticSet, T: AsymptoticSet, v):
    """(grid, g, pair): the window profile g of `_cutoff`(S, T, v), the
    grid it sits on and the pair of sets valued 0 and 1 on the common grid
    of S and T, empty when g is a constant on anchor 1.  The window trace
    is periodic under the ratio, so interpolating against the neighbour
    copies makes the seam values agree exactly; with neither trace on the
    window the tail is free and takes v.  The anchor is the lower of the
    two closures' anchors, each one block below its set, as
    `AsymptoticSet.closure` builds them."""
    if not S.precedes(T):
        raise PreconditionViolated("urysohn needs the first set to precede "
                                   "the second")
    s, t = unify(S, T)
    sg, D = s.sigma, s.D
    if s.is_empty():
        return Grid(sg, 0, D), Piecewise.const(sg, 1, 1 - v), ()
    B = t.interior().complement()
    if B.is_empty():
        return Grid(sg, 0, D), Piecewise.const(sg, 1, v), ()
    pair = (s, B) if v == 0 else (B, s)  # the sets valued 0 and 1
    zeros, ones = (closed_with_neighbours(x.shape, sg) for x in pair)
    gw = _pl_between(zeros, ones, sg, Q(1), None if zeros or ones else v)
    return Grid(sg, max(x.grid.j for x in pair) + 1, D), gw, pair


def _pl_between(zeros: IvSet, ones: IvSet, lo: Q, hi: Q,
                at_lo=None) -> Piecewise:
    """Piecewise linear interpolation on [lo, hi] through the mark ends: 0
    on `zeros`, 1 on `ones`, `at_lo` at lo when given, flat beyond the
    outermost ends and 0 with no mark.  The marks are disjoint closed sets
    but for the one at lo, so a shared end takes the value of the first
    mark in sorted order; the values at lo and hi come off the node list."""
    marks = sorted([(iv.lo, iv.hi, Q(0)) for iv in zeros.ivs] +
                   [(iv.lo, iv.hi, Q(1)) for iv in ones.ivs] +
                   ([] if at_lo is None else [(lo, lo, Q(at_lo))]))
    # reversed, the first mark at an end writes its value last
    nodes = sorted({w: v for a, b, v in reversed(marks)
                    for w in (a, b)}.items()) or [(lo, Q(0))]
    ws = [w for w, _ in nodes]

    def at(w):
        i = bisect_right(ws, w)
        if not 0 < i < len(ws):
            return nodes[max(i - 1, 0)][1]
        (wb, vb), (wa, va) = nodes[i - 1], nodes[i]
        return vb + (va - vb) * (w - wb) / (wa - wb)

    return Piecewise.linear_interp([(lo, at(lo))] +
                                   [(w, v) for w, v in nodes if lo < w < hi] +
                                   [(hi, at(hi))])


# -- inversion ------------------------------------------------------------


def invert_on(x, S: AsymptoticSet) -> GenConstant:
    """An element y with x*y = 1 on S exactly.  The representative must
    carry its polynomial scale in a single component.  y is the cut-off of
    S against its extension, divided by x; only the cut-off's tail is
    built, since y takes no part of the cut-off's head."""
    xr = _rep(x)
    ob = obstruction_on(xr, S)
    if not unobstructed(ob):
        raise PreconditionViolated("element is not invertible on the set")
    if len(xr.live_comps()) != 1:
        raise RepresentabilityError(
            "inversion needs a single polynomial-scale component")
    grid, g, _ = _cutoff_tail(S, _extension(ob, S), 1)
    return _divide_profile(grid, g, xr)


def _divide_profile(grid: Grid, g: Piecewise, x: PwFunction) -> GenConstant:
    """psi / x for the tail (0, 0, g) on `grid` of psi = `_cutoff`(S, T, 1)
    on a characteristic S, g vanishing outside the region where the single
    live component of x is nonvanishing.  psi's head is never read.  T is
    built on the common ratio of x and S, so psi's ratio is a power of x's,
    and x alone moves to it.  A (0, 0) profile repeats unscaled on every
    block, so psi moves to a lower anchor unchanged.  The component of x
    is rewritten, not unrolled: on the common ratio, (s, 0, h) on the
    anchor sigma^j is sigma^(s k) h(w) on block k, which is block k - t
    below the anchor sigma^(j + t), so there it is (s, 0, sigma^(s t) h),
    as `lower_anchor(t)` gives it.  Trusted: a (0, 0) profile over an
    (s, 0) one matches the seam for (-s, 0), and the constant head matches
    the tail."""
    m1, m2 = grid.common_ratio(x.grid)
    assert m1 == 1, "the cut-off is not on a power of the ratio of x"
    x = x.coarsen(m2)
    t = grid.j - x.grid.j
    if t < 0:
        grid, t = grid.lower(-t), 0
    comp = x.live_comps()[0]
    gy = _pl_quotient(g, comp.g.scale(grid.sigma ** (comp.s * t)))
    # only the tail carries the inversion contract; any continuous head
    # matching the seam works
    head = Piecewise.const(grid.c0, Q(1), gy.eval(Q(1))) if grid.c0 < 1 \
        else None
    return GenConstant(PwFunction.on(
        grid, (TailComponent(-comp.s, 0, gy),), head))


def _pl_quotient(num: Piecewise, den: Piecewise) -> Piecewise:
    """num / den, segment by segment; segments where num vanishes stay
    zero, elsewhere den must be root-free (certified at segment
    construction)."""
    parts = []
    for a, b, sn, sd in num.cells(den):
        if sn.is_zero():
            parts.append(Piecewise.zero(a, b))
        else:
            parts.append(Piecewise([Seg(a, b, pmul(sn.num, sd.den),
                                        pmul(sn.den, sd.num))]))
    return Piecewise.concat(parts)


# -- extension sets -------------------------------------------------------


def extend_invertible(x, S: AsymptoticSet) -> AsymptoticSet:
    """A set T preceded by S on which x stays invertible: the closed trace
    fattened halfway toward the obstruction structure of x."""
    ob = obstruction_on(_rep(x), S)
    if not unobstructed(ob):
        raise PreconditionViolated("element is not invertible on the set")
    return _extension(ob, S)


def _extension(ob, S: AsymptoticSet) -> AsymptoticSet:
    """extend_invertible from the obstruction triple of x on S."""
    xw, shape, (flat, badpts) = ob
    sg = xw.sigma
    obstacles = flat
    for b in badpts:
        lo, hi = pt_enclosure(b.pos, Q(1, 64))
        obstacles = obstacles.union(
            IvSet([Iv(max(sg, lo), min(Q(1), hi), True, True)]))
    return halfway_toward(circle_closure(shape, sg), obstacles, sg, S)


def extend_zero(x, S: AsymptoticSet) -> AsymptoticSet:
    """A set T preceded by S on which x still vanishes: the closed trace
    fattened halfway inside the common zero region of x."""
    xr = _rep(x)
    if not restr_zero(x, S):
        raise PreconditionViolated("element does not vanish on the set")
    if xr.is_negligible():
        return AsymptoticSet.full(xr.sigma, S.D)
    xw, shape = common_window(xr, S)
    sg = xw.sigma
    C = circle_closure(shape, sg)
    zext = closed_with_neighbours(flat_common_zero(xw), sg)
    pieces = []
    for iv in C.ivs:
        host = None
        for ze in zext.ivs:
            if ze.lo <= iv.lo and iv.hi <= ze.hi:
                host = ze
                break
        if host is None:
            raise RepresentabilityError(
                "trace touches an isolated zero; no self-similar "
                "neighborhood keeps the element vanishing")
        lo2 = iv.lo if host.lo == iv.lo else (host.lo + iv.lo) / 2
        hi2 = iv.hi if host.hi == iv.hi else (host.hi + iv.hi) / 2
        if lo2 == iv.lo and iv.is_point():
            raise RepresentabilityError(
                "trace touches the boundary of the zero region")
        pieces.append(Iv(lo2, hi2, True, True))
    T = orbit_with_full_head(fold_to_window(IvSet(pieces), sg), sg, S)
    if not S.precedes(T):
        raise RepresentabilityError(
            "trace touches the boundary of the zero region")
    return T


# -- zero-product splitting ----------------------------------------------


def zero_product_split(a, b, S: AsymptoticSet | None = None):
    """Closed sets (T, U) whose interiors cover S, with a vanishing on T
    and b vanishing on U.  Needs a*b = 0 exactly."""
    ar, br = _rep(a), _rep(b)
    if not ar.mul(br).is_zero():
        raise ProductNotZero("the product is not the zero function")
    if S is None:
        S = AsymptoticSet.full(ar.sigma, ar.D)
    aw, _ = common_window(ar, S)
    bw, _ = common_window(br, S)
    sg = aw.sigma
    T = _zero_orbit(aw, sg, S)
    U = _zero_orbit(bw, sg, S)
    cover = T.interior().union(U.interior())
    if not S.subset_of(cover):
        raise RepresentabilityError(
            "the pointwise zero regions do not cover the set")
    return T, U


def _zero_orbit(xw: PwFunction, sg: Q, S: AsymptoticSet) -> AsymptoticSet:
    """The orbit of the window zero set of xw, irrational zeros left out."""
    return orbit_with_full_head(fold_to_window(zero_set(xw)[0], sg), sg, S)


# -- Cauchy gluing --------------------------------------------------------


def cauchy_glue(xs, moduli) -> GenConstant:
    """Glue a finite certified Cauchy prefix: |x_n - x_(n-1)| <= eps^n must
    hold from the n-th threshold scale down; the result s satisfies
    valuation(s - x_n) >= n - 2 for every provided n.  Each bound is
    proven when `_certified_start` gives a block.  When it returns None,
    blocks from 48 on are not checked (ROADMAP item 3)."""
    xs = [_rep(x) for x in xs]
    if not xs:
        raise PreconditionViolated("nothing to glue")
    if len(moduli) != len(xs):
        raise PreconditionViolated("one threshold scale per element")
    out = xs[0]
    sg, D = xs[0].sigma, xs[0].D
    for n in range(1, len(xs)):
        d = xs[n].sub(xs[n - 1])
        _check_modulus(d, n, Q(moduli[n]))
        chi = _head_cutoff(Q(moduli[n]), sg, D)
        out = out.add(chi.mul(d))
    s = GenConstant(out)
    for n in range(len(xs)):
        gap = GenConstant(out.sub(xs[n])).valuation()
        if gap is not math.inf and gap < n - 2:
            raise AssertionError("glued element misses the sharp bound")
    return s


def _check_modulus(d: PwFunction, n: int, eps_n: Q):
    """Certify |d| <= eps^n for u <= eps_n, exactly."""
    if d.is_zero():
        return
    z = d.eps_power(2 * n).sub(d.mul(d))
    full = AsymptoticSet.full(z.sigma, z.D)
    if not eventually_nonneg(z, full):
        raise ModulusViolated(f"step {n} breaks its certified bound")
    win = upto1(z.sigma)
    K = _start_block(z, win)
    # every block from the threshold scale to the certified start is
    # checked exactly, as is the stored head part below the threshold
    if eps_n > z.c0 and z.head is not None and \
            not z.head.restrict(z.c0, min(eps_n, Q(1))).nonneg_on_all():
        raise ModulusViolated(f"step {n} breaks its certified bound above "
                              "the anchor")
    k0 = z.grid.block_coord(eps_n)[0] if eps_n <= z.c0 else 0
    k = next(_failing_blocks(z, win, range(k0, K)), None)
    if k is not None:
        raise ModulusViolated(f"step {n} breaks its certified bound "
                              f"on block {k}")


def _head_cutoff(eps_n: Q, sg: Q, D: int) -> PwFunction:
    """A profile equal to 1 below the threshold scale, ramping to 0 over
    the block above it.  The threshold must sit on the geometric grid."""
    if eps_n >= 1:
        return PwFunction.const(1, sg, D)
    head = _pl_between(IvSet.interval(min(Q(1), eps_n / sg), 1),
                       IvSet.empty(), eps_n, Q(1), 1)
    g = Piecewise.const(sg, Q(1), Q(1))
    return PwFunction(sg, (TailComponent(0, 0, g),), head, eps_n, D)


# -- idempotents ----------------------------------------------------------


def idempotent_class(e) -> int | None:
    """0 or 1 if e is that constant in the quotient, None otherwise; the
    ring has no other idempotents, which callers verify by checking
    e*e = e implies a non-None answer."""
    er = _rep(e)
    if er.is_negligible():
        return 0
    if er.equiv(PwFunction.const(1, er.sigma, er.D)):
        return 1
    return None
