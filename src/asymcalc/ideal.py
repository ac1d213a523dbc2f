"""Finitely generated ideals of the quotient ring.

An ideal is stored by its generators; all decisions factor through the
squared-sum combined generator sos = sum of gens^2, relying on order
convexity of the ring: x belongs to the ideal exactly when x^2 is
eventually dominated by a polynomial-scale multiple of sos.  Zero-set
machinery (z-ideals, closures, pure parts, annihilators) reduces to exact
window geometry of the representatives.

Membership, z-closure, pure part, radical and the invertibility filter are
germ questions.  An element of the ring is a class of functions modulo the
negligible ones, and a function vanishing on some (0, c0] is negligible,
so each answer depends on x near 0 only, never on the head a
representative stores on (c0, 1].  The decisions therefore run on
`PwFunction.germ`, the head-free representative on anchor 1: two germs
unify by coarsening the ratio alone, and a witness search does tail
arithmetic only.

Answers are kept where they are computed, on immutable values.  An ideal
keeps the germ of sos, its properness and its orbit zero set, each
computed once, on first use, and the least domination exponent of every
germ it was asked about, keyed by the germ's grid and components.  An
element keeps its window zero set in its `_zeros` slot (`signs.zero_set`
fills it) and its obstruction structure in its `_bad` slot
(`signs.obstruction_on` fills that one), so the germ of sos keeps both for
every question on its ratio.
A kept answer equals a fresh one: a germ has no head, so its key holds the
whole function, and the search that fills the entry is a deterministic
function of the germ and the ideal.  The segments and components are
canonical, so equal functions on one grid share a key; equal functions on
different grids miss and are searched again.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from functools import cached_property

from .errors import (ImproperIdeal, PreconditionViolated,
                     RepresentabilityError, SearchBoundExceeded)
from .genconst import GenConstant, _bisect, _cutoff, _rep
from .grid import unify
from .ivset import Iv
from .pwfunc import PwFunction, TailComponent
from .scaleset import AsymptoticSet, circle_closure, halfway_toward, upto1
from .signs import (eventually_nonneg, flat_common_zero,
                    restr_invertible_bool, zero_set)
from .window import Piecewise


class FgIdeal:
    """A finitely generated ideal, represented by its generators and the
    combined generator sos = sum(g^2).  The germ of sos, properness and the
    orbit zero set of sos are computed on first use and kept, and the germ
    keeps its zero and obstruction structures: building an ideal costs the
    products alone.  `_exponents` maps the key (grid, comps) of a germ to
    its least domination exponent, None when no N up to the slope bound
    holds; `_domination_exponent` fills it, one search per germ.  The key
    holds the whole germ and the search is deterministic, so a kept
    exponent is the one a fresh search finds.  `_filter` maps the key
    (grid, shape intervals, head intervals) of a set S to the answer of
    `f_of_I_member(S, self)`.  That key holds the whole set, as
    `AsymptoticSet.on` rebuilds S from it, and the answer depends on S
    and sos alone, so a kept answer is the one a fresh decision gives."""

    def __init__(self, gens):
        gens = [g if isinstance(g, GenConstant) else GenConstant(g)
                for g in gens]
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        self.gens = gens
        acc = gens[0] * gens[0]
        for g in gens[1:]:
            acc = acc + g * g
        self.sos = acc
        self._exponents = {}
        self._filter = {}

    def __repr__(self):
        return f"FgIdeal({len(self.gens)} gens, sos={self.sos.rep!r})"

    def full_set(self) -> AsymptoticSet:
        return AsymptoticSet.full(self.sos.rep.sigma, self.sos.rep.D)

    def is_proper(self) -> bool:
        return self._proper

    def is_zero(self) -> bool:
        return self.sos.is_negligible()

    @cached_property
    def sos_germ(self) -> PwFunction:
        return self.sos.rep.germ()

    @cached_property
    def _proper(self) -> bool:
        return not restr_invertible_bool(self.sos_germ, self.full_set())

    @cached_property
    def _zero_set(self) -> AsymptoticSet:
        """The orbit set of the window zeros of sos; the complement-closure
        of the sublevel sets L_n stabilizes to it."""
        sos = self.sos_germ
        Z, irrational = zero_set(sos)
        if irrational:
            raise RepresentabilityError(
                "generator zeros at algebraic points have no rational "
                "orbit set")
        return AsymptoticSet(sos.sigma, circle_closure(Z, sos.sigma), D=sos.D)


# -- zero sets ------------------------------------------------------------


def z_subset(a, b) -> bool:
    """Whether every representable set on which a vanishes also kills b:
    containment of the window zero sets of the germs.  A negligible
    element vanishes on the whole window, so its zero set holds every
    other and lies in no non-negligible one."""
    ar, br = unify(_rep(a).germ(), _rep(b).germ())
    (Za, ia), (Zb, ib) = zero_set(ar), zero_set(br)
    return Za.subset_of(Zb) and all(Zb.contains(p) or p in ib for p in ia)


# -- membership -----------------------------------------------------------


def _slope_bound(x: PwFunction, sos: PwFunction) -> int:
    lo = min((c.s for c in x.live_comps()), default=0)
    hi = max((c.s for c in sos.live_comps()), default=0)
    need = hi - 2 * lo
    return max(0, -(-need // x.D)) + 4


def _valuation_floor(x: PwFunction, sos: PwFunction) -> int:
    """Least N that x^2 <= eps^(-N) * sos allows: the valuations force
    N >= val(sos) - 2 val(x)."""
    return max(0, math.ceil(sos.valuation() - 2 * x.valuation()))


def _domination_exponent(xg: PwFunction, I: FgIdeal):
    """The least N of ideal_member, or None, for the germ xg of an element
    that is not negligible and passes the zero-structure test: kept by I,
    searched on the first question about xg."""
    key = (xg.grid, xg.comps)
    try:
        return I._exponents[key]
    except KeyError:
        N = I._exponents[key] = _least_exponent(xg, I)
        return N


def _least_exponent(xg: PwFunction, I: FgIdeal):
    """The search of `_domination_exponent`.  sos and x^2 share one grid
    up front, so building each z_N is tail arithmetic on it."""
    sos, x2 = unify(I.sos_germ, xg.mul(xg))
    full = I.full_set()

    def holds(N):
        z = sos.mul(sos.eps_power(-N)).sub(x2)
        return z if eventually_nonneg(z, full) else None

    lo, hi = _valuation_floor(xg, sos), _slope_bound(xg, sos)
    if holds(lo) is not None:
        return lo
    if holds(hi) is None:
        return None
    return _bisect(holds, lo, hi)[0]


def ideal_member(x, I: FgIdeal):
    """Exact membership with its domination witness: (true, N) when
    x^2 <= eps^(-N) * sos at all small enough scales, with N the least
    such exponent, else (false, None).

    Two facts bound the search.  z_N = eps^(-N) * sos - x^2 is
    nondecreasing in N, since sos >= 0 and 0 < eps <= 1; and no N below
    the valuation floor val(sos) - 2 val(x) can hold.  After the
    negligibility and zero-structure tests, the floor is decided first,
    then the slope bound, whose failure settles non-membership, and the
    least N between them is found by bisection.  The floor goes first
    because where x^2 cancels against part of sos (x a generator, say)
    the sign engine classifies z_N at the floor exactly but may report
    MIXED above it."""
    xr = _rep(x)
    if xr.is_negligible():
        return (True, 0)
    xg = xr.germ()
    if not z_subset(I.sos_germ, xg):
        return (False, None)
    N = _domination_exponent(xg, I)
    return (False, None) if N is None else (True, N)


def f_of_I_member(S: AsymptoticSet, I: FgIdeal) -> bool:
    """Membership of S in the invertibility filter of I: some element of
    the ideal is invertible off S.  Kept by I per set (see FgIdeal)."""
    key = (S.grid, S.shape.ivs, S.head.ivs)
    try:
        return I._filter[key]
    except KeyError:
        coS = S.complement().closure()
        member = I._filter[key] = not coS.is_characteristic() or \
            restr_invertible_bool(I.sos_germ, coS)
        return member


def radical_member(x, I: FgIdeal, mmax: int = 16):
    """(true, m, N) for the least m <= mmax with x^m in I, and
    (false, None, None) when the zero-structure test, which is exact,
    denies every power.  SearchBoundExceeded when the test allows them but
    no power up to mmax lands; PreconditionViolated for mmax < 1, which
    leaves no power to try."""
    if mmax < 1:
        raise PreconditionViolated(
            f"mmax = {mmax} leaves no power to try; it must be >= 1")
    xg = _rep(x).germ()
    if not z_subset(I.sos_germ, xg):
        return (False, None, None)
    if xg.is_negligible():
        return (True, 1, 0)
    # every power of x has the zero set of x, so the test above
    # covers them all
    p = xg
    for m in range(1, mmax + 1):
        N = _domination_exponent(p, I)
        if N is not None:
            return (True, m, N)
        p = p.mul(xg)
    raise SearchBoundExceeded(
        f"no power up to {mmax} entered the ideal although the zero "
        "structures are compatible")


# -- pure part ------------------------------------------------------------


def pure_part_member(x, I: FgIdeal):
    """(true, y) when x = x*y for some y in I.  The sublevel sets
    {sos <= eps^(2n)} keep a positive-width band around the generator
    zeros at every scale, so x must vanish on a window neighborhood of
    the zero set, not just on it."""
    if not I.is_proper():
        raise ImproperIdeal("the pure part is defined for proper ideals")
    xr = _rep(x)
    if xr.is_negligible():
        return (True, GenConstant.zero(xr.sigma, xr.D))
    if I.is_zero():
        return (False, None)
    xu, _ = unify(xr.germ(), I.sos_germ)
    Zset = I._zero_set
    sg = xu.sigma
    Xflat = AsymptoticSet(sg, flat_common_zero(xu).intersect(upto1(sg)),
                          D=xu.D)
    if not Zset.subset_of(Xflat.interior()):
        return (False, None)
    return (True, _purity_witness(xr, I, Zset))


def _purity_witness(xr: PwFunction, I: FgIdeal, Zset: AsymptoticSet):
    """y = 1 - urysohn(S, T), built as `_cutoff`(S, T, 1), for the closed
    support S of x, the circle closure of the window off the flat common
    zero of x, and T halfway from S to the zero set of sos.  None when no
    representable T exists or when ideal_member denies y in I.  x*y = x is
    exact arithmetic, so a y that fails it is an engine fault and
    raises."""
    sg = xr.sigma
    supp = flat_common_zero(xr).complement(Iv(sg, 1, True, True))
    S = AsymptoticSet(sg, circle_closure(supp, sg), D=xr.D)
    try:
        T = halfway_toward(S.shape, circle_closure(Zset.shape, sg), sg, S)
        y = GenConstant(_cutoff(S, T, 1))
    except RepresentabilityError:
        return None
    xg = xr.germ()
    if not xg.mul(y.rep.germ()).equiv(xg):
        raise AssertionError("purity witness fails x*y = x")
    # ideal_member can deny a y that lies in I, where the sign engine
    # reports MIXED at a perfect-square Newton edge of z_N (ROADMAP item
    # 1).  Such a y is no witness that ideal_member accepts, so none is
    # returned.
    return y if ideal_member(y, I)[0] else None


def zclosure_member(x, I: FgIdeal) -> bool:
    """Smallest z-ideal over I: membership is zero-structure domination by
    the combined generator."""
    return z_subset(I.sos_germ, x)


def closure_member(x, I: FgIdeal) -> bool:
    """Sharp-topology closure of a finitely generated ideal coincides with
    its z-closure."""
    return zclosure_member(x, I)


def zpart_member(x, I: FgIdeal) -> bool:
    """Largest z-ideal inside I, which for finitely generated ideals is
    the pure part."""
    return pure_part_member(x, I)[0]


# -- annihilators and the extension-failure instance ----------------------


def annihilator_member(x, I: FgIdeal) -> bool:
    xr = _rep(x)
    return all(xr.mul(_rep(g)).is_zero() for g in I.gens)


def hb_construct():
    """A concrete nonzero ideal with nonzero annihilator: a bump ideal on
    a geometric interval orbit and a cross bump supported in the
    complementary gap.  Returns (J, x, y) with x in J, y in the
    annihilator, x*y = 0 exactly."""
    H = Q(1, 2)
    gx = Piecewise.linear_interp([(Q(1, 2), 0), (Q(5, 8), 0), (Q(3, 4), 1),
                                  (Q(7, 8), 0), (Q(1), 0)])
    gy = Piecewise.linear_interp([(Q(1, 2), 0), (Q(29, 32), 0),
                                  (Q(15, 16), 1), (Q(31, 32), 0),
                                  (Q(1), 0)])
    x = GenConstant(PwFunction(H, [TailComponent(0, 0, gx)]))
    y = GenConstant(PwFunction(H, [TailComponent(0, 0, gy)]))
    J = FgIdeal([x])
    assert not x.is_negligible() and not y.is_negligible()
    assert (x * y).rep.is_zero()
    assert annihilator_member(y, J)
    return J, x, y
