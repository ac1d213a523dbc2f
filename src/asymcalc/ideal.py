"""Finitely generated ideals of the quotient ring.

An ideal is stored by its generators; all decisions factor through the
squared-sum combined generator sos = sum of gens^2, relying on order
convexity of the ring: x belongs to the ideal exactly when x^2 is
eventually dominated by a polynomial-scale multiple of sos.  Zero-set
machinery (z-ideals, closures, pure parts, annihilators) reduces to exact
window geometry of the representatives.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .errors import (ImproperIdeal, RepresentabilityError,
                     SearchBoundExceeded)
from .genconst import GenConstant, _bisect, _rep, urysohn
from .grid import unify
from .ivset import Iv, IvSet
from .polytools import pt_cmp
from .pwfunc import PwFunction
from .scaleset import AsymptoticSet, circle_closure
from .signs import (NONNEG, POS, ZERO, _pt_in_ivset, eventual_sign_on,
                    flat_common_zero, isolated_common_zeros)
from .signs import restr_invertible_bool as _inv_bool


class FgIdeal:
    """A finitely generated ideal, represented by its generators and the
    cached combined generator sum(g^2)."""

    __slots__ = ("gens", "sos")

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

    def __repr__(self):
        return f"FgIdeal({len(self.gens)} gens, sos={self.sos.rep!r})"

    def full_set(self) -> AsymptoticSet:
        return AsymptoticSet.full(self.sos.rep.sigma, self.sos.rep.D)

    def is_proper(self) -> bool:
        return not _inv_bool(self.sos.rep, self.full_set())

    def is_zero(self) -> bool:
        return self.sos.is_negligible()


# -- zero structures ------------------------------------------------------


def _zero_structure(x: PwFunction):
    """(flat, points) window common-zero structure of the polynomial-scale
    part, or None when the element is negligible (everything vanishes)."""
    if x.is_negligible():
        return None
    return flat_common_zero(x), isolated_common_zeros(x)


def _pt_eq(p, q) -> bool:
    return pt_cmp(p, q) == 0


def z_subset(a, b) -> bool:
    """Whether every representable set on which a vanishes also kills b:
    containment of window zero structures."""
    ar, br = unify(_rep(a), _rep(b))
    if br.is_negligible():
        return True
    if ar.is_negligible():
        return False
    fa, pa = _zero_structure(ar)
    fb, pb = _zero_structure(br)
    if not fa.subset_of(fb):
        return False
    for p in pa:
        if not _pt_in_ivset(p, fb) and \
                not any(_pt_eq(p, q) for q in pb):
            return False
    return True


# -- membership -----------------------------------------------------------


def _slope_bound(x: PwFunction, sos: PwFunction) -> int:
    lo = min((c.s for c in x.live_comps()), default=0)
    hi = max((c.s for c in sos.live_comps()), default=0)
    need = hi - 2 * lo
    return max(0, -(-need // x.D)) + 4


def _valuation_floor(x: PwFunction, sos: PwFunction) -> int:
    """Least N that x^2 <= eps^(-N) * sos allows: the valuations force
    N >= val(sos) - 2 val(x)."""
    lo = min(c.s for c in x.live_comps())
    need = min(c.s for c in sos.live_comps()) - 2 * lo
    return max(0, -(-need // x.D))


def _domination_exponent(xr: PwFunction, I: FgIdeal):
    """The least N of ideal_member, or None; x must not be negligible and
    must pass the zero-structure test."""
    sos = I.sos.rep
    full = I.full_set()
    xr2 = xr.mul(xr)

    def holds(N):
        z = sos.mul(sos.eps_power(-N)).sub(xr2)
        return z if eventual_sign_on(z, full) in (POS, NONNEG, ZERO) \
            else None

    lo, hi = _valuation_floor(xr, sos), _slope_bound(xr, sos)
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
    if not z_subset(I.sos, x):
        return (False, None)
    N = _domination_exponent(xr, I)
    return (False, None) if N is None else (True, N)


def f_of_I_member(S: AsymptoticSet, I: FgIdeal) -> bool:
    """Membership of S in the invertibility filter of I: some element of
    the ideal is invertible off S."""
    coS = S.complement().closure()
    if not coS.is_characteristic():
        return True
    return _inv_bool(I.sos.rep, coS)


def radical_member(x, I: FgIdeal, mmax: int = 16):
    """(true, m, N) when x^m lands in I, else (false, None, None); the
    zero-structure test makes the negative answer exact."""
    if not z_subset(I.sos, x):
        return (False, None, None)
    xe = x if isinstance(x, GenConstant) else GenConstant(_rep(x))
    if xe.is_negligible():
        return (True, 1, 0)
    # every power of x has the zero structure of x, so the test above
    # covers them all
    p = xe
    for m in range(1, mmax + 1):
        N = _domination_exponent(p.rep, I)
        if N is not None:
            return (True, m, N)
        p = p * xe
    raise SearchBoundExceeded(
        f"no power up to {mmax} entered the ideal although the zero "
        "structures are compatible")


# -- pure part ------------------------------------------------------------


def _sos_zero_set(I: FgIdeal) -> AsymptoticSet:
    """The orbit set of the combined generator's window zeros; the
    complement-closure of the sublevel sets L_n stabilizes to it."""
    sos = I.sos.rep
    flat, pts = _zero_structure(sos)
    Z = flat.closure()
    for p in pts:
        if not isinstance(p, Q):
            raise RepresentabilityError(
                "generator zeros at algebraic points have no rational "
                "orbit set")
        Z = Z.union(IvSet.point(p))
    win = IvSet([Iv(sos.sigma, 1, False, True)])
    return AsymptoticSet(sos.sigma, circle_closure(Z, sos.sigma).
                         intersect(win), D=sos.D)


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
    xu, _ = unify(xr, I.sos.rep)
    Zset = _sos_zero_set(I)
    sg = xu.sigma
    win = IvSet([Iv(sg, 1, False, True)])
    Xflat = AsymptoticSet(sg, flat_common_zero(xu).intersect(win), D=xu.D)
    if not Zset.subset_of(Xflat.interior()):
        return (False, None)
    y = _purity_witness(xr, I, Zset)
    return (True, y)


def _purity_witness(xr: PwFunction, I: FgIdeal, Zset: AsymptoticSet):
    sg = xr.sigma
    win = IvSet([Iv(sg, 1, False, True)])
    supp = IvSet.empty()
    for c in xr.comps:
        if c.r == 0:
            supp = supp.union(c.g.flat_zero().complement(
                Iv(sg, 1, True, True)).closure())
    S = AsymptoticSet(sg, circle_closure(supp, sg).intersect(win), D=xr.D)
    from .genconst import (_circle_gap, _grow_circle, _orbit_with_full_head,
                           _wrap_to_window)
    try:
        Zc = circle_closure(Zset.shape, sg)
        if Zc.is_empty():
            T = AsymptoticSet.full(sg, xr.D)
        else:
            eta = _circle_gap(circle_closure(S.shape, sg), Zc, sg) / 2
            T = _orbit_with_full_head(
                _grow_circle(circle_closure(S.shape, sg), eta, sg), sg, S)
        y = GenConstant.const(1, sg, xr.D) - urysohn(S, T)
    except RepresentabilityError:
        return None
    if not (GenConstant(xr) * y == GenConstant(xr)):
        return None
    if not ideal_member(y, I)[0]:
        return None
    return y


def zclosure_member(x, I: FgIdeal) -> bool:
    """Smallest z-ideal over I: membership is zero-structure domination by
    the combined generator."""
    return z_subset(I.sos, x)


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
    from .window import Piecewise
    from .pwfunc import TailComponent
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
