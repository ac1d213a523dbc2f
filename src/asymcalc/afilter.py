"""Asymptotic filters as evaluable expressions.

A filter is a symbolic expression: a core, finitely generated (`FG`, all
closed asymptotic supersets of the generators' intersection) or the
invertibility filter of an ideal (`OfIdeal`), under any nesting of the
interior and closure operators.  Five laws, int int = int, cl cl = cl,
int cl = int, cl int = cl and int F(I) = F(I), reduce every nesting to
one normal form (`FilterExpr.normalize`): the core under its outermost
operator, with an interior over an ideal filter dropped.  `filter_member`
decides membership from that (operator, core) pair, and `i_of_f_member`
and `refuting_cover` read the core alone (`_core`), which normalizing
never changes.  A new core is a `FilterExpr` subclass with one branch in
each of `filter_member`, `i_of_f_member` and `_core_point`.  Every proper
filter is neither prime nor pseudoprime, and `refuting_cover` builds the
certificate: one closed cover on the cubed ratio, cut around two copies of
a point of the filter's core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import (ChainNotDescending, ImproperFilter, NotMember,
                     PreconditionViolated, RepresentabilityError)
from .genconst import GenConstant, _rep
from .grid import unify
from .ideal import FgIdeal, f_of_I_member, pure_part_member
from .ivset import Iv, IvSet
from .polytools import pt_enclosure
from .pwfunc import PwFunction, TailComponent
from .scaleset import AsymptoticSet
from .signs import eventually_nonneg, obstruction_meets, obstruction_on
from .signs import restr_zero as _restr_zero_pw
from .window import Piecewise


# -- expressions ----------------------------------------------------------


class FilterExpr:
    """Base class; concrete variants below."""

    def normalize(self) -> "FilterExpr":
        """The normal form: the core under the outermost operator, or the
        bare core when that operator is an interior over the filter of an
        ideal."""
        core = _core(self)
        if core is self or (isinstance(self, Interior)
                            and isinstance(core, OfIdeal)):
            return core
        return type(self)(core)


@dataclass
class FG(FilterExpr):
    """All closed asymptotic supersets of the generators' eventual
    intersection."""

    gens: tuple

    def __init__(self, gens):
        gens = tuple(gens)
        if not gens:
            raise ImproperFilter("a generated filter needs generators")
        for g in gens:
            if not g.is_closed():
                raise ImproperFilter("generators must be closed")
            if not g.is_characteristic():
                raise ImproperFilter("generators must accumulate at 0")
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                if not g.intersect(h).is_characteristic():
                    raise ImproperFilter(
                        "generator intersection does not accumulate at 0")
        object.__setattr__(self, "gens", gens)
        G = gens[0]
        for g in gens[1:]:
            G = G.intersect(g)
        object.__setattr__(self, "_base", G)

    def base(self) -> AsymptoticSet:
        return self._base


@dataclass
class OfIdeal(FilterExpr):
    """The invertibility filter of a finitely generated ideal."""

    ideal: FgIdeal


@dataclass
class Interior(FilterExpr):
    of: FilterExpr


@dataclass
class Closure(FilterExpr):
    of: FilterExpr


def _closure_of_ideal_member(S: AsymptoticSet, I: FgIdeal) -> bool:
    """S is in cl F(I) iff every strict extension of S is in F(I), i.e.
    the obstruction structure of sos avoids the open interior of co S."""
    coS = S.complement()
    O = coS.interior()
    if not O.is_characteristic():
        return True
    _, shape, structure = obstruction_on(I.sos_germ, O)
    return not obstruction_meets(structure, shape)


def filter_member(F: FilterExpr, S: AsymptoticSet) -> bool:
    """Whether the closed set S is in F, decided on F's normal form."""
    if not S.is_closed():
        raise PreconditionViolated("filter membership is asked of closed "
                                   "sets")
    F = F.normalize()
    core = _core(F)
    if isinstance(core, FG):
        G, s = unify(core.base(),
                     S.interior() if isinstance(F, Interior) else S)
        return G.shape.subset_of(s.shape)
    if isinstance(F, Closure):
        return _closure_of_ideal_member(S, core.ideal)
    return f_of_I_member(S, core.ideal)


def i_of_f_member(x, F: FilterExpr) -> bool:
    """Whether x vanishes on some member of the filter."""
    # interior and closure do not change the ideal of a filter
    F = _core(F)
    xr = _rep(x)
    if isinstance(F, FG):
        return _restr_zero_pw(xr, F.base())
    if isinstance(F, OfIdeal):
        return pure_part_member(x, F.ideal)[0]
    raise AssertionError("unknown filter variant")


# -- non-primality -------------------------------------------------------


@dataclass
class CounterExample:
    """Closed sets S and T with S u T the full set and int S u int T
    covering it, neither of them in the filter."""

    S: AsymptoticSet
    T: AsymptoticSet


def refuting_cover(F: FilterExpr) -> CounterExample:
    """One cover that refutes both primality and pseudoprimality of F.

    Take a point c in (sigma, 1] of the core of F (`_core_point`) and work
    on the ratio sigma^3, whose window (sigma^3, 1] holds the three copies
    c, c*sigma and c*sigma^2 of c's orbit.  S is the window circle minus a
    small open arc around c*sigma, T the circle minus one around
    c*sigma^2; both arcs lie strictly inside (sigma^3, 1), and neither
    reaches the other copy.  So S and T are closed, S u T is the full set,
    which every proper filter holds, and int S u int T covers the window:
    the union refutes primality and the interiors pseudoprimality.  Each
    part misses a neighbourhood of one copy of c, so neither holds the base
    of a generated filter, and for the filter of an ideal sos is not
    invertible on the complement of either.  The ratio is sigma^3 because
    coarsening an element by 3 never raises IncommensurableRatio, while by
    2 it does for a deep component with odd r.  The filter of an improper
    ideal holds every set and raises ImproperFilter."""
    c, grid = _core_point(F)
    sg, s3 = grid.sigma, grid.sigma ** 3
    # shrink the enclosure (lo, hi) of c until it lies above sigma and its
    # copy (lo, hi)*sigma lies below it; c > sigma, so this ends
    width = 1 - sg
    while True:
        lo, hi = pt_enclosure(c, width)
        if sg < lo and hi * sg < lo:
            break
        width /= 2
    S, T = (AsymptoticSet(s3, IvSet([Iv(s3, lo * k, False, True),
                                     Iv(hi * k, Q(1), True, True)]),
                          D=grid.D) for k in (sg, sg * sg))
    return CounterExample(S, T)


def _core_point(F: FilterExpr):
    """(c, grid): a window point c of the filter's core on the filter's
    grid.  Every member of a generated filter holds c's orbit (c is a point
    of the base); for the filter of an ideal, sos is not invertible near c's
    orbit (c is a point of the flat zero or a bad point of sos).  A bad
    point at w = sigma is bad on its sigma+ side, which is the orbit of
    w = 1."""
    F = _core(F)
    if isinstance(F, FG):
        G = F.base()
        return G.shape.ivs[0].hi, G.grid
    I = F.ideal
    if not I.is_proper():
        raise ImproperFilter("the filter of an improper ideal holds every "
                             "set")
    sos, _, (flat, pts) = obstruction_on(I.sos_germ, I.full_set())
    c = flat.ivs[0].hi if flat else pts[0].pos
    return (Q(1) if c == sos.sigma else c), sos.grid


def _core(F: FilterExpr) -> FilterExpr:
    """The generated or ideal filter under the interior and closure
    operators of F; normalizing never changes it."""
    while isinstance(F, (Interior, Closure)):
        F = F.of
    return F


def _some_member(F: FilterExpr) -> AsymptoticSet:
    F = _core(F)
    return F.base() if isinstance(F, FG) else F.ideal.full_set()


# -- rapidity -------------------------------------------------------------


def _check_chain(F: FilterExpr, chain):
    prev = None
    for S in chain:
        if not filter_member(F, S.closure() if not S.is_closed() else S):
            raise NotMember("chain element is not in the filter")
        if prev is not None and not S.precedes(prev):
            raise ChainNotDescending(
                "chain must be strictly descending in the extension order")
        if prev is not None and S.set_eq(prev):
            raise ChainNotDescending("chain must be strict")
        prev = S


def rapid_witness(F: FilterExpr, chain) -> AsymptoticSet:
    """A member below every chain element up to non-characteristic
    remainders; for generated filters the base itself works."""
    _check_chain(F, chain)
    T = _some_member(F)
    for S in chain:
        diff = T.difference(S)
        if diff.is_characteristic():
            raise RepresentabilityError(
                "witness remainder accumulates at 0")
    return T


def rapid_element(chain, D: int = 1) -> GenConstant:
    """The scale-graded element of the rapidity argument: phi interpolates
    the value eps^n across the n-th chain band, staying inside
    [eps^(n+1), 2 eps^n] on each band.  Band n is the points in exactly n
    chain sets; on band 0, outside the outermost set, phi = eps.  Chain
    sets must be single-interval orbits, nested away from the window
    seam."""
    ivs = []
    sigma = None
    for S in chain:
        if sigma is None:
            sigma = S.sigma
        if S.sigma != sigma or len(S.shape.ivs) != 1 or S.c0 != 1:
            raise RepresentabilityError(
                "rapid element needs single-interval orbit chain sets on "
                "one grid")
        iv = S.shape.ivs[0]
        ivs.append((iv.lo, iv.hi))
    if not ivs:
        raise PreconditionViolated("empty chain")
    if ivs[0][0] <= sigma or ivs[0][1] >= 1:
        raise RepresentabilityError("chain must stay inside the window")
    for (a, b), (a2, b2) in zip(ivs, ivs[1:]):
        if not (a < a2 and b2 < b):
            raise ChainNotDescending("chain intervals must nest strictly")
    L = len(ivs)
    tcs = []
    for n in range(1, L + 1):
        a, b = ivs[n - 1]
        # ramp in over the outer half of the enclosing band and out over
        # the inner half of this band; the first component stays at 1 out
        # to the seam, so phi = eps on band 0
        if n == 1:
            in_lo, in_hi = (sigma, Q(1)), (Q(1), Q(1))
        else:
            pa, pb = ivs[n - 2]
            in_lo, in_hi = ((pa + a) / 2, Q(0)), ((b + pb) / 2, Q(0))
        if n < L:
            na, nb = ivs[n]
            pts = [in_lo, (a, Q(1)), ((a + na) / 2, Q(1)), (na, Q(0)),
                   (nb, Q(0)), ((nb + b) / 2, Q(1)), (b, Q(1)), in_hi]
        else:
            pts = [in_lo, (a, Q(1)), (b, Q(1)), in_hi]
        tcs.append(TailComponent(n * D, 0, _bump_profile(pts, sigma, n, D)))
    phi = PwFunction(sigma, tcs)
    _verify_rapid(phi, ivs, sigma, D)
    return GenConstant(phi)


def _bump_profile(pts, sigma: Q, n: int, D: int) -> Piecewise:
    """w^(nD) times the piecewise linear interpolation of the nodes, padded
    with zero out to the window ends."""
    mono = Piecewise.from_poly(sigma, Q(1), (0,) * (n * D) + (1,))
    pad_lo = [(sigma, Q(0))] if pts[0][0] > sigma else []
    pad_hi = [(Q(1), Q(0))] if pts[-1][0] < 1 else []
    return Piecewise.linear_interp(pad_lo + pts + pad_hi).mul(mono)


def _verify_rapid(phi: PwFunction, ivs, sigma: Q, D: int):
    """Exact per-band sandwich eps^(n+1) <= phi <= 2 eps^n for n = 0..L,
    each band taken closed: band 0 is the closed complement of the
    outermost set, band L the innermost set."""
    (a, b), (ia, ib) = ivs[0], ivs[-1]
    bands = [[Iv(sigma, a, False, True), Iv(b, 1, True, True)]]
    bands += [[Iv(a, na, True, True), Iv(nb, b, True, True)]
              for (a, b), (na, nb) in zip(ivs, ivs[1:])]
    bands.append([Iv(ia, ib, True, True)])
    for n, band_ivs in enumerate(bands):
        band = AsymptoticSet(sigma, IvSet(band_ivs), D=D)
        lo = phi.sub(phi.eps_power(n + 1))
        hi = phi.eps_power(n).scale(2).sub(phi)
        for z in (lo, hi):
            if not eventually_nonneg(z, band):
                raise RepresentabilityError(
                    f"rapid sandwich fails on band {n}")
