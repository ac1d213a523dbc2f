"""Asymptotic filters as evaluable expressions.

A filter is a symbolic expression: finitely generated (all closed
asymptotic supersets of the generators' intersection), the invertibility
filter of an ideal, or an interior/closure operator applied to one of
those.  Membership is decided by structural recursion; primality-style
properties are refuted by randomized covers, never proved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import (ChainNotDescending, ImproperFilter, NotMember,
                     PreconditionViolated, RepresentabilityError)
from .genconst import GenConstant, _rep
from .grid import unify
from .ideal import FgIdeal, f_of_I_member, pure_part_member
from .ivset import Iv, IvSet
from .pwfunc import PwFunction, TailComponent
from .scaleset import AsymptoticSet
from .signs import (NONNEG, POS, ZERO, bad_structure, common_window,
                    eventual_sign_on)
from .signs import restr_zero as _restr_zero_pw
from .window import Piecewise


# -- expressions ----------------------------------------------------------


class FilterExpr:
    """Base class; concrete variants below."""

    def member(self, S: AsymptoticSet) -> bool:
        raise NotImplementedError

    def normalize(self) -> "FilterExpr":
        return self


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

    def member(self, S):
        _need_closed(S)
        G, s = unify(self.base(), S)
        return G.shape.subset_of(s.shape)


@dataclass
class OfIdeal(FilterExpr):
    """The invertibility filter of a finitely generated ideal."""

    ideal: FgIdeal

    def member(self, S):
        _need_closed(S)
        return f_of_I_member(S, self.ideal)


@dataclass
class Interior(FilterExpr):
    of: FilterExpr

    def member(self, S):
        _need_closed(S)
        base = self.normalize()
        if not isinstance(base, Interior):
            return base.member(S)
        inner = base.of
        if isinstance(inner, FG):
            G, s = unify(inner.base(), S.interior())
            return G.shape.subset_of(s.shape)
        raise AssertionError("normalize left an unexpected interior")

    def normalize(self):
        inner = self.of.normalize()
        if isinstance(inner, OfIdeal):
            # the ideal filter is already open in the extension topology
            return inner
        if isinstance(inner, Interior):
            return inner
        if isinstance(inner, Closure):
            # int(cl F) = int F
            return Interior(inner.of).normalize()
        return Interior(inner)


@dataclass
class Closure(FilterExpr):
    of: FilterExpr

    def member(self, S):
        _need_closed(S)
        base = self.normalize()
        if not isinstance(base, Closure):
            return base.member(S)
        inner = base.of
        if isinstance(inner, FG):
            G, s = unify(inner.base(), S)
            return G.shape.subset_of(s.shape)
        if isinstance(inner, OfIdeal):
            return _closure_of_ideal_member(S, inner.ideal)
        raise AssertionError("normalize left an unexpected closure")

    def normalize(self):
        inner = self.of.normalize()
        if isinstance(inner, Closure):
            return inner
        if isinstance(inner, Interior):
            # cl(int F) = cl F
            return Closure(inner.of).normalize()
        return Closure(inner)


def _need_closed(S: AsymptoticSet):
    if not S.is_closed():
        raise PreconditionViolated("filter membership is asked of closed "
                                   "sets")


def _closure_of_ideal_member(S: AsymptoticSet, I: FgIdeal) -> bool:
    """S is in cl F(I) iff every strict extension of S is in F(I), i.e.
    the obstruction structure of sos avoids the open interior of co S."""
    coS = S.complement()
    O = coS.interior()
    if not O.is_characteristic():
        return True
    sos, shape = common_window(I.sos.rep, O)
    flat, badpts = bad_structure(sos)
    if flat and flat.intersect(shape):
        return False
    from .signs import _bad_hits
    return not any(_bad_hits(b, shape) for b in badpts)


def filter_member(F: FilterExpr, S: AsymptoticSet) -> bool:
    return F.normalize().member(S)


def i_of_f_member(x, F: FilterExpr) -> bool:
    """Whether x vanishes on some member of the filter."""
    F = F.normalize()
    # interior and closure do not change the ideal of a filter
    while isinstance(F, (Interior, Closure)):
        F = F.of.normalize()
    xr = _rep(x)
    if isinstance(F, FG):
        return _restr_zero_pw(xr, F.base())
    if isinstance(F, OfIdeal):
        return pure_part_member(x, F.ideal)[0]
    raise AssertionError("unknown filter variant")


# -- primality refuters ---------------------------------------------------


@dataclass
class Verified:
    trials: int

    def __bool__(self):
        return True


@dataclass
class CounterExample:
    S: AsymptoticSet
    T: AsymptoticSet

    def __bool__(self):
        return False


def _rand_q(rng, lo: Q, hi: Q, den: int = 64) -> Q:
    n = rng.randrange(1, den)
    return lo + (hi - lo) * Q(n, den)


def _arc_pair(rng, sigma: Q):
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
                                       True, True)]).intersect(
        IvSet([Iv(sigma, 1, False, True)])))
    # complementary arc through the seam, fattened to overlap
    Tsh = IvSet([Iv(sigma, a, False, True), Iv(b, Q(1), True, True)])
    grown = IvSet([Iv(iv.lo - eps, iv.hi + eps, True, True)
                   for iv in Tsh.ivs])
    from .genconst import _wrap_to_window
    T = AsymptoticSet(sigma, _wrap_to_window(grown, sigma))
    return S.closure(), T.closure()


def _doubled_pair(sigma: Q, cut: Q):
    """A period-doubled cover: on the squared ratio, one arc around the
    even copy of the cut and one around the odd copy, each avoiding the
    other copy."""
    s2 = sigma * sigma
    even, odd = cut, cut * sigma
    gap = min(abs(even - odd), even - s2, odd - s2, 1 - even, 1 - odd) / 4
    S = AsymptoticSet(s2, _arc_avoiding(s2, even, odd, gap))
    T = AsymptoticSet(s2, _arc_avoiding(s2, odd, even, gap))
    return S.closure(), T.closure()


def _arc_avoiding(sigma: Q, around: Q, avoid: Q, gap: Q) -> IvSet:
    """The closed window circle minus an open gap around `avoid`."""
    lo, hi = avoid - gap, avoid + gap
    if lo <= sigma or hi >= 1:
        raise ValueError("gap leaves the window")
    if lo <= around <= hi:
        raise ValueError("gap hits the point to keep")
    from .scaleset import circle_closure
    return circle_closure(IvSet([Iv(sigma, lo, False, True),
                                 Iv(hi, Q(1), True, True)]), sigma)


def pseudoprime_check(F: FilterExpr, trials: int, seed: int):
    """Search for a cover int S + int T = FULL with neither part in F."""
    def covers(F, sigma, S, T):
        full = AsymptoticSet.full(sigma)
        return full.subset_of(S.interior().union(T.interior()))
    return _refute(F, trials, f"pseudoprime-{seed}",
                   lambda member, rng, sigma: _arc_pair(rng, sigma), covers)


def prime_check(F: FilterExpr, trials: int, seed: int):
    """Search for S, T with the union in F but neither part in F."""
    def covers(F, sigma, S, T):
        return filter_member(F, S.union(T).closure())
    return _refute(F, trials, f"prime-{seed}", _split_member, covers)


def _refute(F: FilterExpr, trials: int, stream: str, split, covers):
    """The trial loop of the prime and pseudoprime checks.  Trial t draws
    from random.Random(f"{stream}-{t}").  Every third trial tries a
    period-doubled cover, cut at a break of a member's shape on every
    other such trial (those cuts are the structurally relevant ones);
    the rest take split(member, rng, sigma).  A pair (S, T) with
    covers(F, sigma, S, T) counts as a trial done, and refutes F when
    neither part is in F."""
    if trials < 1:
        raise PreconditionViolated("at least one trial")
    F = F.normalize()
    sigma = _filter_sigma(F)
    member = _some_member(F)
    cuts = sorted(set(c for iv in member.shape.ivs for c in (iv.lo, iv.hi)
                      if sigma < c < 1))
    done = 0
    for t in range(trials):
        rng = random.Random(f"{stream}-{t}")
        if t % 3 == 2:
            # period-doubled covers catch filters whose base is a single
            # orbit: neither doubled arc contains both copies of the cut
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
        done += 1
        if not filter_member(F, S) and not filter_member(F, T):
            return CounterExample(S, T)
    return Verified(done)


def _filter_sigma(F: FilterExpr) -> Q:
    while isinstance(F, (Interior, Closure)):
        F = F.of
    if isinstance(F, FG):
        return F.base().sigma
    if isinstance(F, OfIdeal):
        return F.ideal.sos.rep.sigma
    raise AssertionError("unknown filter variant")


def _some_member(F: FilterExpr) -> AsymptoticSet:
    while isinstance(F, (Interior, Closure)):
        F = F.of
    if isinstance(F, FG):
        return F.base()
    return AsymptoticSet.full(_filter_sigma(F))


def _split_member(G: AsymptoticSet, rng, sigma: Q):
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
                              Iv(sigma, Q(1), False, True))
    S = AsymptoticSet(sigma, left.union(rest), D=G.D).closure()
    T = AsymptoticSet(sigma, right.union(rest), D=G.D).closure()
    return S, T


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
    F = F.normalize()
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
    """w^(nD) times the piecewise linear bump given by node values, padded
    with zero outside, possibly in two pieces around a suppressed middle."""
    mono = Piecewise.from_poly(sigma, Q(1),
                               (Q(0),) * (n * D) + (Q(1),))
    # split into runs at gaps between consecutive zero nodes
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
            if eventual_sign_on(z, band) not in (POS, NONNEG, ZERO):
                raise RepresentabilityError(
                    f"rapid sandwich fails on band {n}")


# -- the extension-order interval base ------------------------------------


def prec_interval_basis(S: AsymptoticSet, T: AsymptoticSet):
    """The basic open interval of the extension topology, as a membership
    predicate."""

    def member(U: AsymptoticSet) -> bool:
        return S.precedes(U) and U.precedes(T)

    return member
