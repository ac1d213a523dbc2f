"""Numeric cross-checks for the exact engine.

Two shadows of exact answers.  Both read an element only through its
representation (tail components, head, exact pointwise values), never
through the exact decision machinery of signs, genconst, ideal or
afilter:

- oracle_valuation samples x on the geometric grid
  u_j = 2^-(j // 8) * b_(j % 8), where b_i is the double 0.5 ** (i / 8)
  taken as an exact rational, and estimates the scale order from the
  slope of log|x(u)| against log u, fitted at high precision.  On a
  grid of ratio 1/2 all samples of one residue class j % 8 share their
  window coordinate, so each tail profile is evaluated exactly once per
  distinct coordinate.  The block weights sigma^e stay in the log
  domain: components with equal exponent e are summed exactly, and
  distinct exponents are combined in mpmath at the working precision,
  so no sample builds the exact value of x(u) below the anchor.  Above
  the anchor samples use the exact head.
- oracle_vanishes_on samples x on the set S itself: on the two deepest
  blocks of S above the grid depth it takes each point, each closed
  endpoint and evenly spaced interior points of the shape, so point
  orbits and thin shapes are hit exactly.  Each block votes by comparing
  |x(u)| with u^n and u^(n/2), n = quantifier_bound.

Disagreement between a shadow and an exact answer is reported as
inconclusive, never as an engine failure, unless the gap survives the
stated tolerance.
"""

from dataclasses import dataclass
from fractions import Fraction as Q

import mpmath

from ..errors import AllSamplesZero

__all__ = [
    "OracleConfig",
    "ValuationEstimate",
    "oracle_valuation",
    "oracle_vanishes_on",
]


@dataclass(frozen=True)
class OracleConfig:
    """Grid and precision parameters for the numeric oracle.

    depth:      deepest grid index J.  Valuation samples are
                u_j = 2^-(j // 8) * b_(j % 8) on the full blocks
                8 <= j < 8 (J // 8), with b_i the double
                0.5 ** (i / 8).  Set samples stay at or above 2^-(J // 8).
    window:     number of deepest usable samples entering the slope fit.
    precision:  mpmath working precision in decimal digits.  A sample
                whose terms cancel to within 10^(8 - precision) of the
                largest term counts as zero.
    tolerance:  half-width accepted around an exact valuation.
    quantifier_bound:  existential scale quantifiers are probed up to
                this exponent only (the oracle shadows "exists n" by
                "exists n <= bound"); vanishing compares |x(u)| with
                u^bound and u^(bound/2).
    min_scale:  samples below this magnitude are treated as zero; probes
                never look past it (delta >= 2^-120 in the default).
    """

    depth: int = 1600
    window: int = 200
    precision: int = 60
    tolerance: Q = Q(1, 20)
    quantifier_bound: int = 8
    min_scale: Q = Q(1, 2 ** 120)


# b_i of the valuation grid: the double 0.5 ** (i / 8) as an exact rational
_RESIDUES = tuple(Q(0.5 ** (i / 8)) for i in range(8))


@dataclass(frozen=True)
class ValuationEstimate:
    lo: float
    hi: float
    diverging: bool

    def contains(self, v) -> bool:
        if v is None:
            return self.diverging
        return self.lo <= float(v) <= self.hi


def _logabs(q: Q):
    """log|q| without building floats from huge integers directly."""
    return mpmath.log(abs(q.numerator)) - mpmath.log(q.denominator)


def _slope(points):
    """Least-squares slope of log|x| against log u."""
    n = len(points)
    sx = mpmath.fsum(p[0] for p in points)
    sy = mpmath.fsum(p[1] for p in points)
    sxx = mpmath.fsum(p[0] * p[0] for p in points)
    sxy = mpmath.fsum(p[0] * p[1] for p in points)
    den = n * sxx - sx * sx
    return (n * sxy - sx * sy) / den


def _grid(cfg: OracleConfig):
    """The valuation samples (k, u), u = 2^-k * b_i for each residue b_i,
    on the full blocks k = 1 .. depth // 8 - 1 of the ratio 1/2."""
    for k in range(1, cfg.depth // 8):
        for b in _RESIDUES:
            yield k, Q(b.numerator, b.denominator << k)


def _log_sampler(x, cfg: OracleConfig):
    """The function u -> log|x(u)| on (0, 1], or None where x(u) counts
    as zero, at the current mpmath precision.

    Below the anchor the value on block k at window coordinate w is
    sum_c sigma^(e_c(k)) g_c(w).  The profile values g_c(w) are exact
    and memoized per w for the life of the returned function.
    Components of equal exponent are summed exactly.  The nonzero sums
    t_e give log|x(u)| = e0 log(sigma) + log|sum_e sigma^(e - e0) t_e|,
    with e0 the smallest exponent and the sum taken in mpmath.  A sum of
    several terms within 10^(8 - precision) of the largest term counts
    as zero.
    """
    comps = x.comps
    log_sigma = _logabs(x.sigma)
    sigma = _mpf(x.sigma)
    cutoff = mpmath.mpf(10) ** (8 - cfg.precision)
    profiles = {}

    def log_abs(u):
        if u > x.c0:
            val = x.head.eval(u)
            return _logabs(val) if val else None
        k, w = x.block_coord(u)
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


def _mpf(q: Q):
    return mpmath.mpf(q.numerator) / q.denominator


def _block_maxima(log_abs, cfg: OracleConfig):
    """The largest log|x(u)| over the grid samples of each block k, from
    the sampler log_abs; blocks where every sample is zero are left out."""
    best = {}
    for k, u in _grid(cfg):
        la = log_abs(u)
        if la is not None and (k not in best or la > best[k]):
            best[k] = la
    if not best:
        raise AllSamplesZero("element vanished at every grid point")
    return best


def _fit(best, cfg: OracleConfig) -> ValuationEstimate:
    """Slope estimate from the per-block maxima of log|x|."""
    log2 = mpmath.log(2)
    logs = [(-log2 * k, best[k]) for k in sorted(best)]
    wn = max(2, min(cfg.window // 8, len(logs) // 2))
    win = logs[-wn:]
    prev = logs[-2 * wn:-wn] or win
    s_deep = _slope(win)
    s_prev = _slope(prev)
    drift = float(s_deep - s_prev)
    if drift > 0.5 and float(s_deep) > float(s_prev) * 1.1 + 0.5:
        return ValuationEstimate(float(s_deep), mpmath.inf, True)
    tol = float(cfg.tolerance)
    spread = abs(drift)
    half = max(tol, spread)
    mid = float(s_deep)
    return ValuationEstimate(mid - half, mid + half, False)


def oracle_valuation(x, cfg: OracleConfig = OracleConfig()) -> ValuationEstimate:
    """Estimate the scale order of x by log-log regression.

    x is sampled on the grid of cfg (see _grid), and log|x(u)| is
    computed in the log domain (see _log_sampler).  The fit runs against
    the per-block maximum of |x|: pointwise samples dip arbitrarily low
    near interior zeros of a window profile, which would bias a raw
    regression.  Returns an interval [lo, hi] expected to contain the
    exact valuation, or a diverging flag when the local slope keeps
    growing with depth (the numeric signature of a negligible element).
    """
    with mpmath.workdps(cfg.precision):
        return _fit(_block_maxima(_log_sampler(x, cfg), cfg), cfg)


def _shape_points(shape):
    """Window coordinates probing a shape: each point, each closed
    endpoint and seven evenly spaced interior points of each interval."""
    out = []
    for iv in shape.ivs:
        if iv.lo == iv.hi:
            out.append(iv.lo)
            continue
        if iv.lc:
            out.append(iv.lo)
        out.extend(iv.lo + (iv.hi - iv.lo) * Q(i, 8) for i in range(1, 8))
        if iv.hc:
            out.append(iv.hi)
    return out


def _deep_blocks(S, cfg: OracleConfig):
    """Samples u = c0 sigma^k w of S, for w from _shape_points, on the two
    deepest blocks k that lie wholly at or above 2^-(depth // 8) and
    min_scale.  Returns a list of two sample lists, or [] when no block
    is deep enough or the shape is empty."""
    ws = _shape_points(S.shape)
    floor = max(Q(1, 2 ** (cfg.depth // 8)), cfg.min_scale)
    if not ws or floor > S.c0:
        return []
    # block k spans (c0 sigma^(k+1), c0 sigma^k]; the deepest block wholly
    # at or above the floor is the one just above the floor's block
    k = S.grid.block_coord(floor)[0] - 1
    if k < 1:
        return []
    return [[S.c0 * S.sigma ** j * w for w in ws] for j in (k - 1, k)]


def oracle_vanishes_on(x, S, cfg: OracleConfig = OracleConfig()):
    """Sampled shadow of "x restricts to zero on S".

    x is sampled at the points of S on its two deepest blocks above the
    depth of cfg (see _deep_blocks).  With n = quantifier_bound, a block
    votes True when every sample has |x(u)| <= u^n, and False when some
    sample has |x(u)| > u^(n/2); otherwise it abstains.  Returns the
    common vote of the two blocks, or None when they differ, a block
    abstains, or S has no samples deep enough.
    """
    n = cfg.quantifier_bound
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
