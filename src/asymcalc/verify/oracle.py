"""Numeric cross-checks for the exact engine.

Two shadows of exact answers.  Both read an element only through its
representation (tail components, head, exact pointwise values), never
through the exact decision machinery of signs, genconst, ideal or
afilter:

- oracle_valuation samples x on the geometric grid
  u_j = 2^-(j // 8) * b_(j % 8), where b_i is the double 0.5 ** (i / 8)
  taken as an exact rational, and estimates the scale order from the
  slope of log|x(u)| against log u, fitted at high precision to the
  largest log|x(u)| of each block.  The slope fit reads only the deepest
  2 * wn blocks with a nonzero sample, wn = max(2, window // 8), so the
  blocks are sampled deepest first and the sampling stops once it holds
  that many; when fewer exist it goes on up to block 1, and the result is
  the same as with every block sampled.  Each sample is placed on x's
  grid as (element block K, window coordinate w) by _locator, the rule
  both oracles share: when x is on the ratio 1/2 the residue b_i is its
  own w and nothing is searched or built; on another ratio
  Grid.block_coord places u.  Above the anchor samples use the exact
  head.  Each block's maximum comes from two passes over its 8 samples.
  The first gives each tail sample a float estimate of its log|x(u)|,
  summed by math.fsum from float profile values and weights sigma^n, or
  none where floats may not be reliable: two exponents coincide, a
  profile value is not inside (2^-300, 2^300) by a bit of slack, or the
  sum is below 1e-6 of its largest term.  Each float term is within a
  few ulp of its exact value, so an estimate lies within about
  (number of components) * 1e-9 of the exact log, far inside the margin
  1e-6 * (1 + |fmax|) below the block's best estimate fmax.  The second
  pass takes an exact log only of the samples in that margin, of those
  without an estimate and of the head samples.  There the block weights
  stay in the log domain: components with equal exponent are summed
  exactly, and distinct exponents are combined in mpmath at the working
  precision, so no sample builds the exact value of x(u) below the
  anchor.  The exact logs cover every sample that can win its block, so
  the per-block maxima are the same numbers as with an exact log at
  every sample.  Within one call the profile values are memoized per w
  and the powers sigma^n per n.  A profile value is read from integers:
  the unreduced pair N / D of its segment's num and den at w (see
  _Profile), whose correctly rounded int / int division is the double
  float(g) of the exact value g.  The exact Fractions, their mpfs and
  the logs of a single-term profile are built only where the second pass
  reads them, and kept on the profile.
- oracle_vanishes_on samples x on the set S itself: on the two deepest
  blocks of S above the grid depth it takes each point, each closed
  endpoint and evenly spaced interior points of the shape, so point
  orbits and thin shapes are hit exactly.  Each block votes by comparing
  |x(u)| with u^n and u^(n/2), n = QUANTIFIER_BOUND, through the
  valuation side's sampler: each sample is located on x's grid as
  (K, w) by the same _locator, with no search when x and S share the
  ratio, its profile comes from the same per-w memo, and the float
  estimate f of log|x(u)| is compared with n log u and (n/2) log u at
  the margin 1e-6 * (1 + |f|).
  f is within about m * 1e-9 + 1e-15 * |f| of the exact log (as above),
  and the double log u, formed from the logs of sigma and w, within about
  1e-12 of the exact one, as MIN_SCALE keeps |n log u| <= 8 * 120 * log 2.
  So a sample that the floats place clear of the margin lies on the same
  side of the threshold as its exact value, and only the samples inside
  the margin, without an estimate or above x's anchor build the Fraction
  u and the exact x(u); a sample is otherwise the pair (block, w), and u
  is built besides only to locate it on another ratio.  The votes are
  those of the exact values.

Disagreement between a shadow and an exact answer is reported as
inconclusive, never as an engine failure, unless the gap survives the
stated tolerance.
"""

import math
from dataclasses import dataclass
from fractions import Fraction as Q

import mpmath

from ..errors import AllSamplesZero, PreconditionViolated
from ..grid import Grid, _log
from ..polytools import _hsum

__all__ = [
    "MIN_SCALE",
    "OracleConfig",
    "PRECISION",
    "QUANTIFIER_BOUND",
    "TOLERANCE",
    "ValuationEstimate",
    "oracle_valuation",
    "oracle_vanishes_on",
]


# mpmath working precision in decimal digits.  A sample whose terms cancel
# to within 10^(8 - PRECISION) of the largest term counts as zero.
PRECISION = 60
# half-width accepted around an exact valuation
TOLERANCE = Q(1, 20)
# existential scale quantifiers are probed up to this exponent only (the
# oracle shadows "exists n" by "exists n <= bound"); vanishing compares
# |x(u)| with u^bound and u^(bound/2)
QUANTIFIER_BOUND = 8
# set samples stay at or above this magnitude: probes never look past it,
# so a threshold delta >= 2^-120 is all they can see
MIN_SCALE = Q(1, 2 ** 120)


@dataclass(frozen=True)
class OracleConfig:
    """Grid parameters for the numeric oracle.

    depth:      deepest grid index J.  Valuation samples are
                u_j = 2^-(j // 8) * b_(j % 8) on the full blocks
                8 <= j < 8 (J // 8), with b_i the double
                0.5 ** (i / 8).  Set samples stay at or above 2^-(J // 8).
    window:     sets wn = max(2, window // 8): the slope fit runs over the
                deepest wn blocks with a nonzero sample, and its drift
                test compares that slope with the one over the wn blocks
                just above them (see _fit).
    """

    depth: int = 1600
    window: int = 200


# b_i of the valuation grid: the double 0.5 ** (i / 8) as an exact rational
_RESIDUES = tuple(Q(0.5 ** (i / 8)) for i in range(8))
# the valuation grid: block k spans (2^-(k+1), 2^-k], and b_i lies in
# (1/2, 1], so the sample 2^-k * b_i is at window coordinate b_i of block k
_HALF = Grid(Q(1, 2))


@dataclass(frozen=True)
class ValuationEstimate:
    lo: float
    hi: float
    diverging: bool

    def contains(self, v) -> bool:
        """Whether the exact valuation v (None for a negligible element)
        agrees: a diverging estimate holds only None, a finite one only
        the numbers in [lo, hi]."""
        if self.diverging:
            return v is None
        return v is not None and self.lo <= float(v) <= self.hi


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


def _locator(x, grid):
    """The function locate(j, top, w) -> (K, w') placing the sample
    u = top * w of block j of grid, top = c0 sigma^j and w in (sigma, 1],
    on x's grid: u lies on element block K at window coordinate w'.  It
    gives None when u lies above x's anchor.

    When the ratios agree, u = sigma^(j + j_grid) * w is x.c0 sigma^K * w
    with K = j + j_grid - j_x, so w' is w itself, the same object, and
    neither top nor u is read; K < 0 puts u above the anchor, as
    sigma^K * w > sigma^-1 * sigma = 1 there.  On another ratio it is
    x.grid.block_coord(top * w) when top * w <= x.c0."""
    xg = x.grid
    if grid.sigma == xg.sigma:
        shift = grid.j - xg.j

        def locate(j, top, w):
            K = j + shift
            return (K, w) if K >= 0 else None
    else:
        def locate(j, top, w):
            u = top * w
            return xg.block_coord(u) if u <= xg.c0 else None
    return locate


class _Profile:
    """The profile values at one window coordinate w = a/b, read from
    integers.  `terms` holds (c, N, D) with c.g(w) = N / D != 0 for each
    such component c: on the segment `c.g.segment_at(w)` with integer num
    and den, N = hsum(num) * b^(deg den - deg num) and D = hsum(den) *
    b^(deg num - deg den), each power taken only when its exponent is
    positive (polytools._hsum).  The pair is not reduced.

    `floats` holds (s, r, N / D) for the same components, or is None when
    there are more than 400 of them or some pair has e = bitlen(N) -
    bitlen(D) outside (-299, 299).  The double N / D is float(c.g(w)):
    int / int true division is correctly rounded, as is the Fraction's
    float, so both give the double nearest the same rational.  The e of
    an unreduced pair is within 1 of that of the reduced fraction, so the
    one-bit slack keeps every |g| with floats inside (2^-300, 2^300); a
    value near the ends may lose its floats, which sends its samples to
    the exact path.  `flog` is log|g| of a single float term.

    The exact values are built on first use only, by the exact pass
    (_tail_sampler): `mpfs` holds (c, g, mpf(g)) with g the Fraction
    N / D = c.g(w), and `mlog` the mpmath log|g| of a single term, at the
    working precision of that pass."""

    __slots__ = ("terms", "floats", "flog", "mpfs", "mlog")

    def __init__(self, comps, w):
        b = w.denominator
        self.terms = terms = []
        for c in comps:
            seg = c.g.segment_at(w)
            num, den = seg.num, seg.den
            if not num:
                continue
            N = _hsum(num, w)
            if not N:
                continue
            D = _hsum(den, w)
            d = len(den) - len(num)
            if d > 0:
                N *= b ** d
            elif d < 0:
                D *= b ** -d
            terms.append((c, N, D))
        self.floats = self.flog = self.mpfs = self.mlog = None
        if len(terms) <= 400 and all(
                -299 < N.bit_length() - D.bit_length() < 299
                for _, N, D in terms):
            self.floats = [(c.s, c.r, N / D) for c, N, D in terms]
            if len(terms) == 1:
                self.flog = math.log(abs(self.floats[0][2]))


def _profiles(x):
    """The function w -> _Profile of x at w, memoized per w."""
    comps, memo = x.comps, {}

    def at(w):
        if w not in memo:
            memo[w] = _Profile(comps, w)
        return memo[w]

    return at


def _float_sampler(x):
    """The function (K, p) -> f, a double close to log|x(u)| at the point
    u of element block K whose window profile is p (a _Profile), or None
    where the float sum may not be reliable: p has no floats, two
    exponents coincide (the exact grouping decides, see _tail_sampler), or
    the sum is below 1e-6 of its largest term.

    With e0 the smallest exponent, f = e0 * log(sigma) + log|sum_c
    sigma^(e_c(K) - e0) g_c(w)|, summed by math.fsum; the exponents
    e_c(K) = s * K + r * K(K - 1)/2 are read off the (s, r, g) floats of
    p, and a single term adds the profile's kept log|g|.  The weights
    sigma^n are memoized by n and corrected for the rounding of sigma:
    with float(sigma) = sigma / (1 + delta), sigma^n =
    float(sigma)^n * exp(n * delta) to within a few ulp, where the plain
    power would be off by about n ulp."""
    sigma = float(x.sigma)
    delta = float((x.sigma - Q(sigma)) / Q(sigma))
    f_log_sigma = float(_logabs(x.sigma))
    powers = {}

    def estimate(K, p):
        terms = p.floats
        if terms is None:
            return None
        kk = K * (K - 1) // 2
        if len(terms) == 1:  # the general path, without its list work
            s, r, _ = terms[0]
            return (s * K + r * kk) * f_log_sigma + p.flog
        es = [s * K + r * kk for s, r, _ in terms]
        if len(set(es)) < len(es):
            return None
        e0 = min(es)
        vals = []
        for e, (_, _, g) in zip(es, terms):
            n = e - e0
            if n not in powers:
                powers[n] = sigma ** n * math.exp(n * delta)
            vals.append(powers[n] * g)
        s = abs(math.fsum(vals))
        if s < 1e-6 * max(map(abs, vals)):
            return None
        return e0 * f_log_sigma + math.log(s)

    return estimate


def _tail_sampler(x):
    """The function (K, p) -> e0 * log(sigma) + log|total|, the log of
    |x(u)| = sigma^e0 * |total| at the point u of element block K whose
    window profile is p (a _Profile), or None where x(u) counts as zero;
    at the current mpmath precision.

    The value there is sum_c sigma^(e_c(K)) g_c(w), from the exact profile
    values of p, built here on the profile's first exact read.
    Components of equal exponent are summed exactly.  The nonzero sums t_e
    give total = sum_e sigma^(e - e0) t_e, with e0 the smallest exponent
    and the sum taken in mpmath; the powers sigma^n are memoized by n for
    the life of the returned function.  A sum of several terms within
    10^(8 - PRECISION) of the largest term counts as zero.  A single term
    is its own total, and its log is kept on the profile.
    """
    sigma = _mpf(x.sigma)
    log_sigma = _logabs(x.sigma)
    cutoff = mpmath.mpf(10) ** (8 - PRECISION)
    powers = {}

    def tail(K, p):
        if p.mpfs is None:
            p.mpfs = [(c, g, _mpf(g)) for c, N, D in p.terms
                      for g in (Q(N, D),)]
        if len(p.mpfs) == 1:  # the general path gives the same mpf
            c, _, m = p.mpfs[0]
            if p.mlog is None:
                p.mlog = mpmath.log(abs(m))
            return c.exponent(K) * log_sigma + p.mlog
        groups = {}
        for c, g, m in p.mpfs:
            e = c.exponent(K)
            if e in groups:
                t = groups[e][0] + g
                groups[e] = (t, _mpf(t))
            else:
                groups[e] = (g, m)
        terms = [(e, m) for e, (t, m) in groups.items() if t]
        if not terms:
            return None
        e0 = min(e for e, _ in terms)
        vals = []
        for e, m in terms:
            n = e - e0
            if n not in powers:
                powers[n] = sigma ** n
            vals.append(powers[n] * m)
        total = mpmath.fsum(vals)
        if len(vals) > 1 and abs(total) <= cutoff * max(map(abs, vals)):
            return None
        return e0 * log_sigma + mpmath.log(abs(total))

    return tail


def _mpf(q: Q):
    return mpmath.mpf(q.numerator) / q.denominator


def _fit_blocks(cfg: OracleConfig) -> int:
    """wn: the slope fit runs over the deepest wn blocks with a nonzero
    sample and compares it with the wn blocks above them."""
    return max(2, cfg.window // 8)


def _block_maxima(x, cfg: OracleConfig):
    """The largest log|x(u)| over the grid samples of each of the deepest
    2 * wn blocks k of the ratio 1/2 that have a nonzero sample,
    wn = _fit_blocks(cfg); all of them when fewer have one.  Blocks where
    every sample is zero are left out.

    The blocks k = depth // 8 - 1 down to 1 are taken deepest first, each
    from its 8 samples u = 2^-k * b_i, one per residue, and the sampling
    stops once it holds 2 * wn maxima.  The stop is exact: _fit reads no
    other block, and each block's maximum depends on its own samples only.
    _locator places (k, 2^-k, b_i) of _HALF on x's grid as (K, w); a
    sample above x's anchor is evaluated on the head.  A residue keeps its
    last w and profile, so on the ratio 1/2, where the located w is the
    residue itself, each residue looks its profile up once and no
    Fraction is hashed.

    Two passes per block.  The first gives a head sample the exact
    log|x.head(u)|, and a tail sample a float estimate f of its log (see
    _float_sampler), or none.  The second takes the exact log
    e0 * log(sigma) + log|total| in mpmath (see _tail_sampler) of the
    samples without an estimate and of those with f within
    1e-6 * (1 + |fmax|) of the block's largest estimate fmax; the block's
    maximum is the largest of these exact logs and the head logs.

    The margin is safe.  Each float term is within a few ulp of its exact
    value, and a kept sum is at least 1e-6 of its largest term, so it is
    within about m * 4e-10 of the exact sum, relatively, for m components.
    The profile range of _Profile keeps every kept sum above
    1e-6 * 2^-300, clear of the subnormal doubles, and makes what a weight
    that underflows leaves out negligible beside it.  So f is within
    about m * 1e-9 + 1e-15 * |f| of the exact log; with m <= 400, twice
    that is inside the margin, and a sample that wins its block exactly
    has f >= fmax - margin.  The exact logs are thus taken over a superset
    of the possible winners, and each block keeps the same maximum, the
    same mpf, as with an exact log at every sample.
    """
    need = 2 * _fit_blocks(cfg)
    at = _profiles(x)
    estimate = _float_sampler(x)
    tail = _tail_sampler(x)
    locate = _locator(x, _HALF)
    last = [(None, None)] * len(_RESIDUES)
    best = {}
    for k in range(cfg.depth // 8 - 1, 0, -1):
        top = Q(1, 1 << k)
        logs, unscreened, screened = [], [], []
        for i, b in enumerate(_RESIDUES):
            place = locate(k, top, b)
            if place is None:
                val = x.head.eval(top * b)
                if val:
                    logs.append(_logabs(val))
                continue
            K, w = place
            last_w, p = last[i]
            if w is not last_w:
                p = at(w)
                last[i] = w, p
            if not p.terms:
                continue
            f = estimate(K, p)
            if f is None:
                unscreened.append((K, p))
            else:
                screened.append((f, K, p))
        if screened:
            fmax = max(f for f, _, _ in screened)
            cut = fmax - 1e-6 * (1 + abs(fmax))
            unscreened.extend((K, p) for f, K, p in screened if f >= cut)
        for K, p in unscreened:
            la = tail(K, p)
            if la is not None:
                logs.append(la)
        if logs:
            best[k] = max(logs)
            if len(best) == need:
                break
    if not best:
        raise AllSamplesZero("element vanished at every grid point")
    return best


def _fit(best, cfg: OracleConfig) -> ValuationEstimate:
    """Slope estimate from the per-block maxima of log|x|.

    With wn = _fit_blocks(cfg), the slope over the deepest wn blocks of
    best is the estimate, and its drift from the slope over the wn blocks
    above them gives the interval; no other block is read.  When fewer
    than 2 * wn blocks are given, wn shrinks to max(2, len(best) // 2),
    and the drift compares with the same blocks when fewer than wn + 2
    are left.  When fewer than two blocks have a nonzero sample, or none
    of the deepest wn blocks of the grid has one, x vanishes at depth:
    the estimate diverges, with lo = hi = +infinity.  A slope that keeps
    growing with depth diverges too, with lo the deepest slope."""
    wn = _fit_blocks(cfg)
    if len(best) < 2 or max(best) < cfg.depth // 8 - wn:
        return ValuationEstimate(math.inf, math.inf, True)
    log2 = mpmath.log(2)
    logs = [(-log2 * k, best[k]) for k in sorted(best)]
    wn = min(wn, max(2, len(logs) // 2))
    win = logs[-wn:]
    prev = logs[-2 * wn:-wn]
    if len(prev) < 2:
        prev = win
    s_deep = _slope(win)
    s_prev = _slope(prev)
    drift = float(s_deep - s_prev)
    if drift > 0.5 and float(s_deep) > float(s_prev) * 1.1 + 0.5:
        return ValuationEstimate(float(s_deep), math.inf, True)
    tol = float(TOLERANCE)
    spread = abs(drift)
    half = max(tol, spread)
    mid = float(s_deep)
    return ValuationEstimate(mid - half, mid + half, False)


def oracle_valuation(x, cfg: OracleConfig = OracleConfig()) -> ValuationEstimate:
    """Estimate the scale order of x by log-log regression.

    x is sampled on the grid of cfg, deepest block first, and log|x(u)| is
    computed in the log domain (see _block_maxima).  The fit runs against
    the per-block maximum of |x|: pointwise samples dip arbitrarily low
    near interior zeros of a window profile, which would bias a raw
    regression.  Returns an interval [lo, hi] expected to contain the
    exact valuation, or a diverging flag when the local slope keeps
    growing with depth or x vanishes at depth (the numeric signatures of a
    negligible element).  A depth below 24 leaves fewer than the two grid
    blocks a slope needs and raises PreconditionViolated.
    """
    blocks = cfg.depth // 8 - 1
    if blocks < 2:
        raise PreconditionViolated(
            f"oracle depth {cfg.depth} is below 24: depth // 8 - 1 ="
            f" {blocks} grid blocks, and a slope needs 2")
    with mpmath.workdps(PRECISION):
        return _fit(_block_maxima(x, cfg), cfg)


def _shape_points(shape):
    """Window coordinates probing a shape: each point, each closed
    endpoint and seven evenly spaced interior points of each interval,
    lo + i (hi - lo) / 8 for i = 1..7, stepped by one exact step."""
    out = []
    for iv in shape.ivs:
        if iv.lo == iv.hi:
            out.append(iv.lo)
            continue
        if iv.lc:
            out.append(iv.lo)
        w, step = iv.lo, (iv.hi - iv.lo) / 8
        for _ in range(7):
            w += step
            out.append(w)
        if iv.hc:
            out.append(iv.hi)
    return out


def _deep_samples(S, cfg: OracleConfig):
    """The samples of S on its two deepest blocks j that lie wholly at or
    above 2^-(depth // 8) and MIN_SCALE, as one (j, top, ws) triple per
    block, shallower block first: top = c0 sigma^j and ws the window
    coordinates of _shape_points, one list shared by both blocks, so the
    sample at w is u = top * w.  No u is built here: the vote builds one
    only where it reads it (see _vote).  Returns [] when no block is deep
    enough or the shape is empty."""
    ws = _shape_points(S.shape)
    floor = max(Q(1, 2 ** (cfg.depth // 8)), MIN_SCALE)
    if not ws or floor > S.c0:
        return []
    # block k spans (c0 sigma^(k+1), c0 sigma^k]; the deepest block wholly
    # at or above the floor is the one just above the floor's block
    k = S.grid.block_coord(floor)[0] - 1
    if k < 1:
        return []
    return [(j, S.c0 * S.sigma ** j, ws) for j in (k - 1, k)]


def _vanishing_screen(x, S):
    """The function (j, top, w) -> +1, -1 or None for the sample u =
    top * w of S, top = c0 sigma^j: +1 when |x(u)| > u^(n/2) for sure, -1
    when |x(u)| <= u^n for sure, None when the floats cannot tell; n =
    QUANTIFIER_BOUND.

    The sample is located on x's grid as (K, w) by _locator: when x and
    S share the ratio, w is the shape point itself and u is never built.
    A sample above x's anchor gets None.  A zero profile at w (x(u) = 0)
    gets -1.  Otherwise f from _float_sampler, when there is one, is
    compared with the double lu = (j_x + K) * _log(sigma) + _log(w) of
    log u at the margin 1e-6 * (1 + |f|): f above n/2 * lu by more gives
    +1, f below n * lu by more gives -1."""
    n = QUANTIFIER_BOUND
    at = _profiles(x)
    with mpmath.workdps(PRECISION):
        estimate = _float_sampler(x)
    j_x, log_sigma = x.grid.j, _log(x.sigma)
    locate = _locator(x, S.grid)

    def level(j, top, w):
        place = locate(j, top, w)
        if place is None:
            return None
        K, w = place
        p = at(w)
        if not p.terms:
            return -1
        f = estimate(K, p)
        if f is None:
            return None
        lu = (j_x + K) * log_sigma + _log(w)
        margin = 1e-6 * (1 + abs(f))
        if f > n / 2 * lu + margin:
            return 1
        if f < n * lu - margin:
            return -1
        return None

    return level


def _vote(x, level, j, top, ws):
    """False when some sample u = top * w of block j, w in ws, has
    |x(u)| > u^(n/2), else True when every sample has |x(u)| <= u^n, else
    None; n = QUANTIFIER_BOUND.  Each sample is first placed by level (see
    _vanishing_screen); the ones it leaves open are decided by the exact
    x(u) against u^n, in order, up to the first False (|x(u)|^2 > u^n
    implies |x(u)| > u^n, as u <= 1).  Only these open samples build the
    Fraction u and the exact x(u); the screen builds u besides only to
    locate a sample on another ratio."""
    n = QUANTIFIER_BOUND
    rest = []
    for w in ws:
        place = level(j, top, w)
        if place is None:
            rest.append(w)
        elif place > 0:
            return False
    vote = True
    for w in rest:
        u = top * w
        m, un = abs(x.eval(u)), u ** n
        if m > un:
            if m * m > un:
                return False
            vote = None
    return vote


def oracle_vanishes_on(x, S, cfg: OracleConfig = OracleConfig()):
    """Sampled shadow of "x restricts to zero on S".

    x is sampled at the points of S on its two deepest blocks above the
    depth of cfg (see _deep_samples).  With n = QUANTIFIER_BOUND, a block
    votes True when every sample has |x(u)| <= u^n, and False when some
    sample has |x(u)| > u^(n/2); otherwise it abstains.  Returns the
    common vote of the two blocks, or None when they differ, a block
    abstains, or S has no samples deep enough.

    The samples are screened in floats first (see _vanishing_screen), and
    only those the floats leave open are evaluated exactly (see _vote).
    The screen never places a sample on the wrong side of a threshold:
    - the estimate f is within about m * 1e-9 + 1e-15 * |f| of the exact
      log|x(u)| for m <= 400 components (the argument of _block_maxima);
    - lu errs by a few ulp of the integer logs it reads, about
      2^-52 * log(num * den) of sigma^(j_x + K) * w.  MIN_SCALE keeps
      |n log u| <= 8 * 120 * log 2, so on a ratio of small height such as
      9/10 (u = sigma^800 * w at most) lu is within about 1e-12 of log u;
    - so both errors together, with lu scaled by n, stay far below the
      margin 1e-6 * (1 + |f|), and f clear of a threshold by the margin
      puts log|x(u)| on the same side of it.
    Every vote is therefore the one the exact values give.
    """
    level = _vanishing_screen(x, S)
    votes = {_vote(x, level, j, top, ws)
             for j, top, ws in _deep_samples(S, cfg)}
    return votes.pop() if len(votes) == 1 else None
