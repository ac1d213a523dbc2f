"""Seeded generation of test instances.

corpus_generate(seed, size) is deterministic: the same seed and size
always produce the same bundle, independent of platform.  Instances are
drawn on the base ratio 1/2 and span point orbits, fat orbits, touching
tiles, multi-component elements with depth weights r in {0, 1, 2},
small finitely generated ideals, and all four filter constructors.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction as Q

from ..afilter import FG, Closure, FilterExpr, Interior, OfIdeal
from ..errors import ImproperFilter, PreconditionViolated
from ..ideal import FgIdeal
from ..pwfunc import PwFunction, TailComponent
from ..scaleset import AsymptoticSet
from ..window import Piecewise

__all__ = ["Corpus", "corpus_generate", "pair_stream", "q64",
           "random_element", "random_set", "tent"]

SIGMA = Q(1, 2)
MAX_SIZE = 500
# random rationals are multiples of 1/_DEN strictly inside (1/2, 1)
_DEN = 64
# an element has at most this many tail components
_MAX_COMPS = 3


@dataclass
class Corpus:
    seed: int
    size: int
    sets: list = field(default_factory=list)
    elements: list = field(default_factory=list)
    ideals: list = field(default_factory=list)
    filters: list = field(default_factory=list)


def tent(lo, mid, hi, s=0, r=0) -> PwFunction:
    """A unit tent on [lo, hi] with apex mid, as component (s, r)."""
    prof = Piecewise.linear_interp(
        [(SIGMA, 0), (Q(lo), 0), (Q(mid), 1), (Q(hi), 0), (Q(1), 0)])
    return PwFunction(SIGMA, [TailComponent(s, r, prof)])


def q64(rng) -> Q:
    """A random multiple of 1/64 in [34/64, 62/64]."""
    return Q(rng.randint(34, 62), 64)


def pair_stream(rng, corpus):
    """Endless random (element, set) pairs from a corpus."""
    while True:
        yield rng.choice(corpus.elements), rng.choice(corpus.sets)


def _rational(rng):
    """Random grid rational strictly inside (1/2, 1)."""
    return Q(rng.randint(_DEN // 2 + 1, _DEN - 1), _DEN)


def _two_points(rng):
    a = _rational(rng)
    b = _rational(rng)
    if a > b:
        a, b = b, a
    if a == b:
        if b < Q(_DEN - 1, _DEN):
            b = b + Q(1, _DEN)
        else:
            a = a - Q(1, _DEN)
    return a, b


def random_set(rng) -> AsymptoticSet:
    kind = rng.randrange(5)
    if kind == 0:
        return AsymptoticSet.orbit_point(_rational(rng))
    if kind == 1:
        a, b = _two_points(rng)
        return AsymptoticSet.orbit_interval(a, b, lc=rng.random() < 0.8,
                                            hc=rng.random() < 0.8)
    if kind == 2:
        # touching tiles: two closed intervals sharing an endpoint
        a, b = _two_points(rng)
        m = (a + b) / 2
        left = AsymptoticSet.orbit_interval(a, m)
        return left.union(AsymptoticSet.orbit_interval(m, b))
    if kind == 3:
        a, b = _two_points(rng)
        c, d = _two_points(rng)
        return AsymptoticSet.orbit_interval(a, b).union(
            AsymptoticSet.orbit_interval(c, d))
    return AsymptoticSet.full()


def _profile(rng, s: int, r: int) -> Piecewise:
    """Random piecewise-linear window profile obeying the seam rules."""
    nodes = sorted({SIGMA, Q(1), _rational(rng), _rational(rng)})
    vals = [Q(rng.randint(-4, 4), rng.choice([1, 2, 4])) for _ in nodes]
    if r == 0:
        if vals[-1] == 0 and all(v == 0 for v in vals):
            vals[-1] = Q(1)
        vals[0] = SIGMA ** s * vals[-1]
    else:
        vals[0] = Q(0)
        vals[-1] = Q(0)
        if all(v == 0 for v in vals):
            vals[rng.randrange(1, len(vals) - 1)] = Q(1)
    return Piecewise.linear_interp(list(zip(nodes, vals)))


def random_element(rng) -> PwFunction:
    pairs = set()
    n = rng.randint(1, _MAX_COMPS)
    while len(pairs) < n:
        pairs.add((rng.randint(-2, 3), rng.choice([0, 0, 1, 2])))
    comps = [TailComponent(s, r, _profile(rng, s, r)) for s, r in sorted(pairs)]
    return PwFunction(SIGMA, comps)


def _tent_factor(rng) -> PwFunction:
    """Element vanishing on a fat window band, for seeding common zeros."""
    a, b = _two_points(rng)
    return tent(a, (a + b) / 2, b)


def _random_ideal(rng, pool) -> FgIdeal:
    k = rng.randint(1, 3)
    gens = [rng.choice(pool) for _ in range(k)]
    if rng.random() < 0.6:
        # force a common zero set so a decent share of ideals is proper
        t = _tent_factor(rng)
        gens = [g.mul(t) for g in gens]
    return FgIdeal(gens)


def _random_filter(rng, ideals) -> FilterExpr:
    kind = rng.randrange(4)
    if kind == 0 and ideals:
        return OfIdeal(rng.choice(ideals))
    # FG needs closed characteristic generators with characteristic
    # pairwise intersections; a nested chain guarantees that.
    base = random_set(rng).closure()
    gens = [base]
    if rng.random() < 0.4:
        gens.append(base.union(random_set(rng)).closure())
    try:
        fg = FG(gens)
    except ImproperFilter:
        fg = FG([AsymptoticSet.full()])
    if kind == 2:
        return Interior(fg)
    if kind == 3:
        return Closure(fg)
    return fg


def corpus_generate(seed: int, size: int) -> Corpus:
    """Deterministic instance bundle of roughly the requested size."""
    if size > MAX_SIZE:
        raise PreconditionViolated(
            f"corpus size {size} exceeds the cap of {MAX_SIZE}")
    if size < 1:
        raise PreconditionViolated("corpus size must be positive")
    rng = random.Random(f"asymcalc-corpus-{seed}-{size}")
    c = Corpus(seed=seed, size=size)
    n_sets = max(4, size)
    n_elems = max(4, size)
    c.sets = [random_set(rng) for _ in range(n_sets)]
    c.elements = [random_element(rng) for _ in range(n_elems)]
    pool = [e for e in c.elements if not e.is_negligible()] or \
        [PwFunction.upower(1)]
    c.ideals = [_random_ideal(rng, pool) for _ in range(max(2, size // 3))]
    c.filters = [_random_filter(rng, c.ideals)
                 for _ in range(max(2, size // 3))]
    return c
