"""Sign laws whose truth follows from algebra alone, so they need no oracle
and no reference engine (ROADMAP item 19).

The hand-built family: a is a piecewise-linear profile that crosses zero
twice in each block, rho = u, and for j in {1, 2} and b in {1, 3}

    x = (a - rho^j b)^2 + rho^(2j) c^2,  c = 1.

x >= rho^(2j) > 0, so x is POS and generates the whole ring.  The square
(a - rho^j b)^2 is >= 0 and vanishes near each crossing of a at every small
scale, so it is NONNEG and its ideal is proper.  The sign engine reads a
perfect-square Newton edge as MIXED (ROADMAP item 1); each instance that
fails today is a strict xfail of its own, so the fix shows as passes.

The corpus laws hold for every non-negligible element x of
corpus_generate(s, 40), s = 0..3, on the full set: x*x >= 0 is POS, NONNEG
or ZERO, and for N = 0 and N = floor(2 v(x)) + 2 the element
x*x + eps^N >= eps^N > 0 is POS, generates the whole ring and has 1 in its
ideal.  They too are parametrized per instance, with the instances that
fail today as strict xfails.
"""

import math
from fractions import Fraction as Q
from functools import cache

import pytest

from asymcalc.ideal import FgIdeal, ideal_member
from asymcalc.pwfunc import PwFunction, TailComponent
from asymcalc.scaleset import AsymptoticSet
from asymcalc.signs import (MIXED, NEG, NONNEG, NONPOS, POS, ZERO,
                            bad_structure, eventual_sign_on,
                            restr_invertible_bool)
from asymcalc.verify import corpus_generate
from asymcalc.window import Piecewise

SIGMA = Q(1, 2)
FULL = AsymptoticSet.full(SIGMA, 1)
FAMILY = [(j, b) for j in (1, 2) for b in (1, 3)]

_ITEM1 = pytest.mark.xfail(strict=True, reason="the sign engine reports "
                           "MIXED at a perfect-square Newton edge "
                           "(ROADMAP item 1)")


def _params(failing):
    """The family as parameters, a strict xfail on each (j, b) in
    `failing`: the instances that break the law today."""
    return [pytest.param(j, b, marks=_ITEM1) if (j, b) in failing
            else pytest.param(j, b) for j, b in FAMILY]


def _square_and_sum(j, b):
    """((a - rho^j b)^2, (a - rho^j b)^2 + rho^(2j))."""
    a = PwFunction(SIGMA, [TailComponent(0, 0, Piecewise.linear_interp(
        [(Q(1, 2), 1), (Q(5, 8), 1), (Q(3, 4), -1), (Q(7, 8), -1),
         (Q(1), 1)]))])
    rj = PwFunction.upower(j)
    d = a.sub(rj.scale(b))
    sq = d.mul(d)
    return sq, sq.add(rj.mul(rj))


@pytest.mark.parametrize("j, b", _params(set(FAMILY)))
def test_square_plus_positive_power_is_pos(j, b):
    assert eventual_sign_on(_square_and_sum(j, b)[1], FULL) == POS


@pytest.mark.parametrize("j, b", _params(set(FAMILY)))
def test_square_plus_positive_power_generates_the_ring(j, b):
    assert not FgIdeal([_square_and_sum(j, b)[1]]).is_proper()


@pytest.mark.parametrize("j, b", _params(set(FAMILY)))
def test_one_is_in_the_ideal_of_square_plus_positive_power(j, b):
    I = FgIdeal([_square_and_sum(j, b)[1]])
    assert ideal_member(PwFunction.const(1), I)[0]


@pytest.mark.parametrize("j, b", _params(set(FAMILY)))
def test_square_with_crossing_zeros_is_nonneg(j, b):
    assert eventual_sign_on(_square_and_sum(j, b)[0], FULL) == NONNEG


@pytest.mark.parametrize("j, b", _params(set()))
def test_square_with_crossing_zeros_has_a_proper_ideal(j, b):
    assert FgIdeal([_square_and_sum(j, b)[0]]).is_proper()


_MIRROR = {POS: NEG, NEG: POS, NONNEG: NONPOS, NONPOS: NONNEG, ZERO: ZERO,
           MIXED: MIXED}


def test_sign_of_negation_mirrors_the_sign():
    c = corpus_generate(0, 40)
    broken = []
    for i, x in enumerate(c.elements):
        sets = [AsymptoticSet.full(x.sigma, x.D)] + \
            [S for S in c.sets if S.is_characteristic()]
        for k, S in enumerate(sets):
            if eventual_sign_on(x.neg(), S) != \
                    _MIRROR[eventual_sign_on(x, S)]:
                broken.append((i, k))
    assert broken == []


def _corpus_squares():
    """(seed, index, x, x*x, characteristic sets) for each non-negligible
    element x of corpus_generate(s, 40), s = 0..3."""
    for seed in range(4):
        c = corpus_generate(seed, 40)
        sets = [S for S in c.sets if S.is_characteristic()]
        for i, x in enumerate(c.elements):
            if not x.is_negligible():
                yield seed, i, x, x.mul(x), sets


def test_square_has_the_obstruction_structure_of_the_element():
    """x and x*x vanish at the same points, on the same sides, to the
    same kind of smallness, so their obstruction structures agree."""
    broken, seen = [], 0
    for seed, i, x, xx, _ in _corpus_squares():
        seen += 1
        if bad_structure(xx) != bad_structure(x):
            broken.append((seed, i))
    assert seen == 108
    assert broken == []


def test_square_is_invertible_where_the_element_is():
    """|x*x| >= eps^(2n) exactly where |x| >= eps^n."""
    broken, seen = [], 0
    for seed, i, x, xx, sets in _corpus_squares():
        for k, S in enumerate(sets):
            seen += 1
            if restr_invertible_bool(xx, S) != restr_invertible_bool(x, S):
                broken.append((seed, i, k))
    assert seen > 1000
    assert broken == []


@cache
def _corpus(seed):
    return corpus_generate(seed, 40)


def _corpus_elements():
    """(seed, index) of each non-negligible element of
    corpus_generate(s, 40), s = 0..3."""
    return [(seed, i) for seed in range(4)
            for i, x in enumerate(_corpus(seed).elements)
            if not x.is_negligible()]


def _shifts(seed, i):
    """The exponents N of the corpus laws on x*x + eps^N: 0 and
    floor(2 v(x)) + 2, once each."""
    v = _corpus(seed).elements[i].valuation()
    return sorted({0, math.floor(2 * v) + 2})


@cache
def _square_plus_eps_power(seed, i, N):
    """(x, x*x + eps^N) for element i of corpus_generate(seed, 40)."""
    x = _corpus(seed).elements[i]
    return x, x.mul(x).add(x.eps_power(N))


def _full(x):
    return AsymptoticSet.full(x.sigma, x.D)


# the instances that break each law today, all at item 1's lapse
_SQUARE_MIXED = {
    (0, 14), (0, 16), (0, 19), (0, 22), (0, 27), (0, 29), (1, 20), (1, 27),
    (1, 34), (1, 35), (2, 0), (2, 3), (2, 4), (2, 7), (2, 10), (2, 17),
    (2, 33), (2, 38), (3, 11), (3, 13), (3, 14), (3, 17), (3, 28), (3, 35),
    (3, 36)}
_SUM_MIXED = {
    (0, 14, 2), (0, 19, -2), (0, 19, 0), (0, 27, -2), (0, 27, 0), (0, 29, 4),
    (1, 20, 0), (1, 27, 2), (1, 34, 4), (1, 35, -2), (1, 35, 0), (2, 0, 2),
    (2, 3, 0), (2, 7, 4), (2, 10, 2), (2, 17, 0), (3, 13, 4), (3, 35, 2),
    (3, 36, 6)}


def _corpus_params(instances, failing):
    """The instances as parameters, a strict xfail on each in `failing`."""
    return [pytest.param(*t, marks=_ITEM1) if t in failing
            else pytest.param(*t) for t in instances]


_ELEMENTS = _corpus_elements()
_SUMS = [(seed, i, N) for seed, i in _ELEMENTS for N in _shifts(seed, i)]


def test_corpus_law_instances_are_counted():
    assert len(_ELEMENTS) == 108
    assert len(_SUMS) == 208
    assert _SQUARE_MIXED <= set(_ELEMENTS) and _SUM_MIXED <= set(_SUMS)


@pytest.mark.parametrize("seed, i", _corpus_params(_ELEMENTS, _SQUARE_MIXED))
def test_corpus_square_is_nonneg(seed, i):
    x = _corpus(seed).elements[i]
    assert eventual_sign_on(x.mul(x), _full(x)) in (POS, NONNEG, ZERO)


@pytest.mark.parametrize("seed, i, N", _corpus_params(_SUMS, _SUM_MIXED))
def test_corpus_square_plus_eps_power_is_pos(seed, i, N):
    x, y = _square_plus_eps_power(seed, i, N)
    assert eventual_sign_on(y, _full(x)) == POS


@pytest.mark.parametrize("seed, i, N", _corpus_params(_SUMS, _SUM_MIXED))
def test_corpus_square_plus_eps_power_generates_the_ring(seed, i, N):
    assert not FgIdeal([_square_plus_eps_power(seed, i, N)[1]]).is_proper()


@pytest.mark.parametrize("seed, i, N", _corpus_params(_SUMS, _SUM_MIXED))
def test_one_is_in_the_ideal_of_corpus_square_plus_eps_power(seed, i, N):
    x, y = _square_plus_eps_power(seed, i, N)
    assert ideal_member(PwFunction.const(1, x.sigma, x.D), FgIdeal([y]))[0]
