import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymcalc.polytools import (RootPt, isolate_roots, padd, pdeg, peval,
                                pmul, poly, poly_nonneg_on, ppow, pt_cmp,
                                sturm_chain, count_roots_halfopen)


def test_poly_arithmetic():
    p = poly(1, 2)          # 1 + 2w
    q = poly(0, 0, 1)       # w^2
    assert peval(padd(p, q), Q(1, 2)) == Q(9, 4)
    assert peval(pmul(p, q), 2) == 20
    assert pdeg(ppow(p, 3)) == 3


def test_isolate_roots_quadratic():
    # 2w^2 - 1: one root in [1/2, 1]
    roots = isolate_roots((-1, 0, 2), Q(1, 2), 1)
    assert len(roots) == 1
    r = roots[0]
    # sqrt(1/2) = 0.70710678...
    assert pt_cmp(r, Q(7, 10)) > 0
    assert pt_cmp(r, Q(8, 10)) < 0
    assert pt_cmp(r, r) == 0


def test_rootpt_refinement_orders_against_rationals():
    r = isolate_roots((-1, 0, 2), Q(1, 2), 1)[0]
    assert pt_cmp(r, Q(181, 256)) == pt_cmp(r, Q(181, 256))
    # 181/256 = 0.70703 < sqrt(1/2)
    assert pt_cmp(r, Q(181, 256)) > 0
    assert pt_cmp(r, Q(182, 256)) < 0


def test_sturm_count():
    # (w - 1/4)(w - 3/4) has two roots in [0, 1)
    p = pmul(poly(Q(-1, 4), 1), poly(Q(-3, 4), 1))
    assert count_roots_halfopen(sturm_chain(p), 0, 1) == 2
    assert count_roots_halfopen(sturm_chain(p), Q(1, 2), 1) == 1


def test_poly_nonneg_on():
    assert poly_nonneg_on((0, 0, 1), Q(-1), 1)           # w^2
    assert not poly_nonneg_on((-1, 0, 2), Q(1, 2), 1)    # 2w^2 - 1
    assert poly_nonneg_on((1, -2, 1), 0, 2)              # (w-1)^2


# -- differential test against sympy ---------------------------------------
# sympy is a test-only reference: it is installed here but is not a
# dependency of the package.

sympy = pytest.importorskip("sympy")

_W = sympy.Symbol("w")
_CAP = 4096  # numerators and denominators `_rational_candidates` tries

_small_roots = st.builds(Q, st.integers(-64, 64), st.integers(1, 64))
_large_roots = st.builds(Q, st.integers(-10 ** 5, 10 ** 5),
                         st.integers(1, 10 ** 5))
_roots = st.one_of(_small_roots, _small_roots, _large_roots)


@st.composite
def _quadratics(draw):
    """w^2 + b w + c, irreducible over Q (its discriminant is no square)."""
    b = draw(st.integers(-12, 12))
    c = draw(st.integers(-40, 40).filter(
        lambda c: b * b - 4 * c < 0 or
        math.isqrt(b * b - 4 * c) ** 2 != b * b - 4 * c))
    return poly(c, b, 1)


@st.composite
def _products(draw):
    """An integer polynomial of degree 1..4: a product of rational linear
    factors, repeats allowed, and irreducible quadratics."""
    n_quad = draw(st.integers(0, 2))
    n_lin = draw(st.integers(1 if n_quad == 0 else 0, 4 - 2 * n_quad))
    lins = draw(st.lists(_roots, min_size=n_lin, max_size=n_lin))
    p = poly(draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1])))
    for r in lins:
        p = pmul(p, poly(-r.numerator, r.denominator))
    for _ in range(n_quad):
        p = pmul(p, draw(_quadratics()))
    return p, lins


_ends = st.builds(Q, st.integers(-40, 40), st.integers(1, 8))


@st.composite
def _cases(draw):
    p, lins = draw(_products())
    # an end may sit on a rational root, to exercise the endpoint peeling
    ends = st.one_of(_ends, st.sampled_from(lins)) if lins else _ends
    lo, hi = sorted((draw(ends), draw(ends)))
    return p, lo, hi


def _sympy_roots(p, lo, hi):
    """The distinct real roots of p on [lo, hi], increasing, from sympy."""
    P = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                    for c in reversed(p)], _W)
    slo = sympy.Rational(lo.numerator, lo.denominator)
    shi = sympy.Rational(hi.numerator, hi.denominator)
    out = []
    for r in sympy.real_roots(P):
        if bool(slo <= r) and bool(r <= shi) and (not out or r != out[-1]):
            out.append(r)
    return out


def _q(r):
    return Q(int(r.p), int(r.q))


@settings(max_examples=300, deadline=None)
@given(_cases())
@example(((Q(0), Q(-2), Q(1)), Q(-1), Q(1)))    # the root 0 is rational
def test_isolate_roots_matches_sympy(case):
    p, lo, hi = case
    want = _sympy_roots(p, lo, hi)
    got = isolate_roots(p, lo, hi)
    assert len(got) == len(want)
    for g, r in zip(got, want):
        if r.is_Rational:
            exact = _q(r)
            if isinstance(g, Q):
                assert g == exact
            else:
                # the candidate cap lapse: allowed only above the cap, and
                # the isolated point must still be the exact root
                assert max(abs(exact.numerator), exact.denominator) > _CAP
                assert isinstance(g, RootPt) and pt_cmp(g, exact) == 0
        else:
            assert isinstance(g, RootPt)
            assert bool(sympy.Rational(g.lo.numerator, g.lo.denominator) < r)
            assert bool(r < sympy.Rational(g.hi.numerator, g.hi.denominator))


@pytest.mark.xfail(strict=True, reason="rational roots above the candidate "
                   "cap of 4096 come back as RootPt")
def test_isolate_roots_rational_root_above_cap():
    p = pmul(poly(Q(-4099, 8192), 1), poly(-2, 0, 1))
    assert isolate_roots(p, 0, 1) == (Q(4099, 8192),)


def test_isolate_roots_linear_part_is_exact():
    # a linear squarefree part is solved directly, whatever its size
    assert isolate_roots(poly(-4099, 8192), 0, 1) == (Q(4099, 8192),)
    assert isolate_roots(pmul(poly(-4099, 8192), poly(-4099, 8192)),
                         0, 1) == (Q(4099, 8192),)
    assert isolate_roots(pmul(poly(0, 1), poly(-4099, 8192)), 0, 1) == \
        (Q(0), Q(4099, 8192))
