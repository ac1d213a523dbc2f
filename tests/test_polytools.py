import functools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymcalc.polytools import (RootPt, isolate_roots, padd, pdeg, pdivmod,
                                peval, pmul, poly, poly_nonneg_on, ppow,
                                pt_cmp, squarefree, sturm_chain,
                                count_roots_halfopen)


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
            assert isinstance(g, Q) and g == _q(r)
        else:
            assert isinstance(g, RootPt)
            assert bool(sympy.Rational(g.lo.numerator, g.lo.denominator) < r)
            assert bool(r < sympy.Rational(g.hi.numerator, g.hi.denominator))
            assert peval(g.sf, g.hi) != 0


def test_isolate_roots_rational_root_above_cap():
    p = pmul(poly(Q(-4099, 8192), 1), poly(-2, 0, 1))
    assert isolate_roots(p, 0, 1) == (Q(4099, 8192),)


def test_isolate_roots_huge_leading_coefficient():
    # (2^70 w - 3)(w^2 - 2): the rational root 3/2^70 has a denominator far
    # beyond any trial-division bound
    p = pmul(poly(-3, 2 ** 70), poly(-2, 0, 1))
    got = isolate_roots(p, 0, 2)
    assert got[0] == Q(3, 2 ** 70)
    assert isinstance(got[1], RootPt) and pt_cmp(got[1], Q(141, 100)) > 0 \
        and pt_cmp(got[1], Q(142, 100)) < 0
    assert len(got) == 2


def test_isolate_roots_root_at_a_midpoint():
    p = pmul(poly(Q(-1, 2), 1), poly(-2, 0, 1))          # (w - 1/2)(w^2 - 2)
    assert isolate_roots(p, 0, 1) == (Q(1, 2),)
    # two roots in (-1, 2]: the first Sturm midpoint is the root 1/2, which
    # closes the left half, and q vanishes at the right half's left end
    got = isolate_roots(p, -1, 2)
    assert got[0] == Q(1, 2) and isinstance(got[1], RootPt)
    assert pt_cmp(got[1], Q(141, 100)) > 0 and pt_cmp(got[1], Q(142, 100)) < 0
    # one root in (1/4, 3/4] on the lattice (1/2048)Z: the first bisection
    # midpoint by sign is the root itself
    p = pmul(poly(Q(-1, 2), 1), poly(-3, 0, 1024))
    assert isolate_roots(p, Q(1, 4), Q(3, 4)) == (Q(1, 2),)


def test_isolate_roots_linear_part_is_exact():
    # a linear squarefree part has an exact root, whatever its size
    assert isolate_roots(poly(-4099, 8192), 0, 1) == (Q(4099, 8192),)
    assert isolate_roots(pmul(poly(-4099, 8192), poly(-4099, 8192)),
                         0, 1) == (Q(4099, 8192),)
    assert isolate_roots(pmul(poly(0, 1), poly(-4099, 8192)), 0, 1) == \
        (Q(0), Q(4099, 8192))


# -- reference: the trial-division isolate_roots the lattice pass replaced --
# It found rational roots by trial division (numerators and denominators up
# to 4096), solved a linear part directly, and deflated q and restarted the
# Sturm pass when a midpoint hit a root.  Its RootPt compared against a
# rational with the Sturm chain.


class _OldRootPt:
    def __init__(self, sf, lo, hi):
        self.sf, self.lo, self.hi = sf, lo, hi
        self.chain = sturm_chain(sf)

    def cmp_q(self, r):
        if r >= self.hi:
            return -1
        if r <= self.lo:
            return 1
        if peval(self.sf, r) == 0:
            return 0
        if count_roots_halfopen(self.chain, self.lo, r):
            self.hi = r
            return -1
        self.lo = r
        return 1


def _old_cmp(a, b):
    if isinstance(a, _OldRootPt):
        if isinstance(b, _OldRootPt):
            # one Sturm pass leaves disjoint intervals (a, b]
            return -1 if a.hi <= b.lo else 1
        return a.cmp_q(b)
    if isinstance(b, _OldRootPt):
        return -b.cmp_q(a)
    return (a > b) - (a < b)


def _old_small_divisors(n, cap=4096):
    n = abs(n)
    if n == 0:
        return (1,)
    out = []
    d = 1
    while d * d <= n and d <= cap:
        if n % d == 0:
            out.append(d)
            if n // d <= cap:
                out.append(n // d)
        d += 1
    return tuple(sorted(set(out)))


def _old_rational_candidates(q, lo, hi):
    den = 1
    for c in q:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in q]
    cands = {Q(0)} if ints[0] == 0 else set()
    while ints and ints[0] == 0:
        ints = ints[1:]
    a0, an = abs(ints[0]), abs(ints[-1])
    for p_ in _old_small_divisors(a0):
        for q_ in _old_small_divisors(an):
            cands.add(Q(p_, q_))
            cands.add(Q(-p_, q_))
    return sorted(c for c in cands if lo <= c <= hi)


def _old_isolate_roots(p, lo, hi):
    lo, hi = Q(lo), Q(hi)
    if lo > hi:
        return ()
    q = squarefree(p)
    if pdeg(q) <= 0:
        return ()
    found = []

    def peel(x):
        nonlocal q
        q = pdivmod(q, (-x, Q(1)))[0]
        found.append(x)

    if peval(q, lo) == 0:
        peel(lo)
    if hi > lo and q and peval(q, hi) == 0:
        peel(hi)
    if pdeg(q) >= 2:
        for cand in _old_rational_candidates(q, lo, hi):
            if lo < cand < hi and q and peval(q, cand) == 0:
                peel(cand)
    if q and pdeg(q) == 1:
        root = -q[0] / q[1]
        if lo < root < hi:
            peel(root)
    out = []
    while q and pdeg(q) >= 1 and hi > lo:
        if pdeg(q) == 1:
            root = -q[0] / q[1]
            if lo < root < hi:
                peel(root)
            break
        chain = sturm_chain(q)
        out = []
        stack = [(lo, hi)]
        deflated = False
        while stack:
            a, b = stack.pop()
            n = count_roots_halfopen(chain, a, b)
            if n == 0:
                continue
            if n == 1:
                out.append(_OldRootPt(q, a, b))
                continue
            m = (a + b) / 2
            if peval(q, m) == 0:
                peel(m)
                deflated = True
                break
            stack.append((a, m))
            stack.append((m, b))
        if not deflated:
            break
    allpts = [f for f in found if lo <= f <= hi] + out
    allpts.sort(key=functools.cmp_to_key(_old_cmp))
    return tuple(allpts)


@settings(max_examples=300, deadline=None)
@given(_cases())
@example((pmul(poly(-4099, 8192), poly(-2, 0, 1)), Q(0), Q(1)))
# the reference's deflate path: its first Sturm midpoint is the root 4097/8192
@example((pmul(poly(-4097, 8192), poly(-1, 0, 2)), Q(0), Q(4097, 4096)))
def test_isolate_roots_matches_reference(case):
    """Equal Fractions, and RootPts that isolate the same root, except
    where the reference missed a rational root above its trial cap."""
    p, lo, hi = case
    got = isolate_roots(p, lo, hi)
    ref = _old_isolate_roots(p, lo, hi)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        if isinstance(r, Q):
            assert isinstance(g, Q) and g == r
        elif isinstance(g, Q):
            assert max(abs(g.numerator), g.denominator) > 4096
            assert r.cmp_q(g) == 0
        else:
            # r's interval holds one irrational root of q, and g's is in it
            assert g.cmp_q(r.lo) > 0 and g.cmp_q(r.hi) < 0
