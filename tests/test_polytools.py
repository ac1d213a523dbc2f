import ast
import functools
import math
import pathlib
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asymcalc
from asymcalc import polytools
from asymcalc.polytools import (RootPt, _content_free, _zpoly, _zprem,
                                _zsign, count_roots, isolate_roots, padd,
                                pderiv, pdeg, peval, pgcd, pmul, pneg, poly,
                                poly_nonneg_on, ppow, pscale, psign, pt_cmp,
                                pt_enclosure, squarefree)


# -- Fraction references: the division, monic gcd and squarefree part, and
# the Horner evaluation that the integer kernel replaced --------------------


def pdivmod(p, q):
    """Quotient and remainder over Q."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Q(c) for c in p]
    d = len(q) - 1
    lead = Q(q[-1])
    quo = [Q(0)] * max(0, len(p) - d)
    while len(r) - 1 >= d and any(r):
        r = list(poly(*r))
        if not r or len(r) - 1 < d:
            break
        c = r[-1] / lead
        k = len(r) - 1 - d
        quo[k] = c
        for i, b in enumerate(q):
            r[k + i] -= c * b
        r[-1] = Q(0)
    return poly(*quo), poly(*r)


def _ref_pgcd(p, q):
    """Monic gcd by Euclid's algorithm over Q."""
    while q:
        p, q = q, pdivmod(p, q)[1]
    if not p:
        return ()
    return pscale(p, 1 / Q(p[-1]))


def _ref_squarefree(p):
    """Monic squarefree part p / gcd(p, p')."""
    if pdeg(p) <= 0:
        return pscale(p, 1 / Q(p[-1])) if p else ()
    q = pdivmod(p, _ref_pgcd(p, pderiv(p)))[0]
    return pscale(q, 1 / q[-1])


def _ref_eval(p, x):
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


# -- reference: the integer Sturm chain that Descartes counting replaced ---


def sturm_chain(p):
    """Sturm sequence of a (preferably squarefree) polynomial, as primitive
    integer tuples, each a positive multiple of the Euclidean term over Q."""
    z = _zpoly(p)
    chain = [_content_free(z), _content_free(pderiv(z))]
    while chain[-1]:
        rem = _zprem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(pneg(rem))
    return [c for c in chain if c]


def _variations(chain, x):
    signs = [s for s in (_zsign(z, x) for z in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots_halfopen(chain, a, b) -> int:
    """Number of distinct roots in (a, b] for a squarefree chain."""
    if a >= b:
        return 0
    return _variations(chain, a) - _variations(chain, b)


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


def test_rootpt_compares_like_a_number():
    r = isolate_roots((-1, 0, 2), Q(1, 2), 1)[0]     # sqrt(1/2)
    s = isolate_roots((-2, 0, 1), Q(1), 2)[0]        # sqrt(2)
    t = isolate_roots((-1, 0, 2), Q(1, 2), 1)[0]
    assert Q(7, 10) < r < Q(8, 10) and 0 < r <= r < 1 < s and s >= r
    assert sorted([s, Q(1), r, Q(0)]) == [Q(0), r, Q(1), s]
    assert r == t and r != s and r <= t <= r and not (r < t or t < r)
    lo, hi = r.lo, r.hi
    assert r != Q(181, 256) and not Q(181, 256) == r and r != 1
    assert (r.lo, r.hi) == (lo, hi)
    with pytest.raises(TypeError):
        hash(r)


def test_only_polytools_reads_rootpt_intervals():
    """Outside `polytools` points are compared with operators; nothing
    imports `pt_cmp` or `cmp_to_key` or refines or sign-tests a RootPt."""
    banned_imports = {"pt_cmp", "cmp_to_key"}
    banned_calls = {"refine", "refine_below", "sign_of"} | banned_imports
    root = pathlib.Path(asymcalc.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "polytools.py" and path.parent == root:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [(path.name, a.name) for a in node.names
                          if a.name in banned_imports]
            elif isinstance(node, ast.Attribute) and \
                    node.attr in banned_calls:
                found.append((path.name, node.attr))
    assert found == []


@pytest.mark.parametrize("p, lo, hi", [
    ((-1, 0, 2), Q(1, 2), 1), ((-2, 0, 1), 1, 2), ((-3, 0, 0, 1), 1, 2),
    ((1, -3, 0, 1), 0, 1)])
def test_root_enclosure_does_not_depend_on_refining(p, lo, hi):
    """The enclosure is the dyadic cell of the root at the given width,
    whether or not the RootPt was refined before."""
    for width in (Q(1, 64), Q(3, 80), Q(1, 3)):
        fresh = isolate_roots.__wrapped__(p, lo, hi)[0]
        refined = isolate_roots.__wrapped__(p, lo, hi)[0]
        refined.refine_below(Q(1, 2 ** 30))
        a, b = pt_enclosure(fresh, width)
        assert (a, b) == pt_enclosure(refined, width)
        assert a < fresh < b and width / 2 < b - a <= width
        cell = b - a
        assert cell.numerator == 1 and cell.denominator & \
            (cell.denominator - 1) == 0 and (a / cell).denominator == 1


def test_sturm_count():
    # (w - 1/4)(w - 3/4) has two roots in [0, 1)
    p = pmul(poly(Q(-1, 4), 1), poly(Q(-3, 4), 1))
    assert count_roots_halfopen(sturm_chain(p), 0, 1) == 2
    assert count_roots_halfopen(sturm_chain(p), Q(1, 2), 1) == 1
    q = squarefree(p)
    assert count_roots(q, 0, 1) == 2 and count_roots(q, Q(1, 2), 1) == 1
    # (a, b] is half-open: a root at b counts, one at a does not
    assert count_roots(q, Q(1, 4), Q(3, 4)) == 1
    assert count_roots(q, 0, Q(1, 4)) == 1 and count_roots(q, 1, 0) == 0


def test_poly_nonneg_on():
    assert poly_nonneg_on((0, 0, 1), Q(-1), 1)           # w^2
    assert not poly_nonneg_on((-1, 0, 2), Q(1, 2), 1)    # 2w^2 - 1
    assert poly_nonneg_on((1, -2, 1), 0, 2)              # (w-1)^2


@pytest.mark.parametrize("p, lo, hi, want", [
    # double roots inside
    (ppow(poly(Q(-1, 2), 1), 2), 0, 1, True),
    (pneg(ppow(poly(Q(-1, 2), 1), 2)), 0, 1, False),
    (pmul(ppow(poly(Q(-1, 3), 1), 2), ppow(poly(Q(-2, 3), 1), 2)), 0, 1, True),
    (pmul(ppow(poly(Q(-1, 2), 1), 2), poly(-1, 0, 2)), 0, 1, False),
    # double roots at the ends
    ((0, 0, 1), 0, 1, True),
    (pmul(ppow(poly(0, 1), 2), ppow(poly(-1, 1), 2)), 0, 1, True),
    (pmul(ppow(poly(0, 1), 2), poly(-1, 1)), 0, 1, False),
    (pmul(ppow(poly(0, 1), 2), ppow(poly(-1, 1), 3)), 0, 1, False),
    # zero at both ends, one sign inside (no root there)
    (pmul(poly(0, 1), poly(1, -1)), 0, 1, True),
    (pmul(poly(0, 1), poly(-1, 1)), 0, 1, False),
    (pmul(pmul(poly(0, 1), poly(-1, 1)), ppow(poly(Q(-1, 2), 1), 2)),
     0, 1, False),
    # a point interval
    (poly(-1, 1), 1, 1, True),
    (poly(-1, 1), Q(1, 2), Q(1, 2), False),
])
def test_poly_nonneg_on_edge_cases(p, lo, hi, want):
    assert poly_nonneg_on(p, lo, hi) is want


# -- differential test against sympy ---------------------------------------
# sympy is a test-only reference: it is installed here but is not a
# dependency of the package.

sympy = pytest.importorskip("sympy")

_W = sympy.Symbol("w")

_small_roots = st.builds(Q, st.integers(-64, 64), st.integers(1, 64))
_large_roots = st.builds(Q, st.integers(-10 ** 5, 10 ** 5),
                         st.integers(1, 10 ** 5))
_roots = st.one_of(_small_roots, _small_roots, _large_roots)


_huge_roots = st.builds(Q, st.integers(-2 ** 75, 2 ** 75),
                        st.integers(1, 2 ** 72))
_coefs = st.one_of(st.integers(-40, 40), st.integers(-2 ** 70, 2 ** 70))


def _linear(r):
    return poly(-r.numerator, r.denominator)


@st.composite
def _quadratics(draw):
    """An integer quadratic c + b w + a w^2 of each kind: irreducible
    monic, a negative discriminant, a zero one, a nonzero square and any
    other, with a of either sign and coefficients small or huge."""
    kind = draw(st.sampled_from(["monic", "negative", "zero", "square",
                                 "any"]))
    if kind == "monic":
        b = draw(st.integers(-12, 12))
        c = draw(st.integers(-40, 40).filter(
            lambda c: b * b - 4 * c < 0 or
            math.isqrt(b * b - 4 * c) ** 2 != b * b - 4 * c))
        return poly(c, b, 1)
    k = draw(st.sampled_from([1, -1])) * draw(
        st.one_of(st.integers(1, 6), st.integers(1, 2 ** 70)))
    if kind in ("zero", "square"):
        r = draw(st.one_of(_roots, _huge_roots))
        s = r if kind == "zero" else draw(
            st.one_of(_roots, _huge_roots).filter(lambda s: s != r))
        return pscale(pmul(_linear(r), _linear(s)), k)
    a, b = draw(_coefs.filter(bool)), draw(_coefs)
    if kind == "negative":
        # 4ac > b^2
        c = (b * b // (4 * abs(a)) + draw(st.integers(1, 10 ** 6))) * \
            (1 if a > 0 else -1)
    else:
        c = draw(_coefs)
    return poly(c, b, a)


@st.composite
def _products(draw):
    """An integer polynomial of degree 1..4: a product of rational linear
    factors, repeats allowed, and quadratics of every kind."""
    n_quad = draw(st.integers(0, 2))
    n_lin = draw(st.integers(1 if n_quad == 0 else 0, 4 - 2 * n_quad))
    lins = draw(st.lists(_roots, min_size=n_lin, max_size=n_lin))
    p = poly(draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1])))
    for r in lins:
        p = pmul(p, _linear(r))
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
@example((pmul(poly(-3, 2 ** 70), poly(-5, 1)), Q(0), Q(8)))  # huge lc
@example((poly(-1, 0, 8192), Q(0), Q(1)))           # irrational: a RootPt
@example((ppow(poly(-8192, 4099), 2), Q(0), Q(2)))  # discriminant 0
@example((pmul(poly(-1, 3), poly(-5, 2)), Q(1, 3), Q(5, 2)))  # roots at ends
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


@st.composite
def _count_cases(draw):
    """A squarefree integer polynomial and an interval (a, b] whose ends
    and first bisection midpoints may be roots."""
    a, b = sorted(draw(st.lists(_ends, min_size=2, max_size=2, unique=True)))
    marks = [a, b, (a + b) / 2, (3 * a + b) / 4, (a + 3 * b) / 4]
    roots = draw(st.lists(st.one_of(st.sampled_from(marks), _roots),
                          max_size=4, unique=True))
    p = poly(draw(st.sampled_from([1, -3])))
    for r in roots:
        p = pmul(p, poly(-r.numerator, r.denominator))
    for _ in range(draw(st.integers(0, 1))):
        p = pmul(p, draw(_quadratics()))
    return squarefree(p), a, b


@settings(max_examples=300, deadline=None)
@given(_count_cases())
@example(((0, -1, 0, 1), Q(-1), Q(1)))           # roots at a, the midpoint, b
@example((pmul(poly(-1, 4), poly(-3, 4)), Q(0), Q(1)))  # at both quarters
def test_count_roots_matches_sturm_and_sympy(case):
    q, a, b = case
    want = len([r for r in _sympy_roots(q, a, b) if r != _sympy_q(a)])
    assert count_roots(q, a, b) == count_roots_halfopen(sturm_chain(q), a, b) \
        == want


def _sympy_q(x):
    return sympy.Rational(x.numerator, x.denominator)


@settings(max_examples=300, deadline=None)
@given(_cases(), st.sampled_from([1, -1]))
@example(((0, -1, 1), Q(0), Q(1)), -1)       # zero at both ends, positive
@example(((0, 1, -1), Q(0), Q(1)), -1)       # inside
def test_poly_nonneg_on_matches_sympy(case, sgn):
    """Against the sign of p at its ends and between consecutive real
    roots, from sympy."""
    p, lo, hi = case
    p = pscale(p, sgn)
    pts = [lo, hi]
    prev = _sympy_q(lo)
    for r in _sympy_roots(p, lo, hi) + [_sympy_q(hi)]:
        pts.append((prev + r) / 2)
        prev = r
    P = sympy.Poly([_sympy_q(Q(c)) for c in reversed(p)], _W)
    want = all(P.eval(_sympy_q(x) if isinstance(x, Q) else x) >= 0
               for x in pts)
    assert poly_nonneg_on(p, lo, hi) is want


_SQRT2 = poly(-2, 0, 1)
_CUBIC = poly(-1, -1, 0, 1)          # w^3 - w - 1: one real root, 1.3247...
_SF = pmul(_SQRT2, _CUBIC)
# a complex pair 1.4142 +- 10^-4 i, within 2 * 10^-5 of sqrt 2 in real part
_NEAR = padd(ppow(poly(Q(-7071, 5000), 1), 2), poly(Q(1, 10 ** 8)))


def _sympy_sign_at(p, root):
    """The exact sign of p at the real algebraic number root: 0 when the
    minimal polynomial of root divides p, else the sign of a value sympy
    evaluates to 50 digits."""
    P = sympy.Poly([_sympy_q(Q(c)) for c in reversed(p)], _W)
    m = sympy.Poly(sympy.minimal_polynomial(root, _W), _W)
    if P.rem(m).is_zero:
        return 0
    return int(sympy.sign(P.as_expr().subs(_W, root).evalf(50)))


@pytest.mark.parametrize("sf, lo, hi, p", [
    # p shares a factor with sf: zero at the roots of that factor only
    (_SF, Q(7, 5), Q(3, 2), pmul(_SQRT2, poly(5, 1))),
    (_SF, Q(13, 10), Q(7, 5), pmul(_SQRT2, poly(5, 1))),
    (_SF, -2, 0, pmul(_SQRT2, poly(5, 1))),
    (_SF, Q(13, 10), Q(7, 5), pmul(ppow(_CUBIC, 2), poly(-3, 0, 1))),
    (_SF, Q(7, 5), Q(3, 2), pmul(ppow(_CUBIC, 2), poly(-3, 0, 1))),
    # a multiple root elsewhere, between the two positive roots of sf
    (_SF, Q(13, 10), Q(7, 5), pmul(ppow(poly(-4, 3), 2), poly(-137, 100))),
    (_SF, Q(7, 5), Q(3, 2), pmul(ppow(poly(-4, 3), 3), poly(-137, 100))),
    (_SF, Q(7, 5), Q(3, 2), pneg(ppow(poly(-99, 70), 4))),
    # a complex pair close to the real root
    (_SF, Q(7, 5), Q(3, 2), _NEAR),
    (_SF, Q(7, 5), Q(3, 2), pmul(_NEAR, poly(-1, 0, 0, 0, 1))),
    (_SQRT2, 1, 2, pmul(_NEAR, poly(-7, 5))),
    # p vanishing at an interval end; sf may vanish at lo
    (_SQRT2, 1, 2, pmul(poly(-1, 1), poly(-2, 1))),
    (_SQRT2, 1, Q(3, 2), pmul(poly(-3, 2), _SQRT2)),
    (pmul(poly(-1, 1), _SQRT2), 1, 2, pmul(poly(-1, 1), poly(7, 1))),
    (pmul(poly(-1, 1), _SQRT2), 1, 2, pmul(ppow(poly(-1, 1), 2),
                                           poly(-2, 1))),
])
def test_rootpt_sign_matches_sympy(sf, lo, hi, p):
    (root,) = [r for r in sympy.real_roots(
        sympy.Poly(list(reversed(sf)), _W)) if bool(_sympy_q(Q(lo)) < r)
        and bool(r < _sympy_q(Q(hi)))]
    assert RootPt(sf, lo, hi).sign_of(p) == _sympy_sign_at(p, root)
    assert psign(p, RootPt(sf, lo, hi)) == _sympy_sign_at(p, root)


def test_algebraic_signs_count_no_roots(monkeypatch):
    """Signs and comparisons at RootPts use the circle tests alone, and
    `poly_nonneg_on` samples between roots without refining to a width."""
    def fail(*args):
        raise AssertionError("no root count expected")
    for name in ("count_roots", "squarefree"):
        monkeypatch.setattr(polytools, name, fail)
    monkeypatch.setattr(RootPt, "refine_below", fail)
    assert RootPt(_SF, Q(7, 5), Q(3, 2)).sign_of(_NEAR) == 1
    assert RootPt(_SF, Q(7, 5), Q(3, 2)).sign_of(pmul(_SQRT2, _NEAR)) == 0
    r, s = RootPt(_SF, Q(7, 5), Q(3, 2)), RootPt(_SQRT2, 1, 2)
    assert r == s and not r < s and s <= r
    assert RootPt(_CUBIC, 1, 2) < RootPt(_SF, Q(7, 5), Q(3, 2))
    monkeypatch.setattr(polytools, "squarefree", squarefree)
    # negative only between the roots sqrt 2 and 2, then only between
    # the last two roots, sqrt 2 and 3
    assert poly_nonneg_on(pmul(pmul(_NEAR, _SQRT2), poly(-2, 1)), 0, 3) \
        is False
    assert poly_nonneg_on(pmul(pneg(_SQRT2), poly(3, -1)), 0, 3) is False
    assert poly_nonneg_on(pmul(_SF, _SF), -2, 2) is True


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


def test_closed_forms_need_no_bisection(monkeypatch):
    """A squarefree part of degree 1, or of degree 2 whose roots are
    rational or not real, is solved without the PRS gcd or Descartes'
    rule; an irrational pair still gets its RootPts."""
    def fail(*args):
        raise AssertionError("closed form expected")
    monkeypatch.setattr(polytools, "pgcd", fail)
    monkeypatch.setattr(polytools, "_descartes", fail)
    iso = isolate_roots.__wrapped__
    p = pmul(poly(-1, 3), poly(-5, 2))
    assert iso(p, Q(1, 3), Q(5, 2)) == (Q(1, 3), Q(5, 2))
    assert iso(p, Q(1, 2), Q(5, 2)) == (Q(5, 2),)
    assert iso(p, Q(1, 2), Q(2)) == ()
    assert iso(pmul(poly(-3, 2 ** 70), poly(-5, 1)), 0, 8) == \
        (Q(3, 2 ** 70), Q(5))
    assert iso(ppow(poly(-8192, 4099), 2), 0, 2) == (Q(8192, 4099),)
    assert iso(pscale(ppow(poly(1, 2), 2), -7), -1, 1) == (Q(-1, 2),)
    assert iso(poly(5, 2, 1), -9, 9) == ()
    assert squarefree(ppow(poly(Q(-1, 2), 1), 2)) == (-1, 2)
    monkeypatch.undo()
    (r,) = isolate_roots.__wrapped__(poly(-1, 0, 8192), 0, 1)
    assert isinstance(r, RootPt) and Q(1, 91) < r < Q(1, 90)


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
        if _ref_eval(self.sf, r) == 0:
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
    q = _ref_squarefree(p)
    if pdeg(q) <= 0:
        return ()
    found = []

    def peel(x):
        nonlocal q
        q = pdivmod(q, (-x, Q(1)))[0]
        found.append(x)

    if _ref_eval(q, lo) == 0:
        peel(lo)
    if hi > lo and q and _ref_eval(q, hi) == 0:
        peel(hi)
    if pdeg(q) >= 2:
        for cand in _old_rational_candidates(q, lo, hi):
            if lo < cand < hi and q and _ref_eval(q, cand) == 0:
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
            if _ref_eval(q, m) == 0:
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
@example((pmul(poly(-3, 2 ** 70), poly(-5, 1)), Q(0), Q(8)))  # huge lc
@example((poly(-1, 0, 8192), Q(0), Q(1)))           # irrational: a RootPt
@example((ppow(poly(-8192, 4099), 2), Q(0), Q(2)))  # discriminant 0
@example((pmul(poly(-1, 3), poly(-5, 2)), Q(1, 3), Q(5, 2)))  # roots at ends
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


# -- reference: the Fraction Sturm chain and Horner signs that the integer
# kernel replaced ---------------------------------------------------------


def _ref_sturm_chain(p):
    chain = [p, pderiv(p)]
    while chain[-1]:
        rem = pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(pneg(rem))
    return [c for c in chain if c]


def _ref_sign(p, x):
    v = _ref_eval(p, x)
    return (v > 0) - (v < 0)


def _ref_count(chain, a, b):
    def variations(x):
        signs = [s for s in (_ref_sign(p, x) for p in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return variations(a) - variations(b) if a < b else 0


_coeffs = st.one_of(st.integers(-30, 30),
                    st.builds(Q, st.integers(-10 ** 6, 10 ** 6),
                              st.integers(1, 10 ** 6)))
_dense = st.lists(_coeffs, min_size=0, max_size=7).map(lambda cs: poly(*cs))
_polys = st.one_of(_dense, _products().map(lambda pl: pl[0]))
_points = st.one_of(st.integers(-5, 5).map(Q), _ends, _roots)


@settings(max_examples=300, deadline=None)
@given(_polys, _points)
@example(poly(), Q(1, 3))
@example(poly(-1, 0, 2), Q(-1))
def test_psign_matches_peval(p, x):
    assert peval(p, x) == _ref_eval(p, x)
    assert psign(p, x) == _ref_sign(p, x)
    assert psign(p, x.numerator if x.denominator == 1 else x) == \
        _ref_sign(p, x)


@settings(max_examples=200, deadline=None)
@given(_polys)
def test_sturm_chain_terms_are_positive_multiples(p):
    got, ref = sturm_chain(p), _ref_sturm_chain(p)
    assert len(got) == len(ref)
    for z, r in zip(got, ref):
        assert all(isinstance(c, int) for c in z)
        assert math.gcd(*z) == 1
        ratio = Q(z[-1]) / r[-1]
        assert ratio > 0 and len(z) == len(r)
        assert all(c == ratio * d for c, d in zip(z, r))


def _sympy_monic_gcd(p, q):
    def sp(f):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(f)] or [0], _W, domain="QQ")
    g = sympy.gcd(sp(p), sp(q))
    if g.is_zero:
        return ()
    return poly(*(_q(c) for c in reversed(g.monic().all_coeffs())))


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _polys)
@example(poly(), poly(), poly(1, 1))
def test_pgcd_matches_reference_and_sympy(a, b, c):
    """The integer gcd is a positive multiple of the monic gcd over Q,
    primitive, with a positive leading coefficient."""
    p, q = pmul(a, c), pmul(b, c)
    got, ref = pgcd(p, q), _ref_pgcd(p, q)
    assert ref == _sympy_monic_gcd(p, q)
    assert len(got) == len(ref)
    if got:
        assert all(type(x) is int for x in got)
        assert math.gcd(*got) == 1 and got[-1] > 0
        assert all(g == got[-1] * r for g, r in zip(got, ref))


@settings(max_examples=300, deadline=None)
@given(_polys)
@example(ppow(poly(-8192, 4099), 2))
@example(pmul(poly(-3, 2 ** 70), poly(-5, 1)))
@example(poly(0, 0, -3))
def test_squarefree_is_a_multiple_of_the_reference(p):
    """Primitive with lc > 0, and a positive multiple of the monic
    squarefree part over Q, in the closed forms up to degree 2 and on the
    PRS path above."""
    got, ref = squarefree(p), _ref_squarefree(p)
    assert len(got) == len(ref)
    if got:
        assert all(type(x) is int for x in got)
        assert math.gcd(*got) == 1 and got[-1] > 0
        assert all(g == got[-1] * r for g, r in zip(got, ref))


@settings(max_examples=300, deadline=None)
@given(_polys, _points, _points)
def test_count_roots_matches_reference_chain(p, a, b):
    q = squarefree(p)
    assert count_roots(q, a, b) == \
        count_roots_halfopen(sturm_chain(q), a, b) == \
        _ref_count(_ref_sturm_chain(q), a, b)
