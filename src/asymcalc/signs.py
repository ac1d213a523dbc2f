"""Exact asymptotic sign analysis of self-similar elements on trace sets.

The central question: given an element x and a window trace W (a flagged
interval set inside (sigma, 1]), what signs does x attain on the orbit of W
at arbitrarily small scales?  Away from profile zeros the lexicographically
dominant component (smallest r, then smallest s, among components not
vanishing at the point) decides.  At a common zero the competition between
several components is resolved by a Newton-polygon argument: approaching the
zero at rate t ~ sigma^(beta k) the component (s_j, r_j=0, order m_j)
contributes sigma^(k (s_j + beta m_j)); the achievable dominant behaviours
are the lower-hull vertices of the points (m_j, s_j), and a sign change
between hull-adjacent vertices forces an exactly attained zero nearby.

Each local idea has one helper.  `_side_signs` holds the hull rule: the
signs x attains on one side of a point, or the dominant deep component's
sign where no r = 0 component lives.  It is the one function that the fix
for perfect-square Newton edges (ROADMAP item 1) replaces.  The points it
is asked about come from `_candidate_points`, a walk over every component
in (r, s) order that reads each profile only inside the flat zero of all
before it, for its roots and the ends of its zero segments; the deep
profiles are reached only inside the flat common zero of the r = 0 ones,
where `point_sign` and `_side_signs` read the first deep component that
does not vanish.  No answer changes at a point the walk leaves out: there
the first profile not identically zero nearby is nonzero, so the hull has
that one vertex (or that deep profile decides), and the point is neither
bad nor a common zero.  No cell between two walk points is sampled: there
the dominant profile has no zero, as the walk keeps every one.  Where it is
an r = 0 profile, it is the live one of least s at either end of the cell,
which is always a vertex of that side's hull, so its sign is among the
side signs at both ends; where it is deep, it is the first deep one those
side signs read, and where no profile lives they give 0.  A hull of two or
more vertices needs the dominant profile to vanish at the point, so item
1's lapses sit at zeros of that profile, and the walk keeps every one.

`_is_common_zero` is the one test that every r = 0 component vanishes at
a point, and with `flat_common_zero` it is the one vanishing rule:
`zero_set` builds where an element vanishes from it (its flat common zero
and isolated common zeros, built once per element and kept in the
element's `_zeros` slot), and `restr_zero` reads it on a trace without
building that set.

Invertibility on S is decided in one place: `obstruction_on` reads the
obstruction structure off x and `unobstructed` tests it on the closed
trace; every invertibility consumer takes that one triple.  The structure
is built once per element and kept in the element's `_bad` slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import NotCharacteristic
from .ivset import Iv, IvSet
from .polytools import isolate_roots
from .pwfunc import PwFunction
from .scaleset import AsymptoticSet, circle_closure

ZERO, POS, NEG, NONNEG, NONPOS, MIXED = \
    "ZERO", "POS", "NEG", "NONNEG", "NONPOS", "MIXED"


def common_window(x: PwFunction, S: AsymptoticSet):
    """Rewrite x and S onto a common ratio; returns (x', shape').  Unlike
    `unify`, it does not bring the two anchors together."""
    m1, m2 = x.grid.common_ratio(S.grid)
    return x.coarsen(m1), S.coarsen(m2).shape


# -- pointwise structure of the r = 0 part -------------------------------


def flat_common_zero(x: PwFunction) -> IvSet:
    """Fat closed intervals where every r = 0 profile vanishes identically
    (the whole window when there is no r = 0 component)."""
    acc = IvSet.on((Iv.on(x.sigma, Q(1), True, True),))
    for c in x.comps:
        if c.r == 0:
            acc = acc.intersect(c.g.flat_zero())
    return acc.fat_part()


def zero_set(x: PwFunction):
    """(Z, irrational): where every r = 0 profile of x vanishes.  Z holds
    the flat common zero and the rational isolated common zeros as points,
    `irrational` the isolated common zeros at algebraic points; Z is the
    whole window for a negligible x.  Built on the first call for x and
    kept, read-only, in its `_zeros` slot."""
    if x._zeros is None:
        flat = flat_common_zero(x)
        pts, irrational = [], []
        for p in _candidate_points(x):
            if flat.contains(p) or not _is_common_zero(x, p):
                continue
            if isinstance(p, Q):
                pts.append(Iv.on(p, p, True, True))
            else:
                irrational.append(p)
        # the candidates are sorted and distinct and lie outside the closed
        # flat part, so no point meets or touches an interval of it, and
        # the intervals sorted by start are canonical
        ivs = tuple(sorted((*flat.ivs, *pts), key=lambda iv: iv.lo))
        x._zeros = IvSet.on(ivs), tuple(irrational)
    return x._zeros


def _candidate_points(x: PwFunction):
    """The window points where the dominant profile vanishes; deduplicated,
    sorted.  The profiles come in (r, s) order, the deep ones after every
    r = 0 one, and each is read only inside the region where all before it
    vanish identically (the whole window for the first): the roots of its
    nonzero segments and the ends of its zero segments there.  The region
    is then cut to its flat zero, and the walk stops once it is empty."""
    region = IvSet.on((Iv.on(x.sigma, Q(1), True, True),))
    rats, roots = set(), []
    for c in x.comps:
        if not region:
            break
        for seg in c.g.segs:
            zs = isolate_roots(seg.num, seg.lo, seg.hi) if seg.num \
                else (seg.lo, seg.hi)
            _add_points([z for z in zs if region.contains(z)], rats, roots)
        region = region.intersect(c.g.flat_zero())
    return sorted([*rats, *roots])


def _add_points(points, rats, roots):
    """Add rational points to the set `rats` and algebraic ones, which are
    unhashable, to the list `roots` unless an equal one is there."""
    for z in points:
        if isinstance(z, Q):
            rats.add(z)
        elif z not in roots:
            roots.append(z)


# -- local analysis at a point -------------------------------------------


def _hull_vertices(entries):
    """Lower-hull vertices of the points (m, s), minimizing s + beta*m over
    beta in [0, inf); returned in order of decreasing m.

    The best point per m, then the staircase of strictly falling s (every
    other point is dominated by one of smaller m and no larger s), then
    Andrew's monotone chain over the staircase.  The chain pops only on a
    strict right turn, so a point inside a hull edge stays."""
    best = {}
    for (m, s, sg) in entries:
        if m not in best or s < best[m][0]:
            best[m] = (s, sg)
    hull = []
    for m in sorted(best):
        s, sg = best[m]
        if hull and hull[-1][1] <= s:
            continue
        while len(hull) >= 2:
            (m1, s1, _), (m2, s2, _) = hull[-2], hull[-1]
            if (m2 - m1) * (s - s1) - (s2 - s1) * (m - m1) >= 0:
                break
            hull.pop()
        hull.append((m, s, sg))
    return hull[::-1]


def _side_signs(x: PwFunction, w0, direction: int) -> set:
    """The signs x attains arbitrarily close to w0 on the side `direction`
    (+1 right, -1 left) of the window, at small scales.  The r = 0
    components not identically zero there give the hull vertices of their
    points (order, s), and 0 joins between two vertices of opposite sign.
    The deep components are read only when no such component lives, and
    then by the same dominance as the walk: the first one not identically
    zero there decides, and the sign is 0 when there is none.  The set
    always holds the sign of the profile that dominates the open cell on
    that side: no cell is sampled, so the cell signs come from here."""
    live = []
    for c in x.comps:
        if c.r and live:
            break
        m, sg = c.g.order_at(w0, direction)
        if m is None:
            continue
        if c.r:
            return {sg}
        live.append((m, c.s, sg))
    if not live:
        return {0}
    verts = _hull_vertices(live)
    signs = {sg for (_, _, sg) in verts}
    if any(a[2] != b[2] for a, b in zip(verts, verts[1:])):
        signs.add(0)
    return signs


def point_sign(x: PwFunction, w0):
    """(sign, is_deep) of the exact value pattern on the orbit of w0: the
    lexicographically dominant component with nonzero value decides."""
    for c in x.comps:
        sg = c.g.value_sign_at(w0)
        if sg:
            return sg, c.r > 0
    return 0, False


def _is_common_zero(x: PwFunction, p) -> bool:
    """Whether every r = 0 component vanishes at p: the components are
    sorted by (r, s), so the value pattern there is 0 or deep."""
    sg, is_deep = point_sign(x, p)
    return sg == 0 or is_deep


# -- main classifiers ----------------------------------------------------
# The seam: the point w = 1 of block k+1 is glued to w -> sigma+ of block k.
# Approaching the orbit point u = sigma^(k+1) c0 from below is w -> 1-;
# from above is w -> sigma+.  Both are analysed as ordinary one-sided data
# at the window endpoints.


def eventual_sign_on(x: PwFunction, S: AsymptoticSet) -> str:
    """Classify the signs x attains on S at arbitrarily small scales."""
    if not S.is_characteristic():
        raise NotCharacteristic("sign on a set not accumulating at 0")
    x, shape = common_window(x, S)
    signs = _attained_signs(x, shape)
    return _classify(signs)


def eventually_nonneg(x: PwFunction, S: AsymptoticSet) -> bool:
    """Whether x is eventually >= 0 on S: POS, NONNEG or ZERO."""
    return eventual_sign_on(x, S) in (POS, NONNEG, ZERO)


def _classify(signs) -> str:
    has_pos = 1 in signs
    has_neg = -1 in signs
    has_zero = 0 in signs
    if has_pos and has_neg:
        return MIXED
    if has_pos:
        return NONNEG if has_zero else POS
    if has_neg:
        return NONPOS if has_zero else NEG
    return ZERO


def _attained_signs(x: PwFunction, shape: IvSet):
    signs = set()
    cands = _candidate_points(x)
    for iv in shape.ivs:
        signs |= {point_sign(x, iv.lo)[0]} if iv.is_point() \
            else _interval_signs(x, iv, cands)
    return signs


def _interval_signs(x: PwFunction, iv: Iv, cands):
    """One walk over lo, the candidates inside iv and hi: the value sign at
    each point iv holds and the one-sided signs facing into iv, which hold
    the sign on each cell between neighbours (see the module docstring)."""
    cuts = [iv.lo] + [p for p in cands if iv.lo < p < iv.hi] + [iv.hi]
    signs = {point_sign(x, p)[0] for p in cuts if iv.contains(p)}
    for a, b in zip(cuts, cuts[1:]):
        signs |= _side_signs(x, a, +1) | _side_signs(x, b, -1)
    return signs


# -- restriction predicates ----------------------------------------------


def restr_zero(x: PwFunction, S: AsymptoticSet) -> bool:
    """x vanishes faster than every scale power on S: by the rule `zero_set`
    is built on, the fat part of the trace lies in the flat common zero and
    every r = 0 component vanishes at each of its points."""
    if not S.is_characteristic():
        raise NotCharacteristic("restriction needs a set accumulating at 0")
    x, shape = common_window(x, S)
    return shape.fat_part().subset_of(flat_common_zero(x)) and \
        all(_is_common_zero(x, p) for p in shape.points())


@dataclass(frozen=True)
class BadPt:
    pos: object          # Q | RootPt
    point_bad: bool
    left_bad: bool
    right_bad: bool


def bad_structure(x: PwFunction):
    """Where x fails to be bounded below by a scale power: the flat common
    zero region plus a tuple of frozen flagged points.  This builds it;
    `obstruction_on` keeps it in the element's `_bad` slot, where every
    later question shares it, so it is read-only.

    A point is bad on a side when approaching it on that side the attainable
    sign set contains 0 (a common zero, an exact cancellation, or collapse
    to super-polynomial smallness); bad at the point itself when the orbit
    value pattern there is 0 or carried only by deep components.
    """
    flat = flat_common_zero(x)
    inner = flat.interior_rel(Iv.on(x.sigma, Q(1), True, True))
    pts = []
    for p in _candidate_points(x):
        if inner.contains(p):
            continue
        at_sigma = p == x.sigma
        at_one = p == 1
        # w = sigma is not in the window; only the sigma+ side (the seam
        # approach from above) carries information, the point value lives
        # at w = 1
        point_bad = not at_sigma and _is_common_zero(x, p)
        left_bad = not at_sigma and 0 in _side_signs(x, p, -1)
        right_bad = not at_one and 0 in _side_signs(x, p, +1)
        if point_bad or left_bad or right_bad:
            pts.append(BadPt(p, point_bad, left_bad, right_bad))
    return flat, tuple(pts)


def obstruction_on(x: PwFunction, S: AsymptoticSet):
    """(xw, shape, structure): x and the trace of S rewritten onto their
    common ratio, and the obstruction structure `bad_structure(xw)`, built
    on the first call for xw and kept in its `_bad` slot.  When the common
    ratio is that of x, xw is x itself, so every such question reuses it."""
    if not S.is_characteristic():
        raise NotCharacteristic("restriction needs a set accumulating at 0")
    xw, shape = common_window(x, S)
    if xw._bad is None:
        xw._bad = bad_structure(xw)
    return xw, shape, xw._bad


def unobstructed(ob) -> bool:
    """Whether x is invertible on S, from `obstruction_on(x, S)`."""
    xw, shape, structure = ob
    return not obstruction_meets(structure, circle_closure(shape, xw.sigma))


def restr_invertible_bool(x: PwFunction, S: AsymptoticSet) -> bool:
    """Exact decision of eventual boundedness below by a scale power on S."""
    return unobstructed(obstruction_on(x, S))


def obstruction_meets(structure, C: IvSet) -> bool:
    """Whether an obstruction structure (flat, badpts) from `bad_structure`
    obstructs invertibility on the trace C, on the same window."""
    flat, badpts = structure
    if flat and flat.intersect(C):
        return True
    return any(_bad_hits(b, C) for b in badpts)


def _bad_hits(b: BadPt, C: IvSet) -> bool:
    """Does the bad point obstruct invertibility on the closed trace C?

    Under the seam gluing, a sigma+ side at pos = sigma matters when C
    accumulates at sigma from above, and the point value of pos = 1 matters
    when 1 is in C; the generic rules below cover both.  An irrational pos
    equals no interval end, so either limit test reads "inside a fat
    interval of C".
    """
    p = b.pos
    if b.point_bad and C.contains(p):
        return True
    if b.left_bad and C.limit_from_left(p):
        return True
    return b.right_bad and C.limit_from_right(p)
