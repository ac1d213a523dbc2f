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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cmp_to_key

from .errors import NotCharacteristic
from .ivset import Iv, IvSet
from .polytools import RootPt, pt_approx, pt_cmp
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
    win = IvSet([Iv(x.sigma, 1, False, True)])
    live = [c for c in x.comps if c.r == 0]
    if not live:
        return IvSet([Iv(x.sigma, 1, True, True)])
    acc = IvSet([Iv(x.sigma, 1, True, True)])
    for c in live:
        acc = acc.intersect(c.g.flat_zero())
    return acc.fat_part()


def isolated_common_zeros(x: PwFunction):
    """Points outside the flat common-zero region where every r = 0 profile
    vanishes.  Empty when there is no r = 0 component."""
    live = [c for c in x.comps if c.r == 0]
    if not live:
        return []
    flat = flat_common_zero(x)
    out = []
    for p in _candidate_points(x):
        if flat.fat_part() and _pt_in_ivset(p, flat):
            continue
        if all(c.g.value_sign_at(p) == 0 for c in live):
            out.append(p)
    return out


def _candidate_points(x: PwFunction):
    """Window points where some r = 0 profile vanishes or changes its
    polynomial piece; deduplicated, sorted."""
    pts = []
    rats = set()
    for c in x.comps:
        if c.r != 0:
            continue
        for b in c.g.breakpoints():
            rats.add(Q(b))
        for iv in c.g.flat_zero().ivs:
            rats.add(iv.lo)
            rats.add(iv.hi)
        for z in c.g.isolated_zeros():
            if isinstance(z, Q):
                rats.add(z)
            else:
                pts.append(z)
    out = sorted(rats)
    # a RootPt is irrational, so it can only coincide with another RootPt
    for z in pts:
        if not any(isinstance(q, RootPt) and pt_cmp(z, q) == 0 for q in out):
            out.append(z)
    # RootPt entries must interleave with the rationals in true order
    out.sort(key=cmp_to_key(pt_cmp))
    return out


def _pt_in_ivset(p, s: IvSet) -> bool:
    if isinstance(p, Q):
        return s.contains(p)
    for iv in s.ivs:
        cl = pt_cmp(p, iv.lo)
        ch = pt_cmp(p, iv.hi)
        if (cl > 0 or (cl == 0 and iv.lc)) and (ch < 0 or (ch == 0 and iv.hc)):
            return True
    return False


# -- local analysis at a point -------------------------------------------


@dataclass
class SideData:
    """Behaviour of x approaching a point from one side."""
    entries: list      # (m, s, sign) for r=0 comps not flat-zero on the side
    deep_sign: int     # sign of dominant deep comp on the side (0 if none)
    all_flat: bool     # every r=0 comp is identically zero on this side

    def hull(self):
        return _hull_vertices(self.entries)

    def attainable_signs(self):
        """Signs x attains arbitrarily close to the point on this side, at
        small scales."""
        if self.all_flat:
            return {self.deep_sign}
        verts = self.hull()
        signs = {sg for (_, _, sg) in verts}
        for (a, b) in zip(verts, verts[1:]):
            if a[2] != b[2]:
                signs.add(0)
        return signs


def _hull_vertices(entries):
    """Lower-hull vertices of the points (m, s), minimizing s + beta*m over
    beta in [0, inf); returned in order of decreasing m."""
    best = {}
    for (m, s, sg) in entries:
        if m not in best or s < best[m][0]:
            best[m] = (s, sg)
    pts = sorted(((m, s, sg) for m, (s, sg) in best.items()))
    # prune dominated points (both coordinates >=)
    pruned = []
    for p in pts:
        pruned = [q for q in pruned if not (p[0] <= q[0] and p[1] <= q[1])]
        if not any(q[0] <= p[0] and q[1] <= p[1] for q in pruned):
            pruned.append(p)
    pruned.sort()
    if len(pruned) <= 2:
        return list(reversed(pruned))
    crossings = set()
    for i, a in enumerate(pruned):
        for b in pruned[i + 1:]:
            if b[0] != a[0]:
                beta = Q(a[1] - b[1], b[0] - a[0])
                if beta > 0:
                    crossings.add(beta)
    betas = [Q(0)]
    cr = sorted(crossings)
    for u, v in zip(cr, cr[1:]):
        betas.append((u + v) / 2)
    if cr:
        betas.append(cr[-1] + 1)
        betas.extend(cr)
    verts = []
    for beta in betas:
        vals = [(s + beta * m, m, s, sg) for (m, s, sg) in pruned]
        mn = min(v[0] for v in vals)
        for v in vals:
            if v[0] == mn and (v[1], v[2], v[3]) not in verts:
                verts.append((v[1], v[2], v[3]))
    verts.sort(key=lambda t: -t[0])
    return verts


def side_data(x: PwFunction, w0, direction: int) -> SideData:
    """Local data on one side of w0 inside the window [sigma, 1]."""
    entries = []
    all_flat = True
    deep = []
    for c in x.comps:
        m, sg = c.g.order_at(w0, direction)
        if c.r == 0:
            if m is None:
                continue
            all_flat = False
            entries.append((m, c.s, sg))
        else:
            if m is not None:
                deep.append((c.r, c.s, m, sg))
    deep_sign = 0
    if deep:
        deep.sort()
        # dominant deep comp just off the point: smallest (r, s) with the
        # smallest order among ties is a fair local representative
        deep_sign = deep[0][3]
    return SideData(entries, deep_sign, all_flat)


def point_sign(x: PwFunction, w0):
    """(sign, is_deep) of the exact value pattern on the orbit of w0: the
    lexicographically dominant component with nonzero value decides."""
    for c in sorted(x.comps, key=lambda c: (c.r, c.s)):
        sg = c.g.value_sign_at(w0)
        if sg:
            return sg, c.r > 0
    return 0, False


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
        if iv.is_point():
            sg, _ = point_sign(x, iv.lo)
            signs.add(sg)
            continue
        signs |= _interval_signs(x, iv, cands)
    return signs


def _interval_signs(x: PwFunction, iv: Iv, cands):
    signs = set()
    inner = [p for p in cands
             if pt_cmp(p, iv.lo) > 0 and pt_cmp(p, iv.hi) < 0]
    # cell sample signs
    cuts = [iv.lo] + inner + [iv.hi]
    for a, b in zip(cuts, cuts[1:]):
        w = _between(a, b)
        sg, _ = point_sign(x, w)
        signs.add(sg)
    # point analyses
    for p in inner:
        sg, _ = point_sign(x, p)
        signs.add(sg)
        for direction in (+1, -1):
            signs |= side_data(x, p, direction).attainable_signs()
    # endpoints: one-sided limits into the interval, plus the value when the
    # endpoint itself belongs to the set
    for (p, into) in ((iv.lo, +1), (iv.hi, -1)):
        if iv.contains(p):
            sg, _ = point_sign(x, p)
            signs.add(sg)
        signs |= side_data(x, p, into).attainable_signs()
    return signs


def _between(a, b):
    """A rational point strictly between two points."""
    if isinstance(a, Q) and isinstance(b, Q):
        return (a + b) / 2
    while True:
        if isinstance(a, RootPt):
            a.refine()
        if isinstance(b, RootPt):
            b.refine()
        lo = a.hi if isinstance(a, RootPt) else a
        hi = b.lo if isinstance(b, RootPt) else b
        if lo < hi:
            return (lo + hi) / 2


# -- restriction predicates ----------------------------------------------


def restr_zero(x: PwFunction, S: AsymptoticSet) -> bool:
    """x vanishes faster than every scale power on S."""
    if not S.is_characteristic():
        raise NotCharacteristic("restriction needs a set accumulating at 0")
    x, shape = common_window(x, S)
    for c in x.comps:
        if c.r == 0 and not c.g.vanishes_on(shape):
            return False
    return True


@dataclass
class BadPt:
    pos: object          # Q | RootPt
    point_bad: bool
    left_bad: bool
    right_bad: bool


def bad_structure(x: PwFunction):
    """Where x fails to be bounded below by a scale power: the flat common
    zero region plus a finite list of flagged points.

    A point is bad on a side when approaching it on that side the attainable
    sign set contains 0 (a common zero, an exact cancellation, or collapse
    to super-polynomial smallness); bad at the point itself when the orbit
    value pattern there is 0 or carried only by deep components.
    """
    flat = flat_common_zero(x)
    pts = []
    for p in _candidate_points(x):
        if flat and _pt_in_ivset(p, flat.interior_rel(
                Iv(x.sigma, 1, True, True))):
            continue
        at_sigma = isinstance(p, Q) and p == x.sigma
        at_one = isinstance(p, Q) and p == 1
        # w = sigma is not in the window; only the sigma+ side (the seam
        # approach from above) carries information, the point value lives
        # at w = 1
        point_bad = False
        if not at_sigma:
            sg, is_deep = point_sign(x, p)
            point_bad = (sg == 0) or is_deep
        left_bad = (not at_sigma) and _side_bad(side_data(x, p, -1))
        right_bad = (not at_one) and _side_bad(side_data(x, p, +1))
        if point_bad or left_bad or right_bad:
            pts.append(BadPt(p, point_bad, left_bad, right_bad))
    return flat, pts


def _side_bad(sd: SideData) -> bool:
    return 0 in sd.attainable_signs()


def restr_invertible_bool(x: PwFunction, S: AsymptoticSet) -> bool:
    """Exact decision of eventual boundedness below by a scale power on S."""
    if not S.is_characteristic():
        raise NotCharacteristic("restriction needs a set accumulating at 0")
    x, shape = common_window(x, S)
    C = circle_closure(shape, x.sigma)
    flat, badpts = bad_structure(x)
    if flat and flat.intersect(C):
        return False
    for b in badpts:
        if _bad_hits(b, C):
            return False
    return True


def _bad_hits(b: BadPt, C: IvSet) -> bool:
    """Does the bad point obstruct invertibility on the closed trace C?

    Under the seam gluing, a sigma+ side at pos = sigma matters when C
    accumulates at sigma from above, and the point value of pos = 1 matters
    when 1 is in C; the generic rules below cover both.
    """
    p = b.pos
    if b.point_bad and _pt_in_ivset(p, C):
        return True
    if isinstance(p, Q):
        if b.left_bad and C.limit_from_left(p):
            return True
        if b.right_bad and C.limit_from_right(p):
            return True
    else:
        # an irrational bad point is approached within a fat interval of C
        for iv in C.ivs:
            if iv.is_point():
                continue
            if pt_cmp(p, iv.lo) >= 0 and pt_cmp(p, iv.hi) <= 0:
                inside_l = pt_cmp(p, iv.lo) > 0
                inside_r = pt_cmp(p, iv.hi) < 0
                if (b.left_bad and inside_l) or (b.right_bad and inside_r):
                    return True
    return False
