from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymcalc.errors import NotCharacteristic
from asymcalc.pwfunc import PwFunction, TailComponent
from asymcalc.scaleset import AsymptoticSet
from asymcalc.signs import (_hull_vertices, bad_structure, eventual_sign_on,
                            flat_common_zero, isolated_common_zeros,
                            restr_invertible_bool, restr_zero)
from asymcalc.window import Piecewise


def test_eventual_sign_basics(rho, hat, P, A, full):
    assert eventual_sign_on(rho, full) == "POS"
    assert eventual_sign_on(rho.neg(), full) == "NEG"
    assert eventual_sign_on(hat, P) == "POS"
    assert eventual_sign_on(hat, full) == "NONNEG"
    assert eventual_sign_on(hat.sub(hat), full) == "ZERO"


def test_eventual_sign_mixed(full):
    # w - 3/4 changes sign across the window
    prof = Piecewise.linear_interp(
        [(Q(1, 2), Q(1, 8)), (Q(3, 4), -1), (Q(1), Q(1, 4))])
    x = PwFunction(Q(1, 2), [TailComponent(1, 0, prof)])
    assert eventual_sign_on(x, full) == "MIXED"


def test_deep_component_does_not_flip_sign(rho, negl, full):
    # rho dominates any r > 0 component at small scales
    assert eventual_sign_on(rho.sub(negl), full) == "POS"


def test_deep_profile_decides_inside_the_flat_zero(full):
    # no r = 0 component, so the deep profile decides everywhere, and it is
    # negative at w = 11/16 on every block, between two r = 0 cuts
    g = Piecewise.linear_interp([(Q(1, 2), 0), (Q(9, 16), 1), (Q(5, 8), 1),
                                 (Q(11, 16), -1), (Q(23, 32), 1),
                                 (Q(15, 16), 1), (1, 0)])
    x = PwFunction(Q(1, 2), [TailComponent(0, 1, g)])
    assert x.eval(Q(11, 128)) == Q(-1, 8)
    assert eventual_sign_on(x, full) == "MIXED"
    # on a set that avoids the dip the sign is read off the positive part
    S = AsymptoticSet.orbit_interval(Q(23, 32), Q(15, 16))
    assert eventual_sign_on(x, S) == "POS"


def test_sign_needs_characteristic_set(rho):
    empty = AsymptoticSet(Q(1, 2), __import__(
        "asymcalc.ivset", fromlist=["IvSet"]).IvSet.empty())
    with pytest.raises(NotCharacteristic):
        eventual_sign_on(rho, empty)


def test_restr_zero(hat, negl, P, A, full):
    Z = AsymptoticSet.orbit_interval(Q(17, 32), Q(19, 32))
    assert restr_zero(hat, Z)          # inside the flat zero band
    assert not restr_zero(hat, P)
    assert not restr_zero(hat, full)
    assert restr_zero(negl, full)      # negligible vanishes everywhere


def test_restr_invertible_bool(hat, osc, P, full):
    assert restr_invertible_bool(hat, P)
    assert not restr_invertible_bool(hat, full)
    assert restr_invertible_bool(osc, full)


def test_flat_common_zero(hat):
    fz = flat_common_zero(hat)
    assert fz.contains(Q(9, 16))
    assert not fz.contains(Q(3, 4))


def test_isolated_common_zeros(osc):
    # the cubic profile w(4w^2-6w+3) has no window zeros
    assert isolated_common_zeros(osc) == []


def test_bad_structure_on_vanishing_endpoint(hat):
    flat, bads = bad_structure(hat)
    assert flat.contains(Q(9, 16))


# -- reference: the beta-sampling lower hull that `_hull_vertices` replaced


def _old_hull_vertices(entries):
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


_entry = st.tuples(st.integers(0, 6), st.integers(-8, 8),
                   st.sampled_from([-1, 1]))


@settings(max_examples=400, deadline=None)
@given(st.lists(_entry, min_size=1, max_size=7))
# three points on one hull edge: the middle one stays a vertex
@example([(0, 4, 1), (1, 2, -1), (2, 0, 1)])
# a point above the hull is dropped, one equal in s to a smaller m too
@example([(0, 4, 1), (1, 3, -1), (2, 0, 1), (3, 0, -1)])
# equal (m, s): the first entry's sign is kept
@example([(1, 2, 1), (1, 2, -1), (0, 5, 1)])
def test_hull_vertices_match_beta_sampling(entries):
    assert _hull_vertices(entries) == _old_hull_vertices(entries)
