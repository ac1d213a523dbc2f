"""The four benchmark workloads: input generators, timed queries, checks.

Every input is described by a spec, a nested tuple of ints, Fractions and
strings, and built into engine objects through public constructors only.
Item ``i`` of a workload is a pure function of ``(workload, seed, i)``.

The structure of item ``i`` comes from a fixed catalog that does not
depend on the seed.  Per-query costs span four orders of magnitude (one
restriction decision in a few hundred takes seconds), so a run over
seed-drawn structures would measure a different amount of work for each
seed.  The seed instead flips the sign of each element, which changes
neither a verdict nor the work, and the run shuffles the items with the
seed; the order matters to any cache the engine keeps.  A constant
factor other than -1 would change the work: restriction decisions
certify a threshold block whose search depends on the constant.

A workload exposes:

- ``item(i)``: the i-th input bundle (spec plus built objects)
- ``run(item, rec)``: the timed queries, each one call through
  ``rec.call(kind, fn, *args)``
- ``check(item, outs)``: verdict checks, run after the timed phase; they
  return one message per wrong verdict

Generators mirror the traffic of the acceptance criteria named in each
class docstring, but live here so that changes to ``asymcalc.verify``
leave the workloads untouched.
"""

import random
from fractions import Fraction as Q

from asymcalc.afilter import FG, Closure, Interior, filter_member
from asymcalc.errors import PreconditionViolated
from asymcalc.genconst import (GenConstant, extend_invertible, extend_zero,
                               invert_on, restr_invertible, restr_zero)
from asymcalc.ideal import (FgIdeal, closure_member, f_of_I_member,
                            ideal_member, pure_part_member, radical_member,
                            zclosure_member, zpart_member)
from asymcalc.pwfunc import PwFunction, TailComponent
from asymcalc.scaleset import AsymptoticSet, distance_profile, insert_between
from asymcalc.signs import restr_invertible_bool
from asymcalc.verify.oracle import (OracleConfig, oracle_valuation,
                                    oracle_vanishes_on)
from asymcalc.window import Piecewise

SIGMA = Q(1, 2)


# -- specs ------------------------------------------------------------------


def q64(rng):
    return Q(rng.randint(33, 63), 64)


def cuts(rng, n):
    """n distinct sorted grid points strictly inside the window (1/2, 1)."""
    return sorted(Q(k, 64) for k in rng.sample(range(33, 64), n))


def set_spec(rng):
    """A characteristic set: point orbit, interval orbit with random end
    flags, touching tiles, a union of two intervals, or everything."""
    kind = rng.randrange(5)
    if kind == 0:
        return ("point", q64(rng))
    if kind == 1:
        a, b = cuts(rng, 2)
        return ("iv", a, b, rng.random() < 0.8, rng.random() < 0.8)
    if kind == 2:
        a, b = cuts(rng, 2)
        return ("tiles", a, (a + b) / 2, b)
    if kind == 3:
        return ("two", *cuts(rng, 2), *cuts(rng, 2))
    return ("full",)


def element_spec(rng):
    """One to three tail components (s, r) with piecewise linear profiles
    through two random interior nodes; r = 0 profiles satisfy the seam
    rule g(sigma) = sigma^s g(1), deeper ones vanish at both seams."""
    pairs = set()
    for _ in range(rng.randint(1, 3)):
        pairs.add((rng.randint(-2, 3), rng.choice((0, 0, 1, 2))))
    comps = []
    for s, r in sorted(pairs):
        nodes = sorted({SIGMA, Q(1), q64(rng), q64(rng)})
        vals = [Q(rng.randint(-4, 4), rng.choice((1, 2, 4))) for _ in nodes]
        if r == 0:
            if vals[-1] == 0:
                vals[-1] = Q(1)
            vals[0] = SIGMA ** s * vals[-1]
        else:
            vals[0] = vals[-1] = Q(0)
            if not any(vals):
                vals[rng.randrange(1, len(vals) - 1)] = Q(1)
        comps.append((s, r, tuple(zip(nodes, vals))))
    return ("pw", tuple(comps))


def tent_spec(lo, mid, hi, s=0, r=0):
    return ("tent", lo, mid, hi, s, r)


def scaled(c, spec):
    return spec if c == 1 else ("scale", c, spec)


def build_set(spec):
    kind = spec[0]
    if kind == "point":
        return AsymptoticSet.orbit_point(spec[1])
    if kind == "iv":
        return AsymptoticSet.orbit_interval(spec[1], spec[2], lc=spec[3],
                                            hc=spec[4])
    if kind == "tiles":
        _, a, m, b = spec
        return AsymptoticSet.orbit_interval(a, m).union(
            AsymptoticSet.orbit_interval(m, b))
    if kind == "two":
        _, a, b, c, d = spec
        return AsymptoticSet.orbit_interval(a, b).union(
            AsymptoticSet.orbit_interval(c, d))
    if kind == "closure":
        return build_set(spec[1]).closure()
    if kind == "cup":
        return build_set(spec[1]).union(build_set(spec[2]))
    assert kind == "full", spec
    return AsymptoticSet.full()


def build_element(spec):
    kind = spec[0]
    if kind == "tent":
        _, lo, mid, hi, s, r = spec
        prof = Piecewise.linear_interp(
            [(SIGMA, 0), (lo, 0), (mid, 1), (hi, 0), (Q(1), 0)])
        return PwFunction(SIGMA, [TailComponent(s, r, prof)])
    if kind == "pw":
        return PwFunction(SIGMA, [
            TailComponent(s, r, Piecewise.linear_interp(list(pts)))
            for s, r, pts in spec[1]])
    if kind == "dist":
        return distance_profile(build_set(spec[1]))
    if kind == "mul":
        return build_element(spec[1]).mul(build_element(spec[2]))
    if kind == "scale":
        return build_element(spec[2]).scale(spec[1])
    raise ValueError(f"unknown element spec {kind!r}")


class Item:
    """One input bundle: ``spec`` identifies it, ``args`` are the built
    engine objects, ``known`` is an answer known by construction or
    computed exactly in set-up (or None)."""

    __slots__ = ("spec", "args", "known")

    def __init__(self, spec, args, known=None):
        self.spec = spec
        self.args = args
        self.known = known


class Workload:
    name = ""
    kinds = ()

    def __init__(self, seed):
        self.seed = seed

    def rng(self, i):
        """The catalog's generator for item (or pool entry) i."""
        return random.Random(f"perfbench-{self.name}-{i}")

    def sign(self, i):
        """The seed's sign for the elements of item (or pool entry) i."""
        return random.Random(
            f"perfbench-{self.name}-{self.seed}-{i}").choice((1, -1))

    def pool_spec(self):
        """Specs of the inputs shared by all items, for the digest."""
        return ()


# -- restrict ---------------------------------------------------------------


class Restrict(Workload):
    """Restriction decisions on fresh (element, set) pairs, then the
    construction the verdict selects: the traffic of c02 and c03.  One
    item in four is a crafted tent with a known answer."""

    name = "restrict"
    kinds = ("restr_invertible", "restr_zero", "invert_on",
             "extend_invertible", "extend_zero")

    def item(self, i):
        rng = self.rng(i)
        if i % 4 == 0:
            if i % 8 == 0:
                # a tent probed away from its support vanishes there
                c = cuts(rng, 5)
                spec = (tent_spec(c[2], c[3], c[4]), ("iv", c[0], c[1],
                                                      True, True))
                known = "zero"
            else:
                # a tent probed at its core is invertible there
                c = cuts(rng, 3)
                spec = (tent_spec(*c), ("point", c[1]))
                known = "invertible"
        else:
            spec = (element_spec(rng), set_spec(rng))
            known = None
        spec = (scaled(self.sign(i), spec[0]), spec[1])
        return Item(spec, (build_element(spec[0]), build_set(spec[1])), known)

    def run(self, item, rec):
        x, S = item.args
        inv = rec.call("restr_invertible", restr_invertible, x, S)
        if inv.decided and inv.value[0]:
            rec.call("extend_invertible", extend_invertible, x, S)
            rec.call("invert_on", invert_on, x, S)
            return
        zero = rec.call("restr_zero", restr_zero, x, S)
        if zero.decided and zero.value:
            rec.call("extend_zero", extend_zero, x, S)

    def check(self, item, outs):
        x, S = item.args
        bad = []
        inv = outs["restr_invertible"]
        is_inv = inv.decided and inv.value[0]
        if item.known == "invertible" and inv.decided and not is_inv:
            bad.append("tent at its core reported not invertible")
        if item.known == "zero" and inv.decided and is_inv:
            bad.append("tent away from its support reported invertible")
        if is_inv:
            if restr_zero(x, S):
                bad.append("both zero and invertible on a characteristic set")
            T = outs["extend_invertible"]
            if T.decided and not (S.precedes(T.value)
                                  and restr_invertible_bool(x, T.value)):
                bad.append("invertible extension fails to extend")
            y = outs["invert_on"]
            if y.decided:
                one = GenConstant.const(1, x.sigma)
                if not restr_zero((GenConstant(x) * y.value - one).rep, S):
                    bad.append("x * invert_on(x) - 1 does not vanish on S")
            elif isinstance(y.value, PreconditionViolated):
                bad.append("inversion refused an invertible restriction")
            return bad
        zero = outs.get("restr_zero")
        if zero is None or not zero.decided:
            return bad
        if item.known == "zero" and not zero.value:
            bad.append("tent away from its support reported not zero")
        if zero.value:
            T = outs["extend_zero"]
            if T.decided and not (S.precedes(T.value)
                                  and restr_zero(x, T.value)):
                bad.append("zero extension fails to extend")
        return bad


# -- ideal ------------------------------------------------------------------


class Ideal(Workload):
    """Membership queries against a small fixed pool of ideals with a
    bounded pool of probes: the traffic of c05 and c09.  Half the pool
    are square ideals (g^2) of a tent or distance profile g, probed with
    g at a fixed share of the queries: g is outside (g^2) but in its
    closure, and its radical witness has m >= 2."""

    name = "ideal"
    kinds = ("ideal_member", "closure_member", "zclosure_member",
             "pure_part_member", "radical_member", "f_of_I_member")
    n_ideals = 6
    n_probes = 24
    n_sets = 12
    mmax = 3

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng("pool")
        self.ideal_specs = []
        for j in range(self.n_ideals):
            c = cuts(rng, 3)
            if j % 2 == 0:
                # (g^2) for a distance profile or a tent g, as in c09
                g = ("dist", ("iv", c[0], c[2], True, True)) if j % 4 == 0 \
                    else tent_spec(*c)
                self.ideal_specs.append(("square", g))
            else:
                # generators sharing the zero band of a tent, so the ideal
                # is proper by construction
                g = ("mul", element_spec(rng), tent_spec(*c))
                self.ideal_specs.append(
                    ("gens", g, ("mul", element_spec(rng), g)))
        self.ideal_specs = [(kind, scaled(self.sign(f"ideal{j}"), g), *h)
                            for j, (kind, g, *h) in
                            enumerate(self.ideal_specs)]
        self.probe_specs = []
        for j in range(self.n_probes):
            x = tent_spec(*cuts(rng, 3)) if j % 3 == 0 else element_spec(rng)
            self.probe_specs.append(scaled(self.sign(f"probe{j}"), x))
        self.set_specs = [("closure", set_spec(rng))
                          for _ in range(self.n_sets)]
        self.ideals = [self._build_ideal(s) for s in self.ideal_specs]
        self.roots = {j: build_element(s[1])
                      for j, s in enumerate(self.ideal_specs)
                      if s[0] == "square"}
        self.probes = [build_element(s) for s in self.probe_specs]
        self.sets = [build_set(s) for s in self.set_specs]
        self._checked = {}

    def pool_spec(self):
        return (self.ideal_specs, self.probe_specs, self.set_specs)

    @staticmethod
    def _build_ideal(spec):
        if spec[0] == "square":
            g = GenConstant(build_element(spec[1]))
            return FgIdeal([g * g])
        return FgIdeal([build_element(s) for s in spec[1:]])

    def item(self, i):
        rng = self.rng(i)
        kind = self.kinds[i % len(self.kinds)]
        j = rng.randrange(self.n_ideals)
        if kind == "f_of_I_member":
            k = rng.randrange(self.n_sets)
            return Item((kind, "set", k, j), (self.sets[k], self.ideals[j]))
        if (i // len(self.kinds)) % 4 == 0 and j in self.roots:
            return Item((kind, "root", j, j), (self.roots[j], self.ideals[j]),
                        known="root-of-square")
        k = rng.randrange(self.n_probes)
        return Item((kind, "probe", k, j), (self.probes[k], self.ideals[j]))

    def run(self, item, rec):
        kind = item.spec[0]
        a, I = item.args
        if kind == "radical_member":
            rec.call(kind, radical_member, a, I, self.mmax)
        else:
            rec.call(kind, _IDEAL_OPS[kind], a, I)

    def check(self, item, outs):
        kind = item.spec[0]
        a, I = item.args
        out = outs[kind]
        if not out.decided:
            return []
        v = out.value
        # a repeated query is checked once, and must repeat its verdict
        verdict = v[:2] if kind == "radical_member" else \
            v[0] if isinstance(v, tuple) else v
        if item.spec in self._checked:
            return [] if self._checked[item.spec] == verdict else [
                "repeated query changed its verdict"]
        self._checked[item.spec] = verdict
        bad = []
        root = item.known == "root-of-square"
        if kind == "ideal_member":
            if root and v[0]:
                bad.append("g reported inside (g^2)")
            if v[0] and not closure_member(a, I):
                bad.append("ideal member outside the closure")
        elif kind in ("closure_member", "zclosure_member"):
            other = zclosure_member if kind == "closure_member" \
                else closure_member
            if v != other(a, I):
                bad.append("zclosure_member disagrees with closure_member")
            if root and not v:
                bad.append("g reported outside the closure of (g^2)")
        elif kind == "pure_part_member":
            if zpart_member(a, I) != v[0]:
                bad.append("zpart_member disagrees with pure_part_member")
            y = v[1]
            if v[0] and y is not None:
                xg = GenConstant(a)
                if not (xg * y).rep.equiv(xg.rep):
                    bad.append("purity witness fails x = x*y")
                if not ideal_member(y, I)[0]:
                    bad.append("purity witness outside the ideal")
        elif kind == "radical_member":
            ok, m, _ = v
            if ok:
                xg = GenConstant(a)
                if not ideal_member(xg ** m, I)[0]:
                    bad.append("radical witness power outside the ideal")
                if m > 1 and ideal_member(xg ** (m - 1), I)[0]:
                    bad.append("radical witness exponent not minimal")
                if root and m < 2:
                    bad.append("square ideal reported radical at g")
        elif kind == "f_of_I_member":
            # adjoining a member of I leaves the ideal, and so its
            # invertibility filter, unchanged
            g = I.gens[0]
            if f_of_I_member(a, FgIdeal(I.gens + [g * g])) != v:
                bad.append("filter changed by adjoining a member")
        return bad


_IDEAL_OPS = {
    "ideal_member": ideal_member,
    "closure_member": closure_member,
    "zclosure_member": zclosure_member,
    "pure_part_member": pure_part_member,
    "f_of_I_member": f_of_I_member,
}


# -- sets -------------------------------------------------------------------


class Sets(Workload):
    """Set algebra and filter membership: the traffic of c01, c06 and
    c07.  Each item is a pair (S, T), a generated filter and a closed
    probe set."""

    name = "sets"
    kinds = ("precedes", "precedes_dual", "insert_between", "union",
             "intersect", "subset_of", "filter_member_fg",
             "filter_member_interior", "filter_member_closure")

    def item(self, i):
        rng = self.rng(i)
        if i % 2 == 0:
            pair = (set_spec(rng), set_spec(rng))
        else:
            c = cuts(rng, 4)
            pair = (("iv", c[1], c[2], True, True),
                    ("iv", c[0], c[3], False, False))
        base = ("closure", set_spec(rng))
        gens = (base,)
        if rng.random() < 0.4:
            gens = (base, ("closure", ("cup", base, set_spec(rng))))
        probe = ("closure", set_spec(rng))
        spec = (pair, gens, probe)
        S, T = (build_set(s) for s in pair)
        return Item(spec, (S, T, FG([build_set(g) for g in gens]),
                           build_set(probe)))

    def run(self, item, rec):
        S, T, F, U = item.args
        lhs = rec.call("precedes", S.precedes, T)
        rec.call("precedes_dual", _dual_precedes, S, T)
        if lhs.decided and lhs.value and S.is_characteristic():
            rec.call("insert_between", insert_between, S, T)
        rec.call("union", S.union, T)
        rec.call("intersect", S.intersect, T)
        rec.call("subset_of", S.subset_of, T)
        rec.call("filter_member_fg", filter_member, F, U)
        rec.call("filter_member_interior", filter_member, Interior(F), U)
        rec.call("filter_member_closure", filter_member, Closure(F), U)

    def check(self, item, outs):
        S, T, F, U = item.args
        bad = []

        def got(kind):
            out = outs.get(kind)
            return out is not None and out.decided

        if got("precedes") and got("precedes_dual") and \
                outs["precedes"].value != outs["precedes_dual"].value:
            bad.append("complement duality of precedes violated")
        if got("insert_between"):
            M = outs["insert_between"].value
            if not (S.precedes(M) and M.precedes(T)):
                bad.append("insert_between not strictly between")
        if got("union"):
            V = outs["union"].value
            if not (S.subset_of(V) and T.subset_of(V)):
                bad.append("union misses an operand")
        if got("intersect"):
            V = outs["intersect"].value
            if not (V.subset_of(S) and V.subset_of(T)):
                bad.append("intersection leaves an operand")
            if got("subset_of") and \
                    outs["subset_of"].value != V.set_eq(S):
                bad.append("subset_of disagrees with S & T == S")
        if got("filter_member_fg") and got("filter_member_interior") and \
                outs["filter_member_interior"].value and \
                not outs["filter_member_fg"].value:
            bad.append("interior member outside the filter")
        if got("filter_member_fg") and got("filter_member_closure") and \
                outs["filter_member_fg"].value and \
                not outs["filter_member_closure"].value:
            bad.append("filter member outside the closure")
        return bad


def _dual_precedes(S, T):
    return T.complement_like(S).precedes(S.complement_like(T))


# -- oracle -----------------------------------------------------------------


class Oracle(Workload):
    """Numeric corroboration, the traffic of c12: the valuation oracle and
    the vanishing oracle on fresh inputs, each compared with the exact
    answer computed in set-up."""

    name = "oracle"
    kinds = ("oracle_valuation", "oracle_vanishes_on")
    cfg = OracleConfig(depth=400, window=40)

    def item(self, i):
        rng = self.rng(i)
        x_spec = element_spec(rng)
        x = build_element(x_spec)
        if i % 2 == 0:
            return Item(("oracle_valuation", x_spec), (x,), x.valuation())
        s_spec = set_spec(rng)
        S = build_set(s_spec)
        return Item(("oracle_vanishes_on", x_spec, s_spec), (x, S),
                    restr_zero(x, S))

    def run(self, item, rec):
        kind = item.spec[0]
        rec.call(kind, _ORACLE_OPS[kind], *item.args, self.cfg)

    def check(self, item, outs):
        kind = item.spec[0]
        out = outs[kind]
        if not out.decided:
            return []
        v = item.known
        if kind == "oracle_valuation":
            est = out.value
            if v is None:
                agree = est.diverging
            else:
                agree = (not est.diverging
                         and est.lo - 0.05 <= float(v) <= est.hi + 0.05)
            return [] if agree else ["valuation oracle disagrees with exact"]
        if out.value != v:
            return ["vanishing oracle disagrees with restr_zero"]
        return []


_ORACLE_OPS = {
    "oracle_valuation": oracle_valuation,
    "oracle_vanishes_on": oracle_vanishes_on,
}

WORKLOADS = {w.name: w for w in (Restrict, Ideal, Sets, Oracle)}
