"""Self-similar piecewise rational elements on (0, 1].

An element is described on a geometric grid with ratio sigma: below the
anchor c0 (a power of sigma), the interval (0, c0] splits into blocks
(sigma^(k+1) c0, sigma^k c0].  With the block coordinate w = u / (sigma^k c0)
ranging over (sigma, 1], the value on block k is

    sum_j  sigma^(s_j k + r_j k (k-1) / 2) * g_j(w)

over the element's tail components (s_j, r_j, g_j), where each profile g_j is
a continuous piecewise rational function on [sigma, 1].  Above c0 the element
is a directly stored piecewise rational "head" in the variable u.  The depth
increments r_j >= 0 make every element grow at most polynomially in 1/u, and
a component with r_j > 0 decays faster than any power of u.

Exponents of the base scale are measured against epsilon = u^D; D is 1
unless a finer grid was requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import (ContinuityViolation, GridMismatch, IncommensurableRatio,
                     NotModerate, ParseError)
from .polytools import ppow, poly
from .window import Piecewise, Seg


@dataclass(frozen=True)
class TailComponent:
    s: int
    r: int
    g: Piecewise

    def __post_init__(self):
        if self.r < 0:
            raise NotModerate(f"depth increment {self.r} < 0")

    def exponent(self, k: int) -> int:
        """The exponent e of the block-k weight sigma^e."""
        return self.s * k + self.r * (k * (k - 1) // 2)

    def weight(self, sigma: Q, k: int) -> Q:
        return Q(sigma) ** self.exponent(k)


class PwFunction:
    """A self-similar piecewise rational function on (0, 1]."""

    __slots__ = ("D", "sigma", "c0", "comps", "head")

    def __init__(self, sigma, comps, head=None, c0=Q(1), D=1, check=True):
        self.sigma = Q(sigma)
        self.c0 = Q(c0)
        self.D = int(D)
        if not (0 < self.sigma < 1):
            raise ValueError("ratio must lie in (0,1)")
        if self.D < 1:
            raise ValueError("grid refinement must be >= 1")
        if check and not _is_sigma_power(self.c0, self.sigma):
            raise IncommensurableRatio(
                f"anchor {self.c0} is not a power of the ratio {self.sigma}")
        self.comps = _canonical_comps(comps)
        self.head = head
        if check:
            self._validate()

    # -- construction helpers -------------------------------------------

    @staticmethod
    def const(c, sigma=Q(1, 2), D=1) -> "PwFunction":
        c = Q(c)
        g = Piecewise.const(Q(sigma), 1, c)
        return PwFunction(sigma, [TailComponent(0, 0, g)], D=D)

    @staticmethod
    def zero(sigma=Q(1, 2), D=1) -> "PwFunction":
        return PwFunction(sigma, [], D=D)

    @staticmethod
    def upower(p, sigma=Q(1, 2), D=1) -> "PwFunction":
        """The monomial u^p (p may be negative)."""
        sigma = Q(sigma)
        p = int(p)
        if p >= 0:
            g = Piecewise.from_poly(sigma, 1, _monomial(p))
        else:
            g = Piecewise.from_poly(sigma, 1, poly(1), _monomial(-p))
        return PwFunction(sigma, [TailComponent(p, 0, g)], D=D)

    @staticmethod
    def scale_param(sigma=Q(1, 2), D=1) -> "PwFunction":
        """The identity u (the canonical infinitesimal scale)."""
        return PwFunction.upower(1, sigma, D)

    def eps_power(self, n) -> "PwFunction":
        """epsilon^n = u^(n*D) on this element's grid."""
        x = PwFunction.upower(n * self.D, self.sigma, self.D)
        return x if self.c0 == 1 else x.lower_anchor_to(self.c0)

    # -- validation -----------------------------------------------------

    def _validate(self):
        sg = self.sigma
        for c in self.comps:
            if c.g.lo != sg or c.g.hi != 1:
                raise ValueError("profile domain must be [sigma, 1]")
            v_lo, v_hi = c.g.eval(sg), c.g.eval(1)
            if c.r == 0:
                if v_lo != sg ** c.s * v_hi:
                    raise ContinuityViolation(
                        f"profile fails matching at the block seam: "
                        f"g({sg}) = {v_lo} != {sg}^{c.s} * g(1) = "
                        f"{sg ** c.s * v_hi}")
            else:
                if v_lo != 0 or v_hi != 0:
                    raise ContinuityViolation(
                        "deep components must vanish at both seam points")
        if self.c0 == 1:
            if self.head is not None:
                raise ValueError("head is only allowed when the anchor is < 1")
        else:
            if self.head is None:
                raise ValueError("anchor < 1 requires a head")
            if self.head.lo != self.c0 or self.head.hi != 1:
                raise ValueError("head domain must be [anchor, 1]")
            tail_top = sum((c.g.eval(1) for c in self.comps), Q(0))
            if self.head.eval(self.c0) != tail_top:
                raise ContinuityViolation(
                    f"head({self.c0}) = {self.head.eval(self.c0)} does not "
                    f"match the tail limit {tail_top}")

    # -- basic queries --------------------------------------------------

    def __repr__(self):
        return (f"PwFunction(sigma={self.sigma}, c0={self.c0}, "
                f"comps={[(c.s, c.r) for c in self.comps]}, "
                f"head={'yes' if self.head else 'no'})")

    def is_zero(self) -> bool:
        return not self.comps and (self.head is None or self.head.is_zero())

    def block_of(self, u) -> int:
        """Index k with u in (sigma^(k+1) c0, sigma^k c0]; u <= c0."""
        return self.block_coord(u)[0]

    def block_coord(self, u):
        """Block index k and window coordinate w = u / (sigma^k c0) in
        (sigma, 1] of a point u <= c0."""
        u = Q(u)
        assert 0 < u <= self.c0
        sg = self.sigma
        # estimate k = floor(log(u / c0) / log(sigma)) from the logs of
        # numerators and denominators (u may lie below the smallest
        # double), then settle the block edges exactly
        k = max(0, math.floor((_log(u) - _log(self.c0)) / _log(sg)))
        top = sg ** k * self.c0
        while u > top:
            k -= 1
            top /= sg
        while u <= top * sg:
            k += 1
            top *= sg
        return k, u / top

    def eval(self, u) -> Q:
        u = Q(u)
        if not (0 < u <= 1):
            raise ValueError("argument must lie in (0, 1]")
        if u > self.c0:
            return self.head.eval(u)
        k, w = self.block_coord(u)
        return sum((c.weight(self.sigma, k) * c.g.eval(w)
                    for c in self.comps), Q(0))

    def live_comps(self):
        """Components that control polynomial-scale behaviour."""
        return [c for c in self.comps if c.r == 0 and not c.g.is_zero()]

    def deep_comps(self):
        return [c for c in self.comps if c.r > 0 and not c.g.is_zero()]

    def valuation(self):
        """Sharp scale order sup{a : |x| <= eps^a near 0}; None means
        +infinity (the element is negligible)."""
        live = self.live_comps()
        if not live:
            return None
        return Q(min(c.s for c in live), self.D)

    def is_negligible(self) -> bool:
        return not self.live_comps()

    # -- grid rewriting -------------------------------------------------

    def lower_anchor(self, t: int) -> "PwFunction":
        """Unroll the first t tail blocks into the head, moving the anchor
        down to sigma^t * c0."""
        if t == 0:
            return self
        sg = self.sigma
        parts = []
        for k in range(t - 1, -1, -1):
            a = sg ** k * self.c0
            block = None
            for c in self.comps:
                piece = c.g.affine_image(1 / a, 0).scale(c.weight(sg, k))
                block = piece if block is None else block.add(piece)
            if block is None:
                block = Piecewise.zero(sg * a, a)
            parts.append(block)
        if self.head is not None:
            parts.append(self.head)
        new_head = Piecewise.concat(parts)
        new_comps = []
        for c in self.comps:
            w = c.weight(sg, t)
            new_comps.append(TailComponent(c.s + c.r * t, c.r, c.g.scale(w)))
        return PwFunction(sg, new_comps, new_head, c0=sg ** t * self.c0,
                          D=self.D)

    def lower_anchor_to(self, new_c0) -> "PwFunction":
        new_c0 = Q(new_c0)
        t = 0
        c = self.c0
        while c > new_c0:
            c *= self.sigma
            t += 1
        if c != new_c0:
            raise IncommensurableRatio(
                f"cannot move anchor from {self.c0} to {new_c0}")
        return self.lower_anchor(t)

    def coarsen(self, m: int) -> "PwFunction":
        """Rewrite on the coarser ratio sigma^m."""
        if m == 1:
            return self
        sg = self.sigma
        tau = sg ** m
        # the anchor can always be lowered until it fits the coarse ratio
        t = 0
        while t < m and not _is_sigma_power(self.c0 * sg ** t, tau):
            t += 1
        if t < m and t:
            return self.lower_anchor(t).coarsen(m)
        if not _is_sigma_power(self.c0, tau):
            raise IncommensurableRatio(
                f"anchor {self.c0} is not a power of the coarse ratio {tau}")
        new_comps = []
        for c in self.comps:
            if (c.r * (m - 1)) % 2:
                raise IncommensurableRatio(
                    "deep component weight is not expressible on the "
                    f"coarser grid (r={c.r}, m={m})")
            if c.r == 0:
                parts = []
                for i in range(m - 1, -1, -1):
                    scaled = c.g.affine_image(sg ** (-i), 0).scale(sg ** (c.s * i))
                    parts.append(scaled)
                new_comps.append(TailComponent(c.s, 0, Piecewise.concat(parts)))
            else:
                half = (c.r * (m - 1)) // 2
                for i in range(m):
                    s_i = c.s + c.r * i + half
                    w_i = c.weight(sg, i)
                    pieces = []
                    if i < m - 1:
                        pieces.append(Piecewise.zero(sg ** m, sg ** (i + 1)))
                    pieces.append(
                        c.g.affine_image(sg ** (-i), 0).scale(w_i))
                    if i > 0:
                        pieces.append(Piecewise.zero(sg ** i, 1))
                    new_comps.append(
                        TailComponent(s_i, c.r * m, Piecewise.concat(pieces)))
        return PwFunction(tau, new_comps, self.head, c0=self.c0, D=self.D)

    # -- arithmetic -----------------------------------------------------

    def _binary(self, other, comp_fn, head_fn):
        a, b = unify(self, other)
        head = None
        if a.c0 < 1:
            head = head_fn(a.head, b.head)
        comps = comp_fn(a, b)
        return PwFunction(a.sigma, comps, head, c0=a.c0, D=a.D)

    def add(self, other) -> "PwFunction":
        def comps(a, b):
            acc = {}
            for c in list(a.comps) + list(b.comps):
                key = (c.s, c.r)
                acc[key] = acc[key].add(c.g) if key in acc else c.g
            return [TailComponent(s, r, g) for (s, r), g in acc.items()]
        return self._binary(other, comps, lambda h, k: h.add(k))

    def sub(self, other) -> "PwFunction":
        return self.add(other.neg())

    def neg(self) -> "PwFunction":
        head = self.head.neg() if self.head is not None else None
        return PwFunction(self.sigma,
                          [TailComponent(c.s, c.r, c.g.neg())
                           for c in self.comps],
                          head, c0=self.c0, D=self.D, check=False)

    def scale(self, q) -> "PwFunction":
        q = Q(q)
        head = self.head.scale(q) if self.head is not None else None
        return PwFunction(self.sigma,
                          [TailComponent(c.s, c.r, c.g.scale(q))
                           for c in self.comps],
                          head, c0=self.c0, D=self.D, check=False)

    def mul(self, other) -> "PwFunction":
        def comps(a, b):
            acc = {}
            for ca in a.comps:
                for cb in b.comps:
                    key = (ca.s + cb.s, ca.r + cb.r)
                    g = ca.g.mul(cb.g)
                    acc[key] = acc[key].add(g) if key in acc else g
            return [TailComponent(s, r, g) for (s, r), g in acc.items()]
        return self._binary(other, comps, lambda h, k: h.mul(k))

    def pow(self, n: int) -> "PwFunction":
        assert n >= 0
        out = PwFunction.const(1, self.sigma, self.D)
        base = self
        for _ in range(n):
            out = out.mul(base)
        return out

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg

    def equals(self, other) -> bool:
        """Exact equality as functions on (0, 1]."""
        a, b = unify(self, other)
        return a.diff_is_zero(b)

    def diff_is_zero(self, other) -> bool:
        return self.sub(other).is_zero()

    def equiv(self, other) -> bool:
        """Equality modulo negligible differences."""
        return self.sub(other).is_negligible()

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "D": self.D,
            "sigma": str(self.sigma),
            "anchor": str(self.c0),
            "comps": [
                {"s": c.s, "r": c.r, "g": _pw_to_list(c.g)}
                for c in self.comps
            ],
            "head": _pw_to_list(self.head) if self.head is not None else None,
        }

    @staticmethod
    def from_dict(d: dict) -> "PwFunction":
        try:
            sigma = Q(d["sigma"])
            c0 = Q(d.get("anchor", 1))
            D = int(d.get("D", 1))
            comps = [TailComponent(int(c["s"]), int(c["r"]),
                                   _pw_from_list(c["g"]))
                     for c in d["comps"]]
            head = _pw_from_list(d["head"]) if d.get("head") else None
        except (KeyError, ValueError, TypeError) as e:
            raise ParseError(f"malformed element record: {e}") from None
        return PwFunction(sigma, comps, head, c0=c0, D=D)


def dominance_data(x: PwFunction):
    """Per-component scale data, sorted by dominance: a list of
    (r, s, nonzero, zeros) with zeros the window zero set of the profile
    (flat parts plus rational isolated zeros)."""
    from .ivset import IvSet
    out = []
    for c in x.comps:
        if c.g.is_zero():
            continue
        zeros = c.g.flat_zero()
        for p in c.g.isolated_zeros():
            if isinstance(p, Q):
                zeros = zeros.union(IvSet.point(p))
        out.append((c.r, c.s, True, zeros))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def _log(q: Q) -> float:
    """Natural log of a positive rational of any size."""
    return math.log(q.numerator) - math.log(q.denominator)


def _monomial(p: int):
    return (Q(0),) * p + (Q(1),)


def _is_sigma_power(c0: Q, sigma: Q) -> bool:
    c0 = Q(c0)
    if c0 == 1:
        return True
    while c0 < 1:
        if c0 == sigma:
            return True
        c0 /= sigma
        if c0 > 1:
            return False
    return False


def _canonical_comps(comps):
    acc = {}
    for c in comps:
        key = (c.s, c.r)
        acc[key] = acc[key].add(c.g) if key in acc else c.g
    out = [TailComponent(s, r, g) for (s, r), g in acc.items()
           if not g.is_zero()]
    out.sort(key=lambda c: (c.r, c.s))
    return tuple(out)


def unify(x: PwFunction, y: PwFunction):
    """Rewrite two elements onto a common (ratio, anchor) grid."""
    if x.D != y.D:
        raise GridMismatch(f"different grid refinements {x.D} and {y.D}")
    if x.sigma != y.sigma:
        m1, m2 = _common_power(x.sigma, y.sigma)
        tau = x.sigma ** m1
        x = _align_anchor_for(x, m1).coarsen(m1)
        y = _align_anchor_for(y, m2).coarsen(m2)
        assert x.sigma == tau == y.sigma
    if x.c0 != y.c0:
        if x.c0 > y.c0:
            x = x.lower_anchor_to(y.c0)
        else:
            y = y.lower_anchor_to(x.c0)
    return x, y


def _align_anchor_for(x: PwFunction, m: int) -> PwFunction:
    """Lower the anchor until it is a power of sigma^m."""
    t = 0
    c = x.c0
    while not _is_sigma_power(c, x.sigma ** m):
        c *= x.sigma
        t += 1
        if t > 64:
            raise IncommensurableRatio("anchor alignment failed")
    return x.lower_anchor(t)


def _common_power(s1: Q, s2: Q):
    for total in range(2, 26):
        for m1 in range(1, total):
            m2 = total - m1
            if s1 ** m1 == s2 ** m2:
                return m1, m2
    raise IncommensurableRatio(f"no common ratio for {s1} and {s2}")


def _pw_to_list(g: Piecewise):
    return [{"lo": str(s.lo), "hi": str(s.hi),
             "num": [str(c) for c in s.num],
             "den": [str(c) for c in s.den]}
            for s in g.segs]


def _pw_from_list(lst):
    segs = []
    for d in lst:
        segs.append(Seg(Q(d["lo"]), Q(d["hi"]),
                        tuple(Q(c) for c in d["num"]),
                        tuple(Q(c) for c in d["den"]) or (Q(1),)))
    return Piecewise(segs)
