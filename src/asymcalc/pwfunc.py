"""Self-similar piecewise rational elements on (0, 1].

An element lives on a `Grid` (ratio sigma, anchor c0, refinement D; see
`grid`).  With the window coordinate w in (sigma, 1], its value on block k is

    sum_j  sigma^(s_j k + r_j k (k-1) / 2) * g_j(w)

over the element's tail components (s_j, r_j, g_j), where each profile g_j is
a continuous piecewise rational function on [sigma, 1].  Above c0 the element
is a directly stored piecewise rational "head" in the variable u.  The depth
increments r_j >= 0 make every element grow at most polynomially in 1/u, and
a component with r_j > 0 decays faster than any power of u.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import (ContinuityViolation, IncommensurableRatio, NotModerate,
                     ParseError)
from .grid import Grid, unify
from .polytools import ONE
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
    """A self-similar piecewise rational function on (0, 1].  Its `comps`
    are nonzero, with distinct (s, r), and sorted by (r, s): both
    constructors go through `_canonical_comps`.  `_bad` keeps the
    obstruction structure that `signs.obstruction_on` reads off the
    element on its own ratio, and `_zeros` the window zero set (Z,
    irrational zeros) that `signs.zero_set` reads off it: each None until
    the first such question, then that one read-only structure.  An
    element is never mutated after construction, so a kept structure
    stays the element's own."""

    __slots__ = ("grid", "comps", "head", "_bad", "_zeros")

    def __init__(self, sigma, comps, head=None, c0=Q(1), D=1):
        self.grid = Grid.of(sigma, c0, D)
        self.comps = _canonical_comps(comps)
        self.head = head
        self._bad = self._zeros = None
        self._validate()

    @classmethod
    def on(cls, grid: Grid, comps, head=None) -> "PwFunction":
        """Trusted: profiles on [sigma, 1] matching at the seam, head iff
        c0 < 1, on [c0, 1] and continuous with the tail."""
        x = object.__new__(cls)
        x.grid, x.comps, x.head = grid, _canonical_comps(comps), head
        x._bad = x._zeros = None
        return x

    sigma = property(lambda self: self.grid.sigma)
    c0 = property(lambda self: self.grid.c0)
    D = property(lambda self: self.grid.D)

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
            g = Piecewise.from_poly(sigma, 1, ONE, _monomial(-p))
        return PwFunction(sigma, [TailComponent(p, 0, g)], D=D)

    def eps_power(self, n) -> "PwFunction":
        """epsilon^n = u^(n*D) on this element's grid."""
        return PwFunction.upower(n * self.D, self.sigma,
                                 self.D).lower_anchor(self.grid.j)

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

    def block(self, k: int) -> Piecewise:
        """The tail on block k in the window coordinate: the sum of
        sigma^e(k) * g over the components, on [sigma, 1]."""
        total = None
        for c in self.comps:
            piece = c.g.scale(c.weight(self.sigma, k))
            total = piece if total is None else total.add(piece)
        return Piecewise.zero(self.sigma, Q(1)) if total is None else total

    def eval(self, u) -> Q:
        u = Q(u)
        if not (0 < u <= 1):
            raise ValueError("argument must lie in (0, 1]")
        if u > self.c0:
            return self.head.eval(u)
        k, w = self.grid.block_coord(u)
        return sum((c.weight(self.sigma, k) * c.g.eval(w)
                    for c in self.comps), Q(0))

    def live_comps(self):
        """Components that control polynomial-scale behaviour."""
        return [c for c in self.comps if c.r == 0 and not c.g.is_zero()]

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
        down to sigma^t * c0.  Trusted: `concat` checks the unrolled joins."""
        if t == 0:
            return self
        sg = self.sigma
        parts = []
        for k in range(t - 1, -1, -1):
            a = sg ** k * self.c0
            parts.append(self.block(k).affine_image(1 / a, 0))
        if self.head is not None:
            parts.append(self.head)
        new_head = Piecewise.concat(parts)
        new_comps = []
        for c in self.comps:
            w = c.weight(sg, t)
            new_comps.append(TailComponent(c.s + c.r * t, c.r, c.g.scale(w)))
        return PwFunction.on(self.grid.lower(t), new_comps, new_head)

    def germ(self) -> "PwFunction":
        """The same function near 0, stored on anchor 1 with no head.

        Block k below the anchor c0 = sigma^j is block k + j below 1, so
        the tail component (s, r, g) becomes (s - r*j, r, sigma^e * g) with
        e = r*j*(j+1)/2 - s*j; the result equals x on (0, c0] and is the
        inverse of `lower_anchor(j)` on the tail.  An element of the
        quotient ring is a class modulo negligible functions, and a
        function vanishing on some (0, c0] is negligible, so the germ is
        the same ring element; and two germs `unify` by coarsening the
        ratio alone, never unrolling blocks into a head.
        Trusted: scaling keeps the seam rule."""
        j = self.grid.j
        if j == 0:
            return self
        sg = self.sigma
        comps = []
        for c in self.comps:
            e = c.r * (j * (j + 1) // 2) - c.s * j
            comps.append(TailComponent(c.s - c.r * j, c.r,
                                       c.g.scale(sg ** e) if e else c.g))
        return PwFunction.on(Grid(sg, 0, self.D), comps)

    def coarsen(self, m: int) -> "PwFunction":
        """Rewrite on the ratio sigma^m; trusted, `concat` checks the joins."""
        if m == 1:
            return self
        t, grid = self.grid.coarsen(m)
        if t:
            return self.lower_anchor(t).coarsen(m)
        sg = self.sigma
        new_comps = []
        for c in self.comps:
            if (c.r * (m - 1)) % 2:
                raise IncommensurableRatio(
                    "deep component weight is not expressible on the "
                    f"coarser grid (r={c.r}, m={m})")
            if c.r == 0:
                parts = [c.g.affine_image(sg ** -i, 0).scale(sg ** (c.s * i))
                         for i in range(m - 1, -1, -1)]
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
        return PwFunction.on(grid, new_comps, self.head)

    # -- arithmetic -----------------------------------------------------

    def _binary(self, other, comp_fn, head_fn):
        a, b = unify(self, other)
        head = None
        if a.c0 < 1:
            head = head_fn(a.head, b.head)
        return PwFunction.on(a.grid, comp_fn(a, b), head)

    def add(self, other) -> "PwFunction":
        """Trusted: sums of matching profiles and of heads match."""
        return self._binary(other, lambda a, b: a.comps + b.comps,
                            lambda h, k: h.add(k))

    def sub(self, other) -> "PwFunction":
        return self.add(other.neg())

    def neg(self) -> "PwFunction":
        """Trusted: negation keeps every seam and head condition."""
        return self.scale(-1)

    def scale(self, q) -> "PwFunction":
        """Trusted: a constant factor keeps every seam and head condition."""
        q = Q(q)
        head = self.head.scale(q) if self.head is not None else None
        return PwFunction.on(self.grid,
                             [TailComponent(c.s, c.r, c.g.scale(q))
                              for c in self.comps], head)

    def mul(self, other) -> "PwFunction":
        """Trusted: the seam and head conditions multiply."""
        return self._binary(other, lambda a, b: [
            TailComponent(ca.s + cb.s, ca.r + cb.r, ca.g.mul(cb.g))
            for ca in a.comps for cb in b.comps], lambda h, k: h.mul(k))

    def pow(self, n: int) -> "PwFunction":
        """x^n by square-and-multiply."""
        assert n >= 0
        out = PwFunction.const(1, self.sigma, self.D)
        base = self
        while n:
            if n & 1:
                out = out.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return out

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg

    def equals(self, other) -> bool:
        """Exact equality as functions on (0, 1]."""
        a, b = unify(self, other)
        return a.sub(b).is_zero()

    def equiv(self, other) -> bool:
        """Equality modulo negligible differences."""
        return self.sub(other).is_negligible()

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            **self.grid.to_dict(),
            "comps": [
                {"s": c.s, "r": c.r, "g": _pw_to_list(c.g)}
                for c in self.comps
            ],
            "head": _pw_to_list(self.head) if self.head is not None else None,
        }

    @staticmethod
    def from_dict(d: dict) -> "PwFunction":
        try:
            grid = Grid.from_dict(d)
            comps = [TailComponent(int(c["s"]), int(c["r"]),
                                   _pw_from_list(c["g"]))
                     for c in d["comps"]]
            head = _pw_from_list(d["head"]) if d.get("head") else None
            return PwFunction(grid.sigma, comps, head, grid.c0, grid.D)
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
            raise ParseError(f"malformed element record: {e}") from None


def _monomial(p: int):
    return (0,) * p + (1,)


def _canonical_comps(comps):
    acc = {}
    for c in comps:
        key = (c.s, c.r)
        acc[key] = acc[key].add(c.g) if key in acc else c.g
    out = [TailComponent(s, r, g) for (s, r), g in acc.items()
           if not g.is_zero()]
    out.sort(key=lambda c: (c.r, c.s))
    return tuple(out)


def _pw_to_list(g: Piecewise):
    return [{"lo": str(s.lo), "hi": str(s.hi), "num": [str(c) for c in num],
             "den": [str(c) for c in den]}
            for s in g.segs for num, den in [s.monic()]]


def _pw_from_list(lst):
    segs = []
    for d in lst:
        segs.append(Seg(Q(d["lo"]), Q(d["hi"]),
                        tuple(Q(c) for c in d["num"]),
                        tuple(Q(c) for c in d["den"]) or ONE))
    return Piecewise(segs)
