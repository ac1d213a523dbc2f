"""The geometric block grid shared by elements and asymptotic sets.

A grid has a ratio sigma in (0, 1), an anchor c0 = sigma^j with j >= 0 and a
refinement D (scale exponents are measured against epsilon = u^D).  Below
the anchor, (0, c0] splits into the blocks (sigma^(k+1) c0, sigma^k c0],
k = 0, 1, ...; on block k the window coordinate w = u / (sigma^k c0) ranges
over (sigma, 1].  A self-similar object stores one window description that
every block repeats, and an explicit "head" on (c0, 1].

The anchor is kept as its integer exponent j, so every grid question is
integer arithmetic:
  - lowering the anchor by t blocks (unrolling them into the head) gives
    the exponent j + t;
  - the coarser ratio sigma^m needs an anchor that is a power of sigma^m,
    so coarsening first lowers the anchor by (-j) mod m;
  - two grids with ratios sigma1^m1 = sigma2^m2 (the least such pair) and
    the same D meet on the ratio sigma1^m1 and the lower of the two anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q

from .errors import GridMismatch, IncommensurableRatio


@dataclass(frozen=True, slots=True)
class Grid:
    """Ratio sigma, anchor sigma^j and refinement D.  The constructor trusts
    its arguments; `Grid.of` is the validating entry point."""

    sigma: Q
    j: int = 0
    D: int = 1
    c0: Q = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "c0", self.sigma ** self.j)

    @staticmethod
    def of(sigma, c0=Q(1), D=1) -> "Grid":
        """The grid with ratio sigma and anchor c0, which must be a power of
        sigma."""
        sigma, c0, D = Q(sigma), Q(c0), int(D)
        if not (0 < sigma < 1):
            raise ValueError("ratio must lie in (0,1)")
        if D < 1:
            raise ValueError("grid refinement must be >= 1")
        j = _exponent(c0, sigma)
        if j is None:
            raise IncommensurableRatio(
                f"anchor {c0} is not a power of the ratio {sigma}")
        return Grid(sigma, j, D)

    def lower(self, t: int) -> "Grid":
        """The anchor moved t blocks down."""
        return Grid(self.sigma, self.j + t, self.D)

    def coarsen(self, m: int):
        """(t, grid): the grid with ratio sigma^m, reached after lowering the
        anchor by the least t that makes it a power of sigma^m."""
        t = -self.j % m
        return t, Grid(self.sigma ** m, (self.j + t) // m, self.D)

    def steps_to(self, c0) -> int:
        """The t >= 0 with sigma^t * anchor = c0."""
        n = _exponent(Q(c0), self.sigma)
        if n is None or n < self.j:
            raise IncommensurableRatio(
                f"cannot move anchor from {self.c0} to {c0}")
        return n - self.j

    def common_ratio(self, other: "Grid"):
        """The least (m1, m2) with self.sigma^m1 = other.sigma^m2."""
        if self.D != other.D:
            raise GridMismatch(
                f"different grid refinements {self.D} and {other.D}")
        s1, s2 = self.sigma, other.sigma
        if s1 == s2:
            return 1, 1
        # multiplicative Euclid: divide the smaller ratio by the larger one.
        # On powers g^x, g^y of one g < 1 it runs Euclid on (x, y), and the
        # denominator of g^x, den(g)^x, falls at every step; a step that does
        # not lower the denominator proves the ratios independent.
        a, b = s1, s2
        while a != b:
            if a > b:
                a, b = b, a
            q = a / b
            if q.denominator >= a.denominator:
                raise IncommensurableRatio(
                    f"no common ratio for {s1} and {s2}")
            a = q
        return _exponent(s2, a), _exponent(s1, a)

    def block_coord(self, u):
        """Block index k and window coordinate w = u / (sigma^k c0) in
        (sigma, 1] of a point 0 < u <= c0."""
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

    def to_dict(self) -> dict:
        return {"D": self.D, "sigma": str(self.sigma),
                "anchor": str(self.c0)}

    @staticmethod
    def from_dict(d: dict) -> "Grid":
        return Grid.of(Q(d["sigma"]), Q(d.get("anchor", 1)),
                       int(d.get("D", 1)))


def unify(a, b):
    """Rewrite two objects on grids (elements or sets) onto one common grid:
    the least common ratio and the lower anchor."""
    m1, m2 = a.grid.common_ratio(b.grid)
    a, b = a.coarsen(m1), b.coarsen(m2)
    ja, jb = a.grid.j, b.grid.j
    return a.lower_anchor(max(0, jb - ja)), b.lower_anchor(max(0, ja - jb))


def _log(q: Q) -> float:
    """Natural log of a positive rational of any size."""
    return math.log(q.numerator) - math.log(q.denominator)


def _exponent(c: Q, sigma: Q):
    """The n >= 0 with sigma^n = c, or None.  For c = sigma^n the
    denominators satisfy den(c) = den(sigma)^n, which fixes n."""
    if c == 1:
        return 0
    if not 0 < c < 1:
        return None
    n = round(math.log(c.denominator) / math.log(sigma.denominator))
    return n if n >= 1 and sigma ** n == c else None
