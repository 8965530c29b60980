"""Torus grid C_n x C_m: dimensions and canonical vertex and edge naming.

The graph is the Cartesian product of two cycles: vertices x_{ij} for
i in 1..n (rows) and j in 1..m (columns), with edges between positions
that differ by 1 (mod n) in the row or by 1 (mod m) in the column.

All public indices are 1-based; modular wrap is ((x-1) mod n) + 1, so
formulas can be transcribed without off-by-one adjustments.

Every edge has exactly one canonical name:

    H(i,j) = the horizontal edge x_{i,j} -- x_{i,j+1}
    V(i,j) = the vertical   edge x_{i,j} -- x_{i+1,j}

(second coordinate wrapping mod m, first mod n).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass


class TorusMagicError(ValueError):
    """Bad input to a torusmagic call; every input error the package raises
    is one.  A ValueError, so callers that catch ValueError catch it too."""


class DimensionTooSmall(TorusMagicError):
    """Raised when a cycle length is below 3 (no C_1 or C_2 factors)."""


def wrap(x: int, size: int) -> int:
    """Wrap an integer into the 1-based range 1..size."""
    return (x - 1) % size + 1


@dataclass(frozen=True)
class GridDims:
    """Dimensions of C_n x C_m with the derived diagonal parameters.

    l = lcm(n,m) is the half-length of every diagonal cycle, d = gcd(n,m)
    the number of diagonals, q = 2nm the edge count.  lp = (l-1)/2 is
    defined only when l is odd (equivalently when n and m are both odd).
    """

    n: int
    m: int
    l: int
    d: int
    q: int
    lp: int | None

    def __post_init__(self) -> None:
        if self.l * self.d != self.n * self.m:
            raise TorusMagicError("inconsistent lcm/gcd")


def dims(n: int, m: int) -> GridDims:
    """Build GridDims for C_n x C_m.  Requires integers n, m >= 3."""
    for x in (n, m):
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise TorusMagicError(f"n and m must be integers, got ({n!r}, {m!r})")
    n, m = operator.index(n), operator.index(m)  # a numpy integer would overflow
    if n < 3 or m < 3:
        raise DimensionTooSmall(f"need n, m >= 3, got ({n}, {m})")
    d = math.gcd(n, m)
    l = n * m // d
    lp = (l - 1) // 2 if l % 2 == 1 else None
    return GridDims(n=n, m=m, l=l, d=d, q=2 * n * m, lp=lp)


@dataclass(frozen=True)
class VertexRef:
    """Vertex x_{ij}, i in 1..n, j in 1..m.  Degree is always 4."""

    i: int
    j: int


@dataclass(frozen=True)
class EdgeRef:
    """Canonical name of one torus edge: orientation 'H' or 'V' plus 1-based (i, j)."""

    orient: str
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.orient not in ("H", "V"):
            raise TorusMagicError(f"orient must be 'H' or 'V', got {self.orient!r}")
        for x in (self.i, self.j):
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise TorusMagicError(f"edge indices must be integers, got {x!r}")

    def sort_key(self) -> tuple[int, int, str]:
        """Lexicographic order by (i, j, orient), 'H' before 'V'."""
        return (self.i, self.j, self.orient)

    def __str__(self) -> str:
        return f"{self.orient}({self.i},{self.j})"
