"""Diagonal decomposition of the torus grid.

A diagonal is a closed cycle alternating horizontal and vertical edges,
stepping one column right after each horizontal edge and one row down
after each vertical edge.  Starting at row 1, column s:

    h_k = H(k, s+k-1)    v_k = V(k, s+k)      (k = 1..l, wrapped)

Each diagonal closes after l = lcm(n,m) steps of each kind, and the
d = gcd(n,m) diagonals partition all 2nm edges.  Within a diagonal the
pair (h_k, v_k) is the k-th HV-corner and (v_{k-1}, h_k) the k-th
VH-corner, with the first VH-corner pairing v_l with h_1 at the start
vertex.  Every vertex of the grid is the HV-corner of exactly one
diagonal and the VH-corner of the next one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import EdgeRef, GridDims, VertexRef, wrap


class InvalidStartColumn(ValueError):
    """Start column not congruent to the diagonal index mod d (or out of range)."""


@dataclass(frozen=True)
class CornerPos:
    """Position of one corner: diagonal index, step k in 1..l, kind 'HV' or 'VH'."""

    diag: int
    k: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("HV", "VH"):
            raise ValueError(f"kind must be 'HV' or 'VH', got {self.kind!r}")

    def __str__(self) -> str:
        return f"D{self.diag} {self.kind} k={self.k}"


@dataclass(frozen=True)
class Diagonal:
    """One diagonal cycle: 2l edges alternating h_1, v_1, ..., h_l, v_l.

    The cycle is held as its closed form (index, start column, grid); the
    EdgeRef tuple is built only when asked for."""

    index: int
    start_col: int
    dims: GridDims = field(repr=False)

    def indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """0-based (rows, h_cols, v_cols); see diagonal_indices."""
        return diagonal_indices(self.index, self.start_col, self.dims)

    @cached_property
    def edges(self) -> tuple[EdgeRef, ...]:
        rows, h_cols, v_cols = (a.tolist() for a in self.indices())
        return tuple(EdgeRef(orient, i + 1, j + 1)
                     for i, hj, vj in zip(rows, h_cols, v_cols)
                     for orient, j in (("H", hj), ("V", vj)))

    def h(self, k: int) -> EdgeRef:
        """k-th horizontal edge, k in 1..l."""
        return self.edges[2 * (k - 1)]

    def v(self, k: int) -> EdgeRef:
        """k-th vertical edge, k in 1..l."""
        return self.edges[2 * k - 1]

    @property
    def length(self) -> int:
        return self.dims.l

    def h_edges(self) -> tuple[EdgeRef, ...]:
        return self.edges[0::2]

    def v_edges(self) -> tuple[EdgeRef, ...]:
        return self.edges[1::2]

    def corner_edges(self, k: int, kind: str) -> tuple[EdgeRef, EdgeRef]:
        """The two edges forming the k-th corner of the given kind."""
        if kind == "HV":
            return (self.h(k), self.v(k))
        if kind == "VH":
            return (self.v(k - 1) if k > 1 else self.v(self.length), self.h(k))
        raise ValueError(f"kind must be 'HV' or 'VH', got {kind!r}")


def _check_start(j: int, start_col: int, dims: GridDims) -> None:
    # The rotation passes through row 1 at column s as an h-edge start only
    # when s is congruent to j mod d.
    if not (1 <= j <= dims.d):
        raise InvalidStartColumn(f"diagonal index {j} out of 1..{dims.d}")
    if not (1 <= start_col <= dims.m) or (start_col - j) % dims.d != 0:
        raise InvalidStartColumn(
            f"start column {start_col} invalid for diagonal {j} (need s = j mod {dims.d}, s in 1..{dims.m})"
        )


def diagonal_indices(j: int, start_col: int, dims: GridDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal j with start column s as 0-based index arrays of length l.

    Entry k-1 of (rows, h_cols, v_cols) locates h_k = H(k, s+k-1) at
    h[rows, h_cols] and v_k = V(k, s+k) at v[rows, v_cols], so a whole
    diagonal is read or written with one fancy-indexing operation.
    """
    _check_start(j, start_col, dims)
    k = np.arange(dims.l)
    h_cols = (k + (start_col - 1)) % dims.m
    return k % dims.n, h_cols, (h_cols + 1) % dims.m


def diagonal(j: int, start_col: int, dims: GridDims) -> Diagonal:
    """Diagonal j rotated to begin at row 1, column start_col (s = j mod d)."""
    _check_start(j, start_col, dims)
    return Diagonal(index=j, start_col=start_col, dims=dims)


def decompose(dims: GridDims, starts: list[int] | None = None) -> list[Diagonal]:
    """All d diagonals; starts[j-1] overrides the default start column j."""
    if starts is None:
        starts = list(range(1, dims.d + 1))
    if len(starts) != dims.d:
        raise InvalidStartColumn(f"need {dims.d} start columns, got {len(starts)}")
    return [diagonal(j, starts[j - 1], dims) for j in range(1, dims.d + 1)]


def _crt_step(a: int, b: int, dims: GridDims) -> int:
    # Unique k in 1..l with k = a (mod n) and k = b (mod m); the two
    # residues are compatible mod d by construction of the diagonal index.
    n, m, d = dims.n, dims.m, dims.d
    if (b - a) % d != 0:
        raise ValueError("incompatible residues")
    mp = m // d
    t = ((b - a) // d * pow(n // d, -1, mp)) % mp
    return a + n * t


def diagonal_of_edge(e: EdgeRef, dims: GridDims) -> tuple[int, int, str]:
    """Locate an edge inside the decomposition with canonical starts (s = j).

    Returns (j, k, kind): the edge is h^j_k (kind 'H') or v^j_k (kind 'V')
    of the diagonal that starts at row 1, column j.
    """
    if e.orient == "H":
        j = wrap(e.j - e.i + 1, dims.d)
        k = _crt_step(e.i, wrap(e.j - j + 1, dims.m), dims)
    else:
        j = wrap(e.j - e.i, dims.d)
        k = _crt_step(e.i, wrap(e.j - j, dims.m), dims)
    return (j, k, e.orient)


def corner_vertex(c: CornerPos, start_col: int, dims: GridDims) -> VertexRef:
    """Vertex shared by the two edges of a corner, for a given start column.

    HV corner k sits at (k, s+k); VH corner k at (k, s+k-1), wrapped.  In
    particular VH corner 1 sits at the diagonal's start vertex (1, s).
    """
    row = wrap(c.k, dims.n)
    if c.kind == "HV":
        return VertexRef(row, wrap(start_col + c.k, dims.m))
    return VertexRef(row, wrap(start_col + c.k - 1, dims.m))
