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

Step k of every diagonal lies in row k (mod n), and its columns s+k-1
and s+k (mod m), taken over k = 1..l, are windows of the one periodic
sequence 1, 2, .., m, 1, ..  `_steps` gathers those windows for any set
of start columns at once.  It is the module's one formula for where h_k
and v_k sit: `Diagonal.indices` reads it for one diagonal, and
`diagonal_cells` for a whole decomposition as two (d, l) matrices of
flat cells i*m + j, so the construction and the corner audit address
every diagonal in a fixed number of numpy operations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import EdgeRef, GridDims, TorusMagicError, wrap


class InvalidStartColumn(TorusMagicError):
    """Start column not congruent to the diagonal index mod d (or out of range)."""


@dataclass(frozen=True)
class CornerPos:
    """Position of one corner: diagonal index, step k in 1..l, kind 'HV' or 'VH'."""

    diag: int
    k: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("HV", "VH"):
            raise TorusMagicError(f"kind must be 'HV' or 'VH', got {self.kind!r}")

    def __str__(self) -> str:
        return f"D{self.diag} {self.kind} k={self.k}"


@dataclass(frozen=True)
class Diagonal:
    """One diagonal cycle: 2l edges alternating h_1, v_1, ..., h_l, v_l.

    Diagonal j rotated to begin at row 1, column start_col (s = j mod d),
    held as that closed form."""

    index: int
    start_col: int
    dims: GridDims = field(repr=False)

    def __post_init__(self) -> None:
        # The rotation passes through row 1 at column s as an h-edge start
        # only when s is congruent to j mod d.
        j, s, d = self.index, self.start_col, self.dims
        if not (1 <= j <= d.d):
            raise InvalidStartColumn(f"diagonal index {j} out of 1..{d.d}")
        if not (1 <= s <= d.m) or (s - j) % d.d != 0:
            raise InvalidStartColumn(
                f"start column {s} invalid for diagonal {j} (need s = j mod {d.d}, s in 1..{d.m})"
            )

    def indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The diagonal as 0-based index arrays (rows, h_cols, v_cols) of length l.

        Entry k-1 locates h_k = H(k, s+k-1) at h[rows, h_cols] and
        v_k = V(k, s+k) at v[rows, v_cols], so a whole diagonal is read or
        written with one fancy-indexing operation.  HV corner k sits at
        vertex (rows, v_cols) and VH corner k at (rows, h_cols).
        """
        rows, (h_cols, v_cols) = _steps(self.dims, np.array([self.start_col - 1, self.start_col]))
        return rows, h_cols, v_cols


def _steps(dims: GridDims, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the steps k = 1..l of a diagonal sit, for each 0-based first
    column: the rows k-1 mod n as a length-l vector, and a (len(first), l)
    matrix whose row r holds the columns first[r] + k-1 mod m.

    Each row of columns is a window of the periodic sequence 0, 1, ..,
    m-1, 0, .., gathered at once, so no entry of the matrix is reduced
    mod m.  h_k starts at column s-1 and v_k at column s (0-based)."""
    period = np.arange(int(first.max()) + dims.l) % dims.m
    return np.arange(dims.l) % dims.n, sliding_window_view(period, dims.l)[first]


def diagonal_cells(diagonals: Sequence[Diagonal]) -> tuple[np.ndarray, np.ndarray]:
    """Flat cells i*m + j of every h_k and v_k, as two (len(diagonals), l)
    arrays: entry (r, k-1) locates h_k (v_k) of diagonals[r] in the raveled
    h (v) matrix, where Diagonal.indices puts it for one diagonal."""
    dims = diagonals[0].dims
    first = np.array([diag.start_col for diag in diagonals]) - 1
    rows, cells = _steps(dims, np.concatenate([first, first + 1]))
    cells += rows * dims.m
    return cells[:len(first)], cells[len(first):]


def decompose(dims: GridDims, starts: list[int] | None = None) -> list[Diagonal]:
    """All d diagonals; starts[j-1] overrides the default start column j."""
    if starts is None:
        starts = list(range(1, dims.d + 1))
    if len(starts) != dims.d:
        raise InvalidStartColumn(f"need {dims.d} start columns, got {len(starts)}")
    return [Diagonal(j, starts[j - 1], dims) for j in range(1, dims.d + 1)]


def _crt_step(a: int, b: int, dims: GridDims) -> int:
    # Unique k in 1..l with k = a (mod n) and k = b (mod m); the two
    # residues are compatible mod d by construction of the diagonal index.
    n, m, d = dims.n, dims.m, dims.d
    if (b - a) % d != 0:
        raise TorusMagicError("incompatible residues")
    mp = m // d
    t = ((b - a) // d * pow(n // d, -1, mp)) % mp
    return a + n * t


def diagonal_of_edge(e: EdgeRef, dims: GridDims) -> tuple[int, int, str]:
    """Locate an edge inside the decomposition with canonical starts (s = j).

    Returns (j, k, kind): the edge is h^j_k (kind 'H') or v^j_k (kind 'V')
    of the diagonal that starts at row 1, column j.  An edge off the grid
    raises TorusMagicError.
    """
    if not (1 <= e.i <= dims.n and 1 <= e.j <= dims.m):
        raise TorusMagicError(f"{e} is not an edge of C_{dims.n} x C_{dims.m}")
    if e.orient == "H":
        j = wrap(e.j - e.i + 1, dims.d)
        k = _crt_step(e.i, wrap(e.j - j + 1, dims.m), dims)
    else:
        j = wrap(e.j - e.i, dims.d)
        k = _crt_step(e.i, wrap(e.j - j, dims.m), dims)
    return (j, k, e.orient)
