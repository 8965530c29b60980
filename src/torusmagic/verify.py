"""Decide whether a labeling is supermagic; audit constructed labelings.

A labeling is supermagic when it is a bijection onto {1..q} and every
vertex weight (sum of the 4 incident edge labels) is the same constant.
Double counting forces that constant: the labels sum to q(q+1)/2, each
label is counted at both endpoints, and there are nm vertices, so
c = q(q+1)/nm = 4nm+2.

Every vertex weight is the sum of the two corner sums the vertex hosts:
the HV sum H(i,j-1) + V(i,j) and the VH sum V(i-1,j) + H(i,j).
`corner_sums` computes both matrices exactly, and `weight_matrix` adds
them.  The same arithmetic over a stack of label rows decides a batch of
labelings at once: `_supermagic_rows`, which the search runs on all the
solutions of an enumeration in one pass.

The corner audit checks the finer decomposition the constructions
guarantee: it gathers every diagonal's HV and VH sums out of those
matrices at once, through the (d, l) cell matrices of `diagonal_cells`,
and compares them with the weights the construction's role table
promises, which are stated apart from its label blocks.  The labeling's
shape fixes the plan those weights come from, so the audit takes no plan.
Corner positions are built only when some sum differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .construct import ExpectedCornerTable, expected_corner_table
from .construct import PlanShapeMismatch  # re-exported: raised by audit_corners
from .diagonals import CornerPos, decompose, diagonal_cells
from .grid import GridDims, VertexRef
from .labeling import Labeling

__all__ = [
    "VerificationReport", "CornerAuditReport", "PlanShapeMismatch",
    "weight_matrix", "verify", "forced_constant", "audit_corners",
]


@dataclass(eq=False)
class VerificationReport:
    """Outcome of a full supermagic check."""

    is_bijection: bool
    duplicate_or_missing: list[int]
    weight_matrix: np.ndarray = field(repr=False)
    constant: int | None
    is_supermagic: bool

    def bad_vertices(self) -> list[VertexRef]:
        """Vertices whose weight differs from the most common weight (all
        violations, not just the first; ties go to the weight seen first
        in row-major order)."""
        flat = self.weight_matrix.ravel()
        values, first, counts = np.unique(flat, return_index=True, return_counts=True)
        tied = counts == counts.max()
        expected = values[tied][np.argmin(first[tied])]
        rows, cols = np.nonzero(self.weight_matrix != expected)
        return [VertexRef(i + 1, j + 1) for i, j in zip(rows.tolist(), cols.tolist())]


@dataclass
class CornerAuditReport:
    """Per-corner comparison of measured vs expected partial weights."""

    mismatches: list[tuple[CornerPos, int, int]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches


def forced_constant(dims: GridDims) -> int:
    """The only possible magic constant for C_n x C_m: 4nm+2."""
    return 4 * dims.n * dims.m + 2


# Four labels up to this sum exactly in int64.
_INT64_SAFE_LABEL = (2**63 - 1) // 4


def _exact_labels(lab: Labeling) -> tuple[np.ndarray, np.ndarray]:
    """h and v in a dtype that sums four labels exactly: int64 when every
    label is at most _INT64_SAFE_LABEL (an int64 labeling is not copied),
    otherwise Python ints in object arrays."""
    h, v = lab.h, lab.v
    if max(int(h.max()), int(v.max())) <= _INT64_SAFE_LABEL:
        return h.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
    return h.astype(object), v.astype(object)


def _corner_sums(h: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the last two axes are the grid's rows and columns; any before them
    # index a stack of labelings
    hv = v.copy()
    hv[..., 1:] += h[..., :-1]
    hv[..., 0] += h[..., -1]
    vh = h.copy()
    vh[..., 1:, :] += v[..., :-1, :]
    vh[..., 0, :] += v[..., -1, :]
    return hv, vh


def corner_sums(lab: Labeling) -> tuple[np.ndarray, np.ndarray]:
    """The two corner sums hosted at every vertex, as (HV, VH) matrices:
    entry (i-1, j-1) of HV is H(i,j-1) + V(i,j), and of VH is
    V(i-1,j) + H(i,j).  Exact, in the dtype of _exact_labels."""
    return _corner_sums(*_exact_labels(lab))


def weight_matrix(lab: Labeling) -> np.ndarray:
    """All vertex weights at once: entry (i-1, j-1) is w(x_{ij}), the sum
    of H(i,j), H(i,j-1), V(i,j) and V(i-1,j): the HV plus the VH corner
    sum hosted at x_{ij}.

    The weights are exact: int64 when every label is at most
    _INT64_SAFE_LABEL, otherwise Python ints in an object array.
    """
    hv, vh = corner_sums(lab)
    hv += vh
    return hv


def _supermagic_rows(dims: GridDims, rows: np.ndarray) -> np.ndarray:
    """Whether each row of a (k, q) int64 stack of labels, laid out as
    `Labeling.labels` lists them, is supermagic: a bijection onto {1..q}
    with every vertex weight 4nm+2.  One boolean per row, from the corner
    sums `verify` adds.  A row whose weights could wrap in int64 holds a
    label above q, so it fails the bijection whatever its weights read."""
    is_bijection = (np.sort(rows, axis=1) == np.arange(1, dims.q + 1)).all(axis=1)
    blocks = rows.reshape(len(rows), 2, dims.n, dims.m)  # H, then V
    hv, vh = _corner_sums(blocks[:, 0], blocks[:, 1])
    hv += vh
    return is_bijection & (hv == forced_constant(dims)).all(axis=(1, 2))


def verify(lab: Labeling) -> VerificationReport:
    """Full supermagic check: bijectivity onto {1..q} plus uniform weights.

    Works on arbitrary positive labelings, so it doubles as the acceptance
    oracle for searched and externally supplied labelings.
    """
    lab.check()  # its arrays may have changed since it was built
    d = lab.dims
    flat = lab.labels()

    high = int(flat.max())
    small = flat if high <= d.q else flat[flat <= d.q]
    # labels() is int64 and bincount counts intp: no copy where intp is
    # int64, and a host with a 32-bit intp refuses int64 uncast
    counts = np.bincount(small.astype(np.intp, copy=False), minlength=d.q + 1)
    # no label is 0, so label 0 heads the list of counts other than 1
    offending = np.flatnonzero(counts != 1)[1:].tolist()
    if high > d.q:
        # labels above q are offending whatever their count
        offending += np.unique(flat[flat > d.q]).tolist()
    is_bijection = not offending

    w = weight_matrix(lab)
    first = int(w.flat[0])
    constant = first if (w == first).all() else None
    # bijection + uniformity already force constant = 4nm+2; the explicit
    # comparison keeps the check independent of that argument
    return VerificationReport(
        is_bijection=is_bijection,
        duplicate_or_missing=offending,
        weight_matrix=w,
        constant=constant,
        is_supermagic=is_bijection and constant == forced_constant(d),
    )


def audit_corners(lab: Labeling) -> CornerAuditReport:
    """Compare every corner's measured partial weight against the expected
    table of the grid's own plan.  Clean for constructed labelings; a
    single label swap shows up as located mismatches, listed by diagonal,
    then step k, then HV before VH.

    The table describes the construction in its native orientation
    (n <= m), and a labeling for n > m is built as the transpose of the
    m x n one, which exchanges corner kinds.  So an n > m labeling is
    audited as its transpose, and its mismatches are reported in that
    orientation."""
    if lab.dims.n > lab.dims.m:
        lab = lab.transpose()
    table: ExpectedCornerTable = expected_corner_table(lab.dims)
    hv, vh = corner_sums(lab)
    # row j-1 of each cell matrix is diagonal j: HV corner k sits at the
    # vertex of v_k, VH corner k at the vertex of h_k
    h_cells, v_cells = diagonal_cells(decompose(lab.dims, list(table.plan.start_cols)))
    hv, vh = hv.ravel()[v_cells], vh.ravel()[h_cells]
    report = CornerAuditReport()
    if np.array_equal(hv, table.hv) and np.array_equal(vh, table.vh):
        return report
    # axis 2 is the kind: HV, then VH
    actual = np.stack([hv, vh], axis=2)
    expected = np.stack([table.hv, table.vh], axis=2)
    for j, k, kind in zip(*(a.tolist() for a in np.nonzero(actual != expected))):
        report.mismatches.append((CornerPos(j + 1, k + 1, ("HV", "VH")[kind]),
                                  int(expected[j, k, kind]), int(actual[j, k, kind])))
    return report
