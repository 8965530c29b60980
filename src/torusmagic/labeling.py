"""Edge labelings of the torus grid, stored as a pair of n x m matrices.

Entry (i,j) of the horizontal matrix is the label of H(i,j); likewise for
the vertical matrix and V(i,j).  A labeling is total by construction: all
q = 2nm entries are positive integers.  Whether it is supermagic
(a bijection onto {1..q} with uniform vertex weight) is decided by the
verifier, never assumed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridDims, TorusMagicError


class DomainMismatch(TorusMagicError):
    """Labeling domain differs from the grid's edge set."""


@dataclass(frozen=True)
class Labeling:
    """Total labeling of C_n x C_m: a positive integer in every cell of h and v."""

    dims: GridDims
    h: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        """Raise DomainMismatch unless h and v are (n, m) integer arrays of
        positive labels below 2**63; `verify` checks again, as they can change."""
        if not (isinstance(self.h, np.ndarray) and isinstance(self.v, np.ndarray)):
            raise DomainMismatch(f"h and v must be numpy arrays, got {type(self.h).__name__} "
                                 f"and {type(self.v).__name__}")
        shape = (self.dims.n, self.dims.m)
        if self.h.shape != shape or self.v.shape != shape:
            raise DomainMismatch(
                f"matrices must be {shape}, got {self.h.shape} and {self.v.shape}"
            )
        # bools, floats and objects would encode as text decode refuses
        if self.h.dtype.kind not in "iu" or self.v.dtype.kind not in "iu":
            raise DomainMismatch(
                f"labels must have an integer dtype, got {self.h.dtype} and {self.v.dtype}"
            )
        if self.h.min() < 1 or self.v.min() < 1:
            raise DomainMismatch("labels must be positive integers")
        # decode refuses labels of 2**63 and more, which only uint64 holds
        for matrix in (self.h, self.v):
            if matrix.dtype == np.uint64 and matrix.max() >= np.uint64(2**63):
                raise DomainMismatch(f"labels must be below 2**63, got {int(matrix.max())}")

    def labels(self) -> np.ndarray:
        """All q labels as a flat int64 array (H block then V block,
        row-major).  Every label is below 2**63, so int64 holds each one
        exactly, where numpy would join int64 and uint64 blocks as float64."""
        return np.concatenate([self.h.ravel(), self.v.ravel()], dtype=np.int64)

    def transpose(self) -> "Labeling":
        """The same labeling on C_m x C_n: rows and columns swap roles,
        so horizontal and vertical matrices exchange (transposed)."""
        return Labeling(GridDims(self.dims.m, self.dims.n),
                        self.v.T.copy(), self.h.T.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return (self.dims == other.dims
                and np.array_equal(self.h, other.h)
                and np.array_equal(self.v, other.v))
