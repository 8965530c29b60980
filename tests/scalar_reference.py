"""Scalar reference implementation of construct, verify and audit_corners.

A verbatim copy of the per-EdgeRef code the package used before its core
became numpy index arithmetic: diagonals traced edge by edge, labels
written through a write-once accumulator, the bijection counted with a
Counter, weights held in a VertexRef dict, and every corner looked up
through a CornerPos.  It is slow and deliberately left alone, so that
the differential tests can hold the array-native core to it.

Only the module-level imports differ: the shared value types (EdgeRef,
VertexRef, CornerPos, GridDims, Labeling, ConstructionPlan, plan_for)
come from the package.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from torusmagic.construct import (
    EVEN_EVEN,
    ODD_ODD,
    ConstructionPlan,
    PlanShapeMismatch,
    Unsupported,
    UnsupportedShape,
    plan_for,
)
from torusmagic.diagonals import CornerPos, InvalidStartColumn
from torusmagic.grid import EdgeRef, GridDims, VertexRef, dims as make_dims, wrap
from torusmagic.labeling import DomainMismatch, Labeling


# --- diagonals -------------------------------------------------------------

@dataclass(frozen=True)
class Diagonal:
    """One diagonal cycle: 2l edges alternating h_1, v_1, ..., h_l, v_l."""

    index: int
    start_col: int
    edges: tuple[EdgeRef, ...] = field(repr=False)

    def h(self, k: int) -> EdgeRef:
        """k-th horizontal edge, k in 1..l."""
        return self.edges[2 * (k - 1)]

    def v(self, k: int) -> EdgeRef:
        """k-th vertical edge, k in 1..l."""
        return self.edges[2 * k - 1]

    @property
    def length(self) -> int:
        return len(self.edges) // 2

    def corner_edges(self, k: int, kind: str) -> tuple[EdgeRef, EdgeRef]:
        """The two edges forming the k-th corner of the given kind."""
        if kind == "HV":
            return (self.h(k), self.v(k))
        if kind == "VH":
            return (self.v(k - 1) if k > 1 else self.v(self.length), self.h(k))
        raise ValueError(f"kind must be 'HV' or 'VH', got {kind!r}")


def diagonal(j: int, start_col: int, dims: GridDims) -> Diagonal:
    """Trace diagonal j rotated to begin at row 1, column start_col."""
    if not (1 <= j <= dims.d):
        raise InvalidStartColumn(f"diagonal index {j} out of 1..{dims.d}")
    if not (1 <= start_col <= dims.m) or (start_col - j) % dims.d != 0:
        raise InvalidStartColumn(
            f"start column {start_col} invalid for diagonal {j} (need s = j mod {dims.d}, s in 1..{dims.m})"
        )
    edges: list[EdgeRef] = []
    for k in range(1, dims.l + 1):
        row = wrap(k, dims.n)
        edges.append(EdgeRef("H", row, wrap(start_col + k - 1, dims.m)))
        edges.append(EdgeRef("V", row, wrap(start_col + k, dims.m)))
    return Diagonal(index=j, start_col=start_col, edges=tuple(edges))


def decompose(dims: GridDims, starts: list[int] | None = None) -> list[Diagonal]:
    """All d diagonals; starts[j-1] overrides the default start column j."""
    if starts is None:
        starts = list(range(1, dims.d + 1))
    if len(starts) != dims.d:
        raise InvalidStartColumn(f"need {dims.d} start columns, got {len(starts)}")
    return [diagonal(j, starts[j - 1], dims) for j in range(1, dims.d + 1)]


# --- construct -------------------------------------------------------------

def _plain_blocks(j: int, l: int, q: int) -> tuple[list[int], list[int]]:
    h = [(j - 1) * l + k for k in range(1, l + 1)]
    v = [q - (j - 1) * l - k + 1 for k in range(1, l + 1)]
    return h, v


def _rotated_blocks(j: int, l: int, q: int) -> tuple[list[int], list[int]]:
    h = [j * l] + [(j - 1) * l + k - 1 for k in range(2, l + 1)]
    v = [q - (j - 1) * l - k + 1 for k in range(1, l + 1)]
    return h, v


def _shifted_blocks(d: int, l: int, lp: int, q: int) -> tuple[list[int], list[int]]:
    j = d - 1
    h = [(j - 1) * l + k + lp - 1 if k <= lp + 2 else (j - 1) * l + k - lp - 2
         for k in range(1, l + 1)]
    v = [q - (j - 1) * l - k - lp + 1 if k <= lp + 1 else q - (j - 1) * l - k + lp + 2
         for k in range(1, l + 1)]
    return h, v


def _interleaved_blocks(d: int, l: int, lp: int, q: int) -> tuple[list[int], list[int]]:
    h = [d * l]
    h += [(d - 1) * l + 2 * k - 2 if k <= lp + 1 else (d - 2) * l + 2 * k - 2
          for k in range(2, l + 1)]
    v = [q - (d - 1) * l - 2 * k + 2 if k <= lp + 1 else q - (d - 2) * l - 2 * k + 2
         for k in range(1, l + 1)]
    return h, v


class _Writer:
    """Write-once accumulator; formula transcription errors fail immediately."""

    def __init__(self, dims: GridDims) -> None:
        self.dims = dims
        self.h = np.zeros((dims.n, dims.m), dtype=np.int64)
        self.v = np.zeros((dims.n, dims.m), dtype=np.int64)

    def put_diagonal(self, diag: Diagonal, h_labels: list[int], v_labels: list[int]) -> None:
        for k in range(1, diag.length + 1):
            self._put(diag.h(k), h_labels[k - 1])
            self._put(diag.v(k), v_labels[k - 1])

    def _put(self, e, value: int) -> None:
        assert 1 <= value <= self.dims.q, f"label {value} out of range at {e}"
        matrix = self.h if e.orient == "H" else self.v
        assert matrix[e.i - 1, e.j - 1] == 0, f"double write at {e}"
        matrix[e.i - 1, e.j - 1] = value

    def finish(self) -> Labeling:
        assert (self.h > 0).all() and (self.v > 0).all(), "unlabeled edges remain"
        return Labeling(self.dims, self.h, self.v)


def construct_odd_odd(dims: GridDims) -> Labeling:
    if dims.n % 2 == 0 or dims.m % 2 == 0:
        raise UnsupportedShape(f"odd/odd construction needs odd n, m, got {dims.n}x{dims.m}")
    if dims.d == 1:
        raise UnsupportedShape(
            f"odd/odd construction needs gcd(n,m) > 1, got coprime {dims.n}x{dims.m}"
        )
    if dims.n > dims.m:
        return construct_odd_odd(make_dims(dims.m, dims.n)).transpose()

    l, d, q, lp = dims.l, dims.d, dims.q, dims.lp
    assert lp is not None and d % 2 == 1 and d >= 3
    plan = plan_for(ODD_ODD, dims)
    writer = _Writer(dims)
    for diag in decompose(dims, list(plan.start_cols)):
        j = diag.index
        if j == d:
            blocks = _interleaved_blocks(d, l, lp, q)
        elif j == d - 1:
            blocks = _shifted_blocks(d, l, lp, q)
        elif j % 2 == 1:
            blocks = _plain_blocks(j, l, q)
        else:
            blocks = _rotated_blocks(j, l, q)
        writer.put_diagonal(diag, *blocks)
    return writer.finish()


def construct_even_even(dims: GridDims) -> Labeling:
    if dims.n % 2 == 1 or dims.m % 2 == 1:
        raise UnsupportedShape(f"even/even construction needs even n, m, got {dims.n}x{dims.m}")
    if dims.n > dims.m:
        return construct_even_even(make_dims(dims.m, dims.n)).transpose()

    l, d, q = dims.l, dims.d, dims.q
    plan = plan_for(EVEN_EVEN, dims)
    writer = _Writer(dims)
    for diag in decompose(dims, list(plan.start_cols)):
        j = diag.index
        blocks = _plain_blocks(j, l, q) if j % 2 == 1 else _rotated_blocks(j, l, q)
        writer.put_diagonal(diag, *blocks)
    return writer.finish()


def construct(n: int, m: int) -> Labeling | Unsupported:
    d = make_dims(n, m)
    if n % 2 == 1 and m % 2 == 1:
        if math.gcd(n, m) == 1:
            return Unsupported(n, m, reason="coprime odd",
                               suggestion=f"no direct construction; try: search {n} {m}")
        return construct_odd_odd(d)
    if n % 2 == 0 and m % 2 == 0:
        return construct_even_even(d)
    return Unsupported(n, m, reason="mixed parity",
                       suggestion=f"no direct construction; try: search {n} {m}")


@dataclass(frozen=True)
class ExpectedCornerTable:
    dims: GridDims
    plan: ConstructionPlan
    entries: dict[CornerPos, int]

    def __getitem__(self, c: CornerPos) -> int:
        return self.entries[c]


def expected_corner_table(plan: ConstructionPlan, dims: GridDims) -> ExpectedCornerTable:
    if plan != plan_for(plan.variant, dims):
        raise PlanShapeMismatch(f"plan {plan} is not the canonical plan for {dims.n}x{dims.m}")
    base, l, d = dims.q, dims.l, dims.d  # base = 2nm
    hv = {}
    vh = {}
    for j in range(1, d + 1):
        if plan.variant == ODD_ODD:
            lp = dims.lp
            if j == d:
                hv[j] = lambda k: base + l if k == 1 else base
                vh[j] = lambda k, lp=lp: base - l + 2 if k == lp + 2 else base + 2
            elif j == d - 1:
                hv[j] = lambda k, lp=lp: base + l if k == lp + 2 else base
                vh[j] = lambda k: base + 1
            elif j % 2 == 1:
                hv[j] = lambda k: base + 1
                vh[j] = lambda k: base - l + 2 if k == 1 else base + 2
            else:
                hv[j] = lambda k: base + l if k == 1 else base
                vh[j] = lambda k: base + 1
        else:
            if j % 2 == 1:
                hv[j] = lambda k: base + 1
                vh[j] = lambda k: base - l + 2 if k == 1 else base + 2
            else:
                hv[j] = lambda k: base + l if k == 1 else base
                vh[j] = lambda k: base + 1
    entries = {}
    for j in range(1, d + 1):
        for k in range(1, l + 1):
            entries[CornerPos(j, k, "HV")] = hv[j](k)
            entries[CornerPos(j, k, "VH")] = vh[j](k)
    return ExpectedCornerTable(dims=dims, plan=plan, entries=entries)


# --- verify ----------------------------------------------------------------

@dataclass
class VerificationReport:
    is_bijection: bool
    duplicate_or_missing: list[int]
    weights: dict[VertexRef, int]
    constant: int | None
    is_supermagic: bool

    def bad_vertices(self) -> list[VertexRef]:
        if not self.weights:
            return []
        expected = Counter(self.weights.values()).most_common(1)[0][0]
        return [v for v, w in self.weights.items() if w != expected]


@dataclass
class CornerAuditReport:
    mismatches: list[tuple[CornerPos, int, int]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches


def forced_constant(dims: GridDims) -> int:
    return 4 * dims.n * dims.m + 2


def weight_matrix(lab: Labeling) -> np.ndarray:
    h, v = lab.h, lab.v
    return h + np.roll(h, 1, axis=1) + v + np.roll(v, 1, axis=0)


def verify(lab: Labeling) -> VerificationReport:
    d = lab.dims
    shape = (d.n, d.m)
    if lab.h.shape != shape or lab.v.shape != shape:
        raise DomainMismatch(f"matrices must be {shape}")
    if (lab.h < 1).any() or (lab.v < 1).any():
        raise DomainMismatch("labels must be positive integers")

    counts = Counter(int(x) for x in lab.labels())
    offending = sorted(
        {value for value, c in counts.items() if c > 1 or not (1 <= value <= d.q)}
        | {value for value in range(1, d.q + 1) if value not in counts}
    )
    is_bijection = not offending

    w = weight_matrix(lab)
    weights = {VertexRef(i + 1, j + 1): int(w[i, j])
               for i in range(d.n) for j in range(d.m)}
    uniform = len(set(weights.values())) == 1
    constant = next(iter(weights.values())) if uniform else None
    return VerificationReport(
        is_bijection=is_bijection,
        duplicate_or_missing=offending,
        weights=weights,
        constant=constant,
        is_supermagic=is_bijection and constant == forced_constant(d),
    )


def audit_corners(lab: Labeling, plan: ConstructionPlan) -> CornerAuditReport:
    table: ExpectedCornerTable = expected_corner_table(plan, lab.dims)
    report = CornerAuditReport()
    for diag in decompose(lab.dims, list(plan.start_cols)):
        for k in range(1, diag.length + 1):
            for kind in ("HV", "VH"):
                a, b = diag.corner_edges(k, kind)
                pos = CornerPos(diag.index, k, kind)
                actual = lab.label(a) + lab.label(b)
                expected = table[pos]
                if actual != expected:
                    report.mismatches.append((pos, expected, actual))
    return report
