"""Scalar reference implementation of construct, verify, audit_corners,
the JSON document codec and the figure renderer.

A verbatim copy of the per-EdgeRef code the package used before its core
became numpy index arithmetic: diagonals traced edge by edge, labels
written through a write-once accumulator, the bijection counted with a
Counter, weights held in a VertexRef dict, and every corner looked up
through a CornerPos.  The codec and the renderer are the per-edge
versions the package used before they went row-wise: matrices decoded
and checked cell by cell, numpy scalars converted one at a time, and
figures drawn by walking all_edges/all_vertices with endpoints and
label.  It is slow and deliberately left alone, so that the
differential tests can hold the package to it.

The search engine is the recursive one the package used before its
engine became an iterative loop over a bitset pool: `_dfs` recursion,
a `used[]` list scanned for the extreme labels and for pairs, and
`_set`/`_undo_to` method calls per edge.  Its solutions are checked with
this module's scalar `verify`.

It owns the per-edge grid helpers the package no longer has, which the
tests also use as oracles: `H`, `V`, `all_vertices`, `all_edges`,
`incident_edges`, `endpoints(e, dims)`, `label(lab, e)` and
`swapped(lab, e1, e2)`.  `UnsupportedShape` is defined here too, and
`_corner_sums` adds Python ints, so that it stays exact for labels of
2**62 and more.

Only the shared value types come from the package: EdgeRef, VertexRef,
GridDims with `dims` and `wrap`, CornerPos, Labeling, ConstructionPlan
with the ODD_ODD variant, `plan_for(dims)` for the plan a grid takes,
`Unsupported`, RenderSpec, the error classes, and the search's config,
outcome and restart helpers.  Unlike the package's, this module's
`expected_corner_table(plan, dims)` and `audit_corners(lab, plan)` still
take the plan, and refuse any plan other than `plan_for(dims)`.
"""

from __future__ import annotations

import colorsys
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from torusmagic.construct import (
    ODD_ODD,
    ConstructionPlan,
    PlanShapeMismatch,
    Unsupported,
    plan_for,
)
from torusmagic.diagonals import CornerPos, InvalidStartColumn
from torusmagic.grid import (
    EdgeRef,
    GridDims,
    TorusMagicError,
    VertexRef,
    dims as make_dims,
    wrap,
)
from torusmagic.labeling import DomainMismatch, Labeling
from torusmagic.render import RenderSpec
from torusmagic.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    _LUBY_UNIT,
    SearchConfig,
    SearchOutcome,
    _derived_seed,
    _luby,
    _pins,
)
from torusmagic.serialize import ParseError, ShapeError


# --- grid ------------------------------------------------------------------

def H(i: int, j: int) -> EdgeRef:
    return EdgeRef("H", i, j)


def V(i: int, j: int) -> EdgeRef:
    return EdgeRef("V", i, j)


def all_vertices(dims: GridDims):
    """All nm vertices in row-major order."""
    for i in range(1, dims.n + 1):
        for j in range(1, dims.m + 1):
            yield VertexRef(i, j)


def all_edges(dims: GridDims):
    """All q edges: the horizontal block row-major, then the vertical block."""
    for i in range(1, dims.n + 1):
        for j in range(1, dims.m + 1):
            yield EdgeRef("H", i, j)
    for i in range(1, dims.n + 1):
        for j in range(1, dims.m + 1):
            yield EdgeRef("V", i, j)


def incident_edges(v: VertexRef, dims: GridDims) -> set[EdgeRef]:
    """The 4 canonical edges at vertex x_{ij}.

    Two horizontal (toward columns j-1 and j+1) and two vertical (toward
    rows i-1 and i+1): H(i,j), H(i,j-1), V(i,j), V(i-1,j), wrapping mod m/n.
    """
    if not (1 <= v.i <= dims.n and 1 <= v.j <= dims.m):
        raise TorusMagicError(f"vertex {v} out of range for C_{dims.n} x C_{dims.m}")
    return {
        EdgeRef("H", v.i, v.j),
        EdgeRef("H", v.i, wrap(v.j - 1, dims.m)),
        EdgeRef("V", v.i, v.j),
        EdgeRef("V", wrap(v.i - 1, dims.n), v.j),
    }


def endpoints(e: EdgeRef, dims: GridDims) -> tuple[VertexRef, VertexRef]:
    """The two vertices of an edge, in trace order."""
    if e.orient == "H":
        return (VertexRef(e.i, e.j),
                VertexRef(e.i, wrap(e.j + 1, dims.m)))
    return (VertexRef(e.i, e.j),
            VertexRef(wrap(e.i + 1, dims.n), e.j))


def label(lab: Labeling, e: EdgeRef) -> int:
    matrix = lab.h if e.orient == "H" else lab.v
    return int(matrix[e.i - 1, e.j - 1])


def swapped(lab: Labeling, e1: EdgeRef, e2: EdgeRef) -> Labeling:
    """Copy with the labels of two edges exchanged (for perturbation tests)."""
    h, v = lab.h.copy(), lab.v.copy()

    def put(e: EdgeRef, value: int) -> None:
        (h if e.orient == "H" else v)[e.i - 1, e.j - 1] = value

    l1, l2 = label(lab, e1), label(lab, e2)
    put(e1, l2)
    put(e2, l1)
    return Labeling(lab.dims, h, v)


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

class UnsupportedShape(TorusMagicError):
    """Grid shape outside what the direct constructions cover."""


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
    plan = plan_for(dims)
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
    plan = plan_for(dims)
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
    if plan != plan_for(dims):
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
                actual = label(lab, a) + label(lab, b)
                expected = table[pos]
                if actual != expected:
                    report.mismatches.append((pos, expected, actual))
    return report


# --- serialize -------------------------------------------------------------

def _matrix_rows(matrix: np.ndarray) -> str:
    rows = [json.dumps([int(x) for x in row]) for row in matrix]
    return "[\n    " + ",\n    ".join(rows) + "\n  ]"


def encode(lab: Labeling, metadata: Mapping[str, object] | None = None) -> str:
    """Serialize to the canonical JSON document (byte-stable across runs)."""
    parts = [
        f'  "n": {lab.dims.n}',
        f'  "m": {lab.dims.m}',
        f'  "horizontal": {_matrix_rows(lab.h)}',
        f'  "vertical": {_matrix_rows(lab.v)}',
    ]
    if metadata:
        parts.append(f'  "metadata": {json.dumps(dict(metadata), sort_keys=True)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def _require_int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _decode_json(text: str) -> Labeling:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("n", "m", "horizontal", "vertical"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    n = _require_int(doc["n"], "n")
    m = _require_int(doc["m"], "m")
    d = make_dims(n, m)

    def matrix(key: str) -> np.ndarray:
        rows = doc[key]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ParseError(f"{key}: expected a list of rows")
        if len(rows) != n or any(len(r) != m for r in rows):
            raise ShapeError(f"{key}: expected {n} rows x {m} columns")
        out = np.zeros((n, m), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                value = _require_int(value, f"{key}[{i + 1}][{j + 1}]")
                if value < 1:
                    raise ValueError(f"{key}[{i + 1}][{j + 1}]: labels must be positive, got {value}")
                out[i, j] = value
        return out

    return Labeling(d, matrix("horizontal"), matrix("vertical"))


# --- render ----------------------------------------------------------------

def _palette(d: int) -> list[str]:
    colors = []
    for idx in range(d):
        r, g, b = colorsys.hls_to_rgb(idx / d, 0.42, 0.72)
        colors.append(f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}")
    return colors


def _diagonal_colors(dims: GridDims) -> tuple[np.ndarray, np.ndarray]:
    """0-based diagonal index of every edge, as (H, V) matrices.

    The diagonal through H(i,j) is (j-i) mod d + 1 and the one through
    V(i,j) is (j-i-1) mod d + 1: the step along the diagonal plays no part.
    """
    rows = np.arange(dims.n)[:, None]
    cols = np.arange(dims.m)[None, :]
    return (cols - rows) % dims.d, (cols - rows - 1) % dims.d


def _edge_colors(dims: GridDims) -> dict[str, list[list[str]]]:
    """Per-edge diagonal colour, keyed by orientation then 0-based (i, j)."""
    palette = _palette(dims.d)
    h_idx, v_idx = _diagonal_colors(dims)
    return {"H": [[palette[c] for c in row] for row in h_idx.tolist()],
            "V": [[palette[c] for c in row] for row in v_idx.tolist()]}


def _corner_sums(lab: Labeling, i: int, j: int) -> tuple[int, int]:
    # HV corner at (i,j): H(i,j-1) + V(i,j); VH corner: V(i-1,j) + H(i,j)
    d = lab.dims
    hv = int(lab.h[i - 1, wrap(j - 1, d.m) - 1]) + int(lab.v[i - 1, j - 1])
    vh = int(lab.v[wrap(i - 1, d.n) - 1, j - 1]) + int(lab.h[i - 1, j - 1])
    return hv, vh


def render(lab: Labeling, spec: RenderSpec | None = None) -> str:
    """Figure text for a total labeling, per the render spec."""
    spec = spec or RenderSpec()
    if spec.format == "dot":
        return _render_dot(lab, spec)
    return _render_svg(lab, spec)


def _render_dot(lab: Labeling, spec: RenderSpec) -> str:
    d = lab.dims
    colors = _edge_colors(d) if spec.highlight_diagonals else None
    weights = weight_matrix(lab) if spec.annotate == "weights" else None
    lines = [f"graph torus_{d.n}x{d.m} {{"]
    lines.append("  layout=neato;")
    lines.append('  node [shape=circle, fontsize=10];')
    lines.append("  edge [fontsize=9];")
    for v in all_vertices(d):
        name = f"x_{v.i}_{v.j}"
        attrs = [f'pos="{v.j},{d.n - v.i}!"']
        if spec.annotate == "weights":
            attrs.append(f'label="{name}\\n{int(weights[v.i - 1, v.j - 1])}"')
        elif spec.annotate == "corners":
            hv, vh = _corner_sums(lab, v.i, v.j)
            attrs.append(f'label="{name}\\nHV={hv}\\nVH={vh}"')
        lines.append(f"  {name} [{', '.join(attrs)}];")
    for e in all_edges(d):
        a, b = endpoints(e, d)
        attrs = [f'label="{label(lab, e)}"']
        if colors:
            attrs.append(f'color="{colors[e.orient][e.i - 1][e.j - 1]}"')
        lines.append(f"  x_{a.i}_{a.j} -- x_{b.i}_{b.j} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_CELL = 80
_MARGIN = 56
_STUB = 26
_R = 13


def _render_svg(lab: Labeling, spec: RenderSpec) -> str:
    d = lab.dims
    colors = _edge_colors(d) if spec.highlight_diagonals else None
    weights = weight_matrix(lab) if spec.annotate == "weights" else None
    width = 2 * _MARGIN + (d.m - 1) * _CELL
    height = 2 * _MARGIN + (d.n - 1) * _CELL

    def pos(i: int, j: int) -> tuple[int, int]:
        return _MARGIN + (j - 1) * _CELL, _MARGIN + (i - 1) * _CELL

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for e in all_edges(d):
        color = colors[e.orient][e.i - 1][e.j - 1] if colors else "#444444"
        x, y = pos(e.i, e.j)
        segments = []
        if e.orient == "H":
            if e.j < d.m:
                segments.append((x, y, x + _CELL, y))
                lx, ly = x + _CELL // 2, y - 6
            else:
                xw, yw = pos(e.i, 1)
                segments.append((x, y, x + _STUB, y))
                segments.append((xw - _STUB, yw, xw, yw))
                lx, ly = x + _STUB, y - 6
        else:
            if e.i < d.n:
                segments.append((x, y, x, y + _CELL))
                lx, ly = x + 7, y + _CELL // 2 + 4
            else:
                xw, yw = pos(1, e.j)
                segments.append((x, y, x, y + _STUB))
                segments.append((xw, yw - _STUB, xw, yw))
                lx, ly = x + 7, y + _STUB
        out.append(f'<g class="edge" data-edge="{e}">')
        for x1, y1, x2, y2 in segments:
            out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                       f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx}" y="{ly}" font-size="11" fill="{color}">'
                   f"{label(lab, e)}</text>")
        out.append("</g>")
    for v in all_vertices(d):
        x, y = pos(v.i, v.j)
        out.append(f'<g class="vertex" data-vertex="x_{v.i}_{v.j}">')
        out.append(f'<circle cx="{x}" cy="{y}" r="{_R}" fill="#f5f5f5" stroke="#222222"/>')
        out.append(f'<text x="{x}" y="{y + 3}" font-size="9" text-anchor="middle">'
                   f"{v.i},{v.j}</text>")
        if spec.annotate == "weights":
            out.append(f'<text x="{x}" y="{y + _R + 12}" font-size="10" '
                       f'text-anchor="middle" fill="#a23b00">'
                       f"{int(weights[v.i - 1, v.j - 1])}</text>")
        elif spec.annotate == "corners":
            hv, vh = _corner_sums(lab, v.i, v.j)
            out.append(f'<text x="{x}" y="{y + _R + 11}" font-size="8" '
                       f'text-anchor="middle" fill="#1f4d8f">HV={hv}</text>')
            out.append(f'<text x="{x}" y="{y + _R + 20}" font-size="8" '
                       f'text-anchor="middle" fill="#7a1f8f">VH={vh}</text>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- search ----------------------------------------------------------------

@dataclass
class SearchStats:
    nodes: int = 0
    max_depth: int = 0
    propagations: int = 0
    restarts: int = 0
    prunes: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    def bump(self, rule: str) -> None:
        self.prunes[rule] = self.prunes.get(rule, 0) + 1



class PartialLabeling:
    """Mutable partial assignment over the grid's edges.

    Edge slots are flat indices: the H block row-major, then the V block.
    Tracks per-vertex partial sums and unlabeled-edge counts so the
    pruning rules are O(1) lookups plus a scan of the unused pool.
    """

    def __init__(self, dims: GridDims, assignments: Mapping[EdgeRef, int] | None = None):
        self.dims = dims
        self.constant = forced_constant(dims)
        n, m, q = dims.n, dims.m, dims.q
        nm = n * m
        self.nm = nm
        vert_edges = []
        for i in range(n):
            for j in range(m):
                vert_edges.append((
                    i * m + j,                 # H(i, j): east
                    i * m + (j - 1) % m,       # H(i, j-1): west
                    nm + i * m + j,            # V(i, j): south
                    nm + ((i - 1) % n) * m + j,  # V(i-1, j): north
                ))
        self.vert_edges = vert_edges
        edge_verts: list[list[int]] = [[] for _ in range(q)]
        for v, edges in enumerate(vert_edges):
            for e in edges:
                edge_verts[e].append(v)
        self.edge_verts = [tuple(vs) for vs in edge_verts]
        # decision tie-break: lexicographic (i, j, orient) with H before V
        order = sorted(range(q), key=lambda e: (e % nm // m, e % nm % m, e // nm))
        self.rank = [0] * q
        for pos, e in enumerate(order):
            self.rank[e] = pos

        self.label = [0] * q          # 0 = unassigned
        self.used = [False] * (q + 1)
        self.vsum = [0] * nm
        self.vcnt = [4] * nm
        self.unassigned = q
        self.trail: list[int] = []
        if assignments:
            for e, value in sorted(assignments.items(), key=lambda kv: kv[0].sort_key()):
                self.assign(e, value)

    # -- public views ------------------------------------------------------

    def edge_index(self, e: EdgeRef) -> int:
        base = 0 if e.orient == "H" else self.nm
        return base + (e.i - 1) * self.dims.m + (e.j - 1)

    def assign(self, e: EdgeRef, value: int) -> None:
        idx = self.edge_index(e)
        if self.label[idx]:
            raise ValueError(f"{e} already labeled")
        if not (1 <= value <= self.dims.q) or self.used[value]:
            raise ValueError(f"label {value} unavailable")
        self._set(idx, value)

    def to_labeling(self) -> Labeling:
        if self.unassigned:
            raise ValueError("labeling is not total yet")
        n, m, nm = self.dims.n, self.dims.m, self.nm
        flat = np.asarray(self.label, dtype=np.int64)
        return Labeling(self.dims, flat[:nm].reshape(n, m).copy(),
                        flat[nm:].reshape(n, m).copy())

    # -- state updates -----------------------------------------------------

    def _set(self, idx: int, value: int) -> None:
        self.label[idx] = value
        self.used[value] = True
        for v in self.edge_verts[idx]:
            self.vsum[v] += value
            self.vcnt[v] -= 1
        self.unassigned -= 1
        self.trail.append(idx)

    def _undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            idx = self.trail.pop()
            value = self.label[idx]
            self.label[idx] = 0
            self.used[value] = False
            for v in self.edge_verts[idx]:
                self.vsum[v] -= value
                self.vcnt[v] += 1
            self.unassigned += 1

    # -- pruning primitives --------------------------------------------------

    def _extreme_sums(self, count: int) -> tuple[list[int], list[int]]:
        # prefix sums of the `count` smallest and largest unused labels
        used, q = self.used, self.dims.q
        mins, maxs = [0], [0]
        x = 1
        while x <= q and len(mins) <= count:
            if not used[x]:
                mins.append(mins[-1] + x)
            x += 1
        x = q
        while x >= 1 and len(maxs) <= count:
            if not used[x]:
                maxs.append(maxs[-1] + x)
            x -= 1
        return mins, maxs

    def _pair_exists(self, target: int) -> bool:
        used, q = self.used, self.dims.q
        a = max(1, target - q)
        half = (target - 1) // 2
        while a <= half:
            if not used[a] and not used[target - a]:
                return True
            a += 1
        return False

class _Engine:
    """One depth-first run over a PartialLabeling."""

    def __init__(self, state: PartialLabeling, stats: SearchStats, *,
                 node_limit: int, deadline: float, rng=None, find_all: bool = False):
        self.s = state
        self.stats = stats
        self.node_limit = node_limit
        self.deadline = deadline
        self.rng = rng
        self.find_all = find_all
        self.solutions: list[Labeling] = []

    # Propagate consequences of the assignment(s) made since `queue` was
    # seeded.  Returns False when any rule refutes the branch.
    def _propagate(self, queue: list[int]) -> bool:
        s = self.s
        c = s.constant
        stats = self.stats
        changed: dict[int, None] = {}
        while queue:
            v = queue.pop()
            changed[v] = None
            cnt = s.vcnt[v]
            if cnt == 0:
                if s.vsum[v] != c:
                    stats.bump("closed-sum")
                    return False
            elif cnt == 1:
                need = c - s.vsum[v]
                if need < 1 or need > s.dims.q:
                    stats.bump("forced-range")
                    return False
                if s.used[need]:
                    stats.bump("forced-used")
                    return False
                for e in s.vert_edges[v]:
                    if not s.label[e]:
                        s._set(e, need)
                        stats.propagations += 1
                        queue.extend(s.edge_verts[e])
                        break

        mins, maxs = s._extreme_sums(3)
        vsum, vcnt = s.vsum, s.vcnt
        for v in range(s.nm):
            r = vcnt[v]
            if 1 <= r <= 3:
                need = c - vsum[v]
                if need < mins[r] or need > maxs[r]:
                    stats.bump("bounds")
                    return False
        for v in changed:
            if vcnt[v] == 2 and not s._pair_exists(c - vsum[v]):
                stats.bump("pair")
                return False
        return True

    def _pick_edge(self) -> int:
        s = self.s
        best_cnt = 5
        best_vertices: list[int] = []
        vcnt = s.vcnt
        for v in range(s.nm):
            cnt = vcnt[v]
            if 0 < cnt < best_cnt:
                best_cnt = cnt
                best_vertices = [v]
            elif cnt == best_cnt:
                best_vertices.append(v)
        best_edge = -1
        best_rank = None
        for v in best_vertices:
            for e in s.vert_edges[v]:
                if not s.label[e]:
                    r = s.rank[e]
                    if best_rank is None or r < best_rank:
                        best_rank = r
                        best_edge = e
        return best_edge

    def _candidates(self, e: int) -> list[int]:
        s = self.s
        c, q = s.constant, s.dims.q
        mins, maxs = s._extreme_sums(3)
        lo, hi = 1, q
        for v in s.edge_verts[e]:
            r = s.vcnt[v]
            need = c - s.vsum[v]
            # L plus r-1 further unused labels must reach `need`
            if len(mins) > r - 1:
                hi = min(hi, need - mins[r - 1])
            if len(maxs) > r - 1:
                lo = max(lo, need - maxs[r - 1])
        used = s.used
        values = [x for x in range(max(lo, 1), min(hi, q) + 1) if not used[x]]
        if self.rng is not None:
            self.rng.shuffle(values)
        return values

    def run(self) -> str:
        if not self._propagate(list(range(self.s.nm))):
            return EXHAUSTED
        return self._dfs(0)

    def _dfs(self, depth: int) -> str:
        s = self.s
        stats = self.stats
        if depth > stats.max_depth:
            stats.max_depth = depth
        if s.unassigned == 0:
            solution = s.to_labeling()
            report = verify(solution)
            if not report.is_supermagic or report.constant != s.constant:
                raise RuntimeError("internal defect: search produced a non-supermagic labeling")
            self.solutions.append(solution)
            return EXHAUSTED if self.find_all else FOUND

        e = self._pick_edge()
        for value in self._candidates(e):
            if stats.nodes >= self.node_limit:
                return BUDGET_EXCEEDED
            stats.nodes += 1
            if stats.nodes % 1024 == 0 and time.perf_counter() > self.deadline:
                return BUDGET_EXCEEDED
            mark = len(s.trail)
            s._set(e, value)
            if self._propagate(list(s.edge_verts[e])):
                sub = self._dfs(depth + 1)
                if sub != EXHAUSTED:
                    s._undo_to(mark)
                    return sub
            s._undo_to(mark)
        return EXHAUSTED


def _run_branch(dims: GridDims, base: Mapping[EdgeRef, int], cfg: SearchConfig,
                stats: SearchStats, deadline: float, branch: int) -> tuple[str, Labeling | None]:
    import random

    if cfg.seed is None:
        state = PartialLabeling(dims, base)
        engine = _Engine(state, stats, node_limit=cfg.node_budget, deadline=deadline)
        status = engine.run()
        return status, engine.solutions[0] if engine.solutions else None

    run = 0
    while True:
        if stats.nodes >= cfg.node_budget or time.perf_counter() > deadline:
            return BUDGET_EXCEEDED, None
        if run:
            stats.restarts += 1
        run += 1
        window = min(stats.nodes + _LUBY_UNIT * _luby(run), cfg.node_budget)
        state = PartialLabeling(dims, base)
        engine = _Engine(state, stats, node_limit=window, deadline=deadline,
                         rng=random.Random(_derived_seed(cfg.seed, branch, run)))
        status = engine.run()
        if status == FOUND:
            return status, engine.solutions[0]
        if status == EXHAUSTED:
            # a run that ends inside its window is a genuine refutation
            return status, None


def search(n: int, m: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Look for a supermagic labeling of C_n x C_m with constant 4nm+2.

    Found outcomes carry a labeling that has already passed verification.
    Exhausted is only reported when every branch of the pinned search tree
    was refuted within budget; budget exhaustion is reported as such and
    never treated as evidence of non-existence.
    """
    cfg = cfg or SearchConfig()
    d = make_dims(n, m)
    if d.q > 4 * sys.getrecursionlimit() // 5:
        sys.setrecursionlimit(2 * d.q + 100)
    stats = SearchStats()
    start = time.perf_counter()
    deadline = start + cfg.time_budget
    status_overall = EXHAUSTED
    labeling = None
    for branch, pin in enumerate(_pins(d)):
        status, labeling = _run_branch(d, pin, cfg, stats, deadline, branch)
        if status == FOUND:
            status_overall = FOUND
            break
        if status == BUDGET_EXCEEDED:
            status_overall = BUDGET_EXCEEDED
            break
    stats.elapsed = time.perf_counter() - start
    return SearchOutcome(status=status_overall, labeling=labeling, stats=stats)


def enumerate_completions(dims: GridDims, assignments: Mapping[EdgeRef, int],
                          cfg: SearchConfig | None = None) -> tuple[list[Labeling], SearchOutcome]:
    """All supermagic completions of a partial assignment (no symmetry
    breaking, so the enumeration is the complete solution set)."""
    cfg = cfg or SearchConfig()
    stats = SearchStats()
    start = time.perf_counter()
    state = PartialLabeling(dims, assignments)
    engine = _Engine(state, stats, node_limit=cfg.node_budget,
                     deadline=start + cfg.time_budget, find_all=True)
    status = engine.run()
    stats.elapsed = time.perf_counter() - start
    outcome = SearchOutcome(status=status, labeling=None, stats=stats)
    return engine.solutions, outcome
