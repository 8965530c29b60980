"""Scalar reference implementation of construct, verify, audit_corners,
the JSON document codec and the figure renderer.

A verbatim copy of the per-EdgeRef code the package used before its core
became numpy index arithmetic: diagonals traced edge by edge, labels
written through a write-once accumulator, the bijection counted with a
Counter, weights held in a VertexRef dict, and every corner looked up
through a CornerPos.  The codec and the renderer are the per-edge
versions the package used before they went row-wise: matrices decoded
and checked cell by cell, numpy scalars converted one at a time, and
figures drawn by walking all_edges/all_vertices with EdgeRef.endpoints
and Labeling.label.  It is slow and deliberately left alone, so that the
differential tests can hold the package to it.

Only the module-level imports differ: the shared value types (EdgeRef,
VertexRef, CornerPos, GridDims, Labeling, ConstructionPlan, plan_for,
RenderSpec, ParseError, ShapeError) come from the package.
"""

from __future__ import annotations

import colorsys
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

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
from torusmagic.grid import (
    EdgeRef,
    GridDims,
    VertexRef,
    all_edges,
    all_vertices,
    dims as make_dims,
    wrap,
)
from torusmagic.labeling import DomainMismatch, Labeling
from torusmagic.render import RenderSpec
from torusmagic.serialize import ParseError, ShapeError


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
    hv = int(lab.h[i - 1, wrap(j - 1, d.m) - 1] + lab.v[i - 1, j - 1])
    vh = int(lab.v[wrap(i - 1, d.n) - 1, j - 1] + lab.h[i - 1, j - 1])
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
        a, b = e.endpoints(d)
        attrs = [f'label="{lab.label(e)}"']
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
                   f"{lab.label(e)}</text>")
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
