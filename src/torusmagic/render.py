"""Figure emission for labeled torus grids (DOT and SVG text only).

Both formats place vertex (i,j) on an n-by-m grid; the wrap-around edges
leave the grid toward the margin (SVG draws them as short stubs on both
sides, DOT carries them as ordinary edges and leaves routing to the
layout engine).  Edges always carry their label.  Vertex annotations are
selectable: plain names, vertex weights, or the two corner sums hosted at
each vertex (west-H plus south-V, and north-V plus east-H).

Diagonal highlighting colors every edge by the diagonal it belongs to;
membership is intrinsic (start columns only rotate the numbering along a
diagonal), so the coloring needs no plan.

A figure is a header, three n-by-m grids of elements (SVG: H edges, V
edges, vertices; DOT: vertices, H edges, V edges) and a footer.  Each
element is a template whose fields are literals, per-row strings (i, y),
per-column strings (j, x) or per-cell values (a label, a weight, a corner
sum, a colour looked up by diagonal index).  `_weave` writes a template
over its grid in serialize's bands of rows, of the size encode and decode
use: every field goes into a list of pieces with one slice assignment,
`parts[t::k] = ...`, and one `"".join` makes the band's text.  Only one
band's pieces and cell strings are alive at a time.  A band's numbers are written by
serialize's write_decimal into one byte grid, a space after each, and
one decode and one split make their strings; only sums past int64, held
as Python ints, are formatted by str.  Colours and wrap stubs are taken
from an object array of strings at the band's indices at once.  The SVG
line of a wrap edge's second stub is formatted once per wrap edge, as
there are only n + m of them.

`render_pieces` yields the header, each band as it is woven and the
footer, so a caller that writes them out holds one band at a time;
`render` joins them into the figure.
"""

from __future__ import annotations

import colorsys
import re
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .grid import GridDims, TorusMagicError
from .labeling import Labeling
from .serialize import bands, write_decimal
from .verify import corner_sums, weight_matrix

_FORMATS = ("dot", "svg")
_ANNOTATE = ("labels", "weights", "corners")

# Largest grid render draws, in edges.  An SVG takes about 336 bytes per
# edge, so the cap keeps a figure under about 170 MB of text.  `render`
# holds the band strings and the figure joined from them, about twice the
# figure's size, plus one band's pieces.  The CLI writes each band as it
# is woven, so it holds one band and its encoded copy.
MAX_RENDER_EDGES = 500_000


class RenderTooLarge(TorusMagicError):
    """The grid has more edges than MAX_RENDER_EDGES."""


@dataclass(frozen=True)
class RenderSpec:
    format: str = "dot"
    annotate: str = "labels"
    highlight_diagonals: bool = False

    def __post_init__(self) -> None:
        if self.format not in _FORMATS:
            raise TorusMagicError(f"format must be one of {_FORMATS}")
        if self.annotate not in _ANNOTATE:
            raise TorusMagicError(f"annotate must be one of {_ANNOTATE}")


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


def check_render_size(d: GridDims) -> None:
    """Raise RenderTooLarge if the grid has more than MAX_RENDER_EDGES edges."""
    if d.q > MAX_RENDER_EDGES:
        raise RenderTooLarge(f"C_{d.n} x C_{d.m} has {d.q} edges; render draws at most "
                             f"{MAX_RENDER_EDGES}")


def render(lab: Labeling, spec: RenderSpec | None = None) -> str:
    """Figure text for a total labeling, per the render spec.

    Grids with more than MAX_RENDER_EDGES edges raise RenderTooLarge
    before any text is built.
    """
    return "".join(render_pieces(lab, spec))


def render_pieces(lab: Labeling, spec: RenderSpec | None = None) -> Iterator[str]:
    """The figure `render` returns, as pieces woven one at a time on demand.

    The size check runs on the call; no text is built until the first piece
    is asked for.
    """
    spec = spec or RenderSpec()
    check_render_size(lab.dims)
    return (_render_dot if spec.format == "dot" else _render_svg)(lab, spec)


# --- weaving ---------------------------------------------------------------

_LITERAL, _PER_ROW, _PER_COL, _PER_CELL = range(4)

_FIELD = re.compile(r"\{(\w+)\}")


def _row(values) -> tuple[int, list[str]]:
    return _PER_ROW, list(map(str, values))


def _col(values) -> tuple[int, list[str]]:
    return _PER_COL, list(map(str, values))


def _cell(matrix: np.ndarray, table: list[str] | None = None) -> tuple[int, tuple]:
    """A per-cell field: matrix[i, j] in decimal at cell (i, j), or
    table[matrix[i, j]] for a matrix of indices into the table."""
    return _PER_CELL, (matrix, None if table is None else np.array(table, dtype=object))


def _cell_strings(values: np.ndarray, table: np.ndarray | None) -> list[str]:
    """The text of a per-cell field at a band's cells, given their values.

    A table is taken at the values at once.  Numbers are written by
    write_decimal into a byte grid, one row per cell with a space after
    the digits, which one decode and one split turn into strings; only
    numbers past int64, held as Python ints in an object array, take str.
    """
    if table is not None:
        return table[values].tolist()
    if values.dtype == object:
        return list(map(str, values.tolist()))
    width = len(str(int(values.max())))
    grid = np.zeros((values.size, width + 1), dtype=np.uint8)
    grid[:, width] = ord(" ")
    write_decimal(values, grid[:, :width])
    return grid[grid != 0][:-1].tobytes().decode("ascii").split(" ")


def _merge(a: tuple[int, object], b: tuple[int, object]) -> tuple[int, object]:
    """One slot with the text of slot a followed by slot b (neither a cell)."""
    (ka, va), (kb, vb) = a, b
    if ka == kb == _LITERAL:
        return _LITERAL, va + vb
    if ka == _LITERAL:
        return kb, [va + v for v in vb]
    if kb == _LITERAL:
        return ka, [v + vb for v in va]
    return ka, [x + y for x, y in zip(va, vb)]


def _slots(template: str, fields: dict) -> list[tuple[int, object]]:
    """The template as (kind, value) slots, a cell slot holding its field's name.

    A run of literals and row strings is one row slot, and likewise for
    columns, so that the band needs as few pieces as it can.
    """
    slots: list[tuple[int, object]] = []
    # split() alternates literal text and field names
    for t, text in enumerate(_FIELD.split(template)):
        if t % 2:
            kind, value = fields[text]
            slot = (kind, text if kind == _PER_CELL else value)
        elif text:
            slot = (_LITERAL, text)
        else:
            continue
        last = slots[-1][0] if slots else _PER_CELL
        if _PER_CELL not in (slot[0], last) and (_LITERAL in (slot[0], last) or slot[0] == last):
            slots[-1] = _merge(slots[-1], slot)
        else:
            slots.append(slot)
    return slots


def _weave(template: str, fields: dict, n: int, m: int) -> Iterator[str]:
    """The template written over an n-by-m grid in row-major order, yielded
    as one string per band of rows.

    `fields` maps each field name in the template to a literal
    `(_LITERAL, str)`, one string per row or per column (`_row`, `_col`), or
    a cell field (`_cell`).
    """
    slots = _slots(template, fields)
    k = len(slots)
    parts: list[str] = []
    for rows in bands(n, m):
        height = rows.stop - rows.start
        count = height * m
        if len(parts) != k * count:
            # literal and column slots are the same in every band of this height
            parts = [""] * (k * count)
            for t, (kind, value) in enumerate(slots):
                if kind == _LITERAL:
                    parts[t::k] = repeat(value, count)
                elif kind == _PER_COL:
                    parts[t::k] = value * height
        cells: dict[str, list[str]] = {}
        for t, (kind, value) in enumerate(slots):
            if kind == _PER_ROW:
                parts[t::k] = chain.from_iterable(map(repeat, value[rows], repeat(m)))
            elif kind == _PER_CELL:
                if value not in cells:
                    matrix, table = fields[value][1]
                    cells[value] = _cell_strings(matrix[rows].ravel(), table)
                parts[t::k] = cells[value]
        yield "".join(parts)


def _annotations(lab: Labeling, spec: RenderSpec) -> dict:
    """The cell fields the vertex notes read: w, or hv and vh."""
    if spec.annotate == "weights":
        return {"w": _cell(weight_matrix(lab))}
    if spec.annotate == "corners":
        hv, vh = corner_sums(lab)
        return {"hv": _cell(hv), "vh": _cell(vh)}
    return {}


# --- DOT -------------------------------------------------------------------

_DOT_NOTES = {
    "labels": "",
    "weights": ', label="x_{i}_{j}\\n{w}"',
    "corners": ', label="x_{i}_{j}\\nHV={hv}\\nVH={vh}"',
}
_DOT_EDGE = '  x_{i}_{j} -- x_{i2}_{j2} [label="{label}"{color}];\n'


def _render_dot(lab: Labeling, spec: RenderSpec) -> Iterator[str]:
    d = lab.dims
    n, m = d.n, d.m
    grid = {"i": _row(range(1, n + 1)), "j": _col(range(1, m + 1))}
    if spec.highlight_diagonals:
        colors = [f', color="{c}"' for c in _palette(d.d)]
        h_color, v_color = (_cell(idx, colors) for idx in _diagonal_colors(d))
    else:
        h_color = v_color = (_LITERAL, "")
    vertex = '  x_{i}_{j} [pos="{j},{y}!"' + _DOT_NOTES[spec.annotate] + '];\n'
    yield (f"graph torus_{n}x{m} {{\n"
           "  layout=neato;\n"
           "  node [shape=circle, fontsize=10];\n"
           "  edge [fontsize=9];\n")
    yield from _weave(vertex, {**grid, "y": _row(range(n - 1, -1, -1)),
                               **_annotations(lab, spec)}, n, m)
    yield from _weave(_DOT_EDGE, {**grid, "i2": grid["i"], "j2": _col([*range(2, m + 1), 1]),
                                  "label": _cell(lab.h), "color": h_color}, n, m)
    yield from _weave(_DOT_EDGE, {**grid, "i2": _row([*range(2, n + 1), 1]), "j2": grid["j"],
                                  "label": _cell(lab.v), "color": v_color}, n, m)
    yield "}\n"


# --- SVG -------------------------------------------------------------------

_CELL = 80
_MARGIN = 56
_STUB = 26
_R = 13

_SVG_EDGE = ('<g class="edge" data-edge="{o}({i},{j})">\n'
             '<line x1="{x}" y1="{y}" x2="{x2}" y2="{y2}" stroke="{c}" stroke-width="2"/>\n'
             '{stub}<text x="{tx}" y="{ty}" font-size="11" fill="{c}">{label}</text>\n</g>\n')
_SVG_VERTEX = ('<g class="vertex" data-vertex="x_{i}_{j}">\n'
               '<circle cx="{x}" cy="{y}" r="{r}" fill="#f5f5f5" stroke="#222222"/>\n'
               '<text x="{x}" y="{y_name}" font-size="9" text-anchor="middle">{i},{j}</text>')
_SVG_NOTES = {
    "labels": "",
    "weights": ('\n<text x="{x}" y="{y_w}" font-size="10" '
                'text-anchor="middle" fill="#a23b00">{w}</text>'),
    "corners": ('\n<text x="{x}" y="{y_hv}" font-size="8" '
                'text-anchor="middle" fill="#1f4d8f">HV={hv}</text>'
                '\n<text x="{x}" y="{y_vh}" font-size="8" '
                'text-anchor="middle" fill="#7a1f8f">VH={vh}</text>'),
}


def _line(x1: int, y1: int, x2: int, y2: int, color: str) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="2"/>\n')


def _render_svg(lab: Labeling, spec: RenderSpec) -> Iterator[str]:
    d = lab.dims
    n, m = d.n, d.m
    width = 2 * _MARGIN + (m - 1) * _CELL
    height = 2 * _MARGIN + (n - 1) * _CELL
    # vertex (i,j) sits at (xs[j-1], ys[i-1])
    xs = [_MARGIN + c * _CELL for c in range(m)]
    ys = [_MARGIN + r * _CELL for r in range(n)]
    grid = {"i": _row(range(1, n + 1)), "j": _col(range(1, m + 1)),
            "x": _col(xs), "y": _row(ys)}
    if spec.highlight_diagonals:
        palette = _palette(d.d)
        h_idx, v_idx = _diagonal_colors(d)
        h_color, v_color = _cell(h_idx, palette), _cell(v_idx, palette)
        h_wrap = [palette[c] for c in h_idx[:, -1].tolist()]
        v_wrap = [palette[c] for c in v_idx[-1].tolist()]
    else:
        h_color = v_color = (_LITERAL, "#444444")
        h_wrap, v_wrap = ["#444444"] * n, ["#444444"] * m

    def stubs(wrap: tuple, lines: list[str]) -> tuple[int, tuple]:
        # the second stub of each wrap edge, and nothing at the other cells
        index = np.zeros((n, m), np.intp)
        index[wrap] = np.arange(1, len(lines) + 1)
        return _cell(index, ["", *lines])

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}" font-family="sans-serif">\n'
           f'<rect width="{width}" height="{height}" fill="white"/>\n')
    # An edge that leaves the grid is drawn as a stub at each end, labelled at the first.
    yield from _weave(_SVG_EDGE, {
        **grid, "o": (_LITERAL, "H"), "c": h_color, "label": _cell(lab.h),
        "x2": _col([x + _CELL for x in xs[:-1]] + [xs[-1] + _STUB]), "y2": grid["y"],
        "tx": _col([x + _CELL // 2 for x in xs[:-1]] + [xs[-1] + _STUB]),
        "ty": _row([y - 6 for y in ys]),
        "stub": stubs((slice(None), -1),
                      [_line(_MARGIN - _STUB, y, _MARGIN, y, c) for y, c in zip(ys, h_wrap)]),
    }, n, m)
    yield from _weave(_SVG_EDGE, {
        **grid, "o": (_LITERAL, "V"), "c": v_color, "label": _cell(lab.v),
        "x2": grid["x"], "y2": _row([y + _CELL for y in ys[:-1]] + [ys[-1] + _STUB]),
        "tx": _col([x + 7 for x in xs]),
        "ty": _row([y + _CELL // 2 + 4 for y in ys[:-1]] + [ys[-1] + _STUB]),
        "stub": stubs((-1,),
                      [_line(x, _MARGIN - _STUB, x, _MARGIN, c) for x, c in zip(xs, v_wrap)]),
    }, n, m)
    yield from _weave(_SVG_VERTEX + _SVG_NOTES[spec.annotate] + "\n</g>\n", {
        **grid, "r": (_LITERAL, str(_R)), "y_name": _row([y + 3 for y in ys]),
        "y_w": _row([y + _R + 12 for y in ys]), "y_hv": _row([y + _R + 11 for y in ys]),
        "y_vh": _row([y + _R + 20 for y in ys]), **_annotations(lab, spec),
    }, n, m)
    yield "</svg>\n"
