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
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass

import numpy as np

from .grid import GridDims, TorusMagicError
from .labeling import Labeling
from .verify import weight_matrix

_FORMATS = ("dot", "svg")
_ANNOTATE = ("labels", "weights", "corners")

# Largest grid render draws, in edges.  An SVG takes about 336 bytes per
# edge, so the cap keeps a figure under about 170 MB of text.
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


def _edge_colors(dims: GridDims) -> tuple[list[list[str]], list[list[str]]]:
    """Per-edge diagonal colour as (H, V) lists of rows, 0-based (i, j)."""
    palette = _palette(dims.d)
    h_idx, v_idx = _diagonal_colors(dims)
    return ([[palette[c] for c in row] for row in h_idx.tolist()],
            [[palette[c] for c in row] for row in v_idx.tolist()])


def _corner_sums(lab: Labeling) -> tuple[list[list[int]], list[list[int]]]:
    """The two corner sums hosted at every vertex, as (HV, VH) lists of rows.

    HV at (i,j) is H(i,j-1) + V(i,j); VH is V(i-1,j) + H(i,j).
    """
    hv = np.roll(lab.h, 1, axis=1) + lab.v
    vh = np.roll(lab.v, 1, axis=0) + lab.h
    return hv.tolist(), vh.tolist()


def render(lab: Labeling, spec: RenderSpec | None = None) -> str:
    """Figure text for a total labeling, per the render spec.

    Grids with more than MAX_RENDER_EDGES edges raise RenderTooLarge
    before any text is built.
    """
    spec = spec or RenderSpec()
    d = lab.dims
    if d.q > MAX_RENDER_EDGES:
        raise RenderTooLarge(f"C_{d.n} x C_{d.m} has {d.q} edges; render draws at most "
                             f"{MAX_RENDER_EDGES}")
    if spec.format == "dot":
        return _render_dot(lab, spec)
    return _render_svg(lab, spec)


def _render_dot(lab: Labeling, spec: RenderSpec) -> str:
    d = lab.dims
    n, m = d.n, d.m
    rows, cols = range(1, n + 1), range(1, m + 1)
    out = [f"graph torus_{n}x{m} {{",
           "  layout=neato;",
           "  node [shape=circle, fontsize=10];",
           "  edge [fontsize=9];"]
    if spec.annotate == "weights":
        weights = weight_matrix(lab).tolist()
    elif spec.annotate == "corners":
        hv, vh = _corner_sums(lab)
    for i in rows:
        if spec.annotate == "weights":
            notes = [f', label="x_{i}_{j}\\n{w}"' for j, w in zip(cols, weights[i - 1])]
        elif spec.annotate == "corners":
            notes = [f', label="x_{i}_{j}\\nHV={a}\\nVH={b}"'
                     for j, a, b in zip(cols, hv[i - 1], vh[i - 1])]
        else:
            notes = [""] * m
        out.append("\n".join(f'  x_{i}_{j} [pos="{j},{n - i}!"{note}];'
                              for j, note in zip(cols, notes)))
    if spec.highlight_diagonals:
        h_colors, v_colors = ([[f', color="{c}"' for c in row] for row in colors]
                              for colors in _edge_colors(d))
    else:
        h_colors = v_colors = [[""] * m] * n
    for i, labels, colors in zip(rows, lab.h.tolist(), h_colors):
        out.append("\n".join(f'  x_{i}_{j} -- x_{i}_{j % m + 1} [label="{label}"{color}];'
                              for j, label, color in zip(cols, labels, colors)))
    for i, labels, colors in zip(rows, lab.v.tolist(), v_colors):
        out.append("\n".join(f'  x_{i}_{j} -- x_{i % n + 1}_{j} [label="{label}"{color}];'
                              for j, label, color in zip(cols, labels, colors)))
    out.append("}\n")
    return "\n".join(out)


_CELL = 80
_MARGIN = 56
_STUB = 26
_R = 13


def _render_svg(lab: Labeling, spec: RenderSpec) -> str:
    d = lab.dims
    n, m = d.n, d.m
    width = 2 * _MARGIN + (m - 1) * _CELL
    height = 2 * _MARGIN + (n - 1) * _CELL
    # vertex (i,j) sits at (xs[j-1], ys[i-1])
    xs = [_MARGIN + c * _CELL for c in range(m)]
    ys = [_MARGIN + r * _CELL for r in range(n)]
    rows, cols = range(1, n + 1), range(1, m + 1)
    if spec.highlight_diagonals:
        h_colors, v_colors = _edge_colors(d)
    else:
        h_colors = v_colors = [["#444444"] * m] * n
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    def line(x1: int, y1: int, x2: int, y2: int, color: str) -> str:
        return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="{color}" stroke-width="2"/>\n')

    def edge(name: str, lines: str, lx: int, ly: int, color: str, label: int) -> str:
        return (f'<g class="edge" data-edge="{name}">\n{lines}'
                f'<text x="{lx}" y="{ly}" font-size="11" fill="{color}">{label}</text>\n</g>')

    # Interior edges, nearly all of the text, are formatted inline.  An edge
    # that leaves the grid is drawn as a stub at each end, labelled at the first.
    for i, y, labels, colors in zip(rows, ys, lab.h.tolist(), h_colors):
        row = [f'<g class="edge" data-edge="H({i},{j})">\n'
               f'<line x1="{x}" y1="{y}" x2="{x + _CELL}" y2="{y}" '
               f'stroke="{c}" stroke-width="2"/>\n'
               f'<text x="{x + _CELL // 2}" y="{y - 6}" font-size="11" fill="{c}">{label}</text>'
               f'\n</g>'
               for j, x, label, c in zip(cols, xs, labels[:-1], colors)]
        x, c = xs[-1], colors[-1]
        row.append(edge(f"H({i},{m})",
                        line(x, y, x + _STUB, y, c) + line(_MARGIN - _STUB, y, _MARGIN, y, c),
                        x + _STUB, y - 6, c, labels[-1]))
        out.append("\n".join(row))
    for i, y, labels, colors in zip(rows, ys, lab.v.tolist(), v_colors):
        if i < n:
            row = [f'<g class="edge" data-edge="V({i},{j})">\n'
                   f'<line x1="{x}" y1="{y}" x2="{x}" y2="{y + _CELL}" '
                   f'stroke="{c}" stroke-width="2"/>\n'
                   f'<text x="{x + 7}" y="{y + _CELL // 2 + 4}" font-size="11" fill="{c}">'
                   f'{label}</text>\n</g>'
                   for j, x, label, c in zip(cols, xs, labels, colors)]
        else:
            row = [edge(f"V({i},{j})",
                        line(x, y, x, y + _STUB, c) + line(x, _MARGIN - _STUB, x, _MARGIN, c),
                        x + 7, y + _STUB, c, label)
                   for j, x, label, c in zip(cols, xs, labels, colors)]
        out.append("\n".join(row))
    if spec.annotate == "weights":
        weights = weight_matrix(lab).tolist()
    elif spec.annotate == "corners":
        hv, vh = _corner_sums(lab)
    for i, y in zip(rows, ys):
        if spec.annotate == "weights":
            notes = [f'\n<text x="{x}" y="{y + _R + 12}" font-size="10" '
                     f'text-anchor="middle" fill="#a23b00">{w}</text>'
                     for x, w in zip(xs, weights[i - 1])]
        elif spec.annotate == "corners":
            notes = [f'\n<text x="{x}" y="{y + _R + 11}" font-size="8" '
                     f'text-anchor="middle" fill="#1f4d8f">HV={a}</text>'
                     f'\n<text x="{x}" y="{y + _R + 20}" font-size="8" '
                     f'text-anchor="middle" fill="#7a1f8f">VH={b}</text>'
                     for x, a, b in zip(xs, hv[i - 1], vh[i - 1])]
        else:
            notes = [""] * m
        out.append("\n".join(
            f'<g class="vertex" data-vertex="x_{i}_{j}">\n'
            f'<circle cx="{x}" cy="{y}" r="{_R}" fill="#f5f5f5" stroke="#222222"/>\n'
            f'<text x="{x}" y="{y + 3}" font-size="9" text-anchor="middle">{i},{j}</text>'
            f'{note}\n</g>'
            for j, x, note in zip(cols, xs, notes)))
    out.append("</svg>\n")
    return "\n".join(out)
