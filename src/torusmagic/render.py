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

from .grid import GridDims, all_edges, all_vertices, wrap
from .labeling import Labeling
from .verify import weight_matrix

_FORMATS = ("dot", "svg")
_ANNOTATE = ("labels", "weights", "corners")


@dataclass(frozen=True)
class RenderSpec:
    format: str = "dot"
    annotate: str = "labels"
    highlight_diagonals: bool = False

    def __post_init__(self) -> None:
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if self.annotate not in _ANNOTATE:
            raise ValueError(f"annotate must be one of {_ANNOTATE}")


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
