"""Output checks that do not use the code paths they check.

Every labeling is checked with numpy alone: the labels must be a
bijection onto 1..q (one `np.bincount`) and every vertex weight, summed
with `np.roll`, must equal 4nm+2.  A constructed labeling must also carry
only the construction's five corner partial weights, which is what a
clean corner audit asserts.  Documents are read with `json`, not with
`torusmagic.decode`, and figures with regular expressions.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np


def magic_constant(n: int, m: int) -> int:
    return 4 * n * m + 2


def labeling_problems(h: np.ndarray, v: np.ndarray) -> list[str]:
    """Bijection onto 1..2nm plus uniform vertex weight 4nm+2."""
    n, m = h.shape
    q = 2 * n * m
    labels = np.concatenate([h.ravel(), v.ravel()])
    if labels.min() < 1 or labels.max() > q:
        return [f"labels outside 1..{q}"]
    problems = []
    counts = np.bincount(labels, minlength=q + 1)
    if (counts[1:] != 1).any():
        problems.append(f"{int((counts[1:] != 1).sum())} labels not used exactly once")
    weights = h + np.roll(h, 1, axis=1) + v + np.roll(v, 1, axis=0)
    bad = int((weights != magic_constant(n, m)).sum())
    if bad:
        problems.append(f"{bad} vertex weights differ from {magic_constant(n, m)}")
    return problems


def corner_problems(h: np.ndarray, v: np.ndarray) -> list[str]:
    """Every corner sum is one of the construction's partial weights.

    At vertex x_ij the HV corner is H(i,j-1)+V(i,j) and the VH corner is
    V(i-1,j)+H(i,j).  Transposing a labeling exchanges the two kinds, so
    both are checked against the union of the five design weights
    2nm, 2nm+1, 2nm+2, 2nm+l and 2nm-l+2 (l = lcm(n, m)).
    """
    n, m = h.shape
    base, l = 2 * n * m, n * m // math.gcd(n, m)
    allowed = np.array([base, base + 1, base + 2, base + l, base - l + 2])
    hv = np.roll(h, 1, axis=1) + v
    vh = np.roll(v, 1, axis=0) + h
    off = int((~np.isin(hv, allowed)).sum() + (~np.isin(vh, allowed)).sum())
    return [f"{off} corner sums are not design partial weights"] if off else []


def read_document(text: str) -> tuple[dict, np.ndarray, np.ndarray]:
    """The JSON document's fields and its two label matrices."""
    doc = json.loads(text)
    h = np.array(doc["horizontal"], dtype=np.int64)
    v = np.array(doc["vertical"], dtype=np.int64)
    if h.shape != (doc["n"], doc["m"]) or v.shape != h.shape:
        raise ValueError(f"matrices are {h.shape} and {v.shape}, not {doc['n']}x{doc['m']}")
    return doc, h, v


_EDGE_LABEL = re.compile(r'font-size="11" fill="(#[0-9a-f]{6})">(\d+)</text>')
_WEIGHT = re.compile(r'fill="#a23b00">(\d+)</text>')


def svg_problems(text: str, h: np.ndarray, v: np.ndarray) -> list[str]:
    """An SVG figure with weight annotations and diagonal colors.

    Edge labels must appear in edge order (H block, then V block, row
    major), every vertex must show the magic constant, and there must be
    one edge color per diagonal.
    """
    n, m = h.shape
    problems = []
    if not text.startswith("<svg ") or not text.endswith("</svg>\n"):
        problems.append("not a complete <svg> document")
    edges = _EDGE_LABEL.findall(text)
    labels = np.array([int(label) for _, label in edges], dtype=np.int64)
    expected = np.concatenate([h.ravel(), v.ravel()])
    if labels.shape != expected.shape or (labels != expected).any():
        problems.append("edge labels differ from the document")
    colors = {color for color, _ in edges}
    if len(colors) != math.gcd(n, m):
        problems.append(f"{len(colors)} edge colors for {math.gcd(n, m)} diagonals")
    weights = _WEIGHT.findall(text)
    c = str(magic_constant(n, m))
    if len(weights) != n * m or any(w != c for w in weights):
        problems.append(f"vertex annotations are not {n * m} copies of {c}")
    return problems
