"""Canonical text formats for labelings.

The primary format is a JSON document with fixed field order

    n, m, horizontal, vertical, metadata

where entry (i,j) of each matrix holds the label of H(i,j) / V(i,j),
1-based indices, one matrix row per line.  Encoding is deterministic:
the same labeling always produces the same bytes, and the text is
UTF-8 and newline-terminated.

A line-oriented edge list ("H i j label" / "V i j label", one edge per
line, '#' comments allowed) is accepted on input for hand-authored
files; dimensions are inferred from the largest indices and the lines
must cover every edge exactly once.

Decoding never validates the supermagic property - verification is an
explicit, separate step.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from .grid import TorusMagicError, dims as make_dims
from .labeling import Labeling


class ParseError(TorusMagicError):
    """Document is not well-formed (bad JSON, bad types, labels below 1 or
    past the int64 range, bad edge lines)."""


class ShapeError(TorusMagicError):
    """Matrices or edge lines do not cover an n x m grid exactly."""


_LABEL_LIMIT = 2**63  # labels are stored as int64


def _matrix_rows(matrix: np.ndarray) -> str:
    rows = map(json.dumps, matrix.tolist())
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
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4,300 digits
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
        # whole rows at a time; the exact type test keeps out bools and floats
        if all(set(map(type, row)) <= {int} for row in rows):
            try:
                out = np.array(rows, dtype=np.int64)
            except OverflowError:
                pass
            else:
                if (out >= 1).all():
                    return out
        # some cell is bad: raise for the first one in row-major order
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                where = f"{key}[{i + 1}][{j + 1}]"
                _require_int(value, where)
                if value < 1:
                    raise ParseError(f"{where}: labels must be positive, got {value}")
                if value >= _LABEL_LIMIT:
                    raise ParseError(f"{where}: labels must be below 2**63, got {value}")

    return Labeling(d, matrix("horizontal"), matrix("vertical"))


def _decode_edge_list(text: str) -> Labeling:
    entries: dict[tuple[str, int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4 or fields[0] not in ("H", "V"):
            raise ParseError(f"line {lineno}: expected 'H|V i j label', got {raw!r}")
        try:
            i, j, value = int(fields[1]), int(fields[2]), int(fields[3])
        except ValueError:
            raise ParseError(f"line {lineno}: indices and label must be integers") from None
        if value < 1:
            raise ParseError(f"line {lineno}: labels must be positive, got {value}")
        if value >= _LABEL_LIMIT:
            raise ParseError(f"line {lineno}: labels must be below 2**63, got {value}")
        key = (fields[0], i, j)
        if key in entries:
            raise ShapeError(f"line {lineno}: duplicate edge {fields[0]}({i},{j})")
        entries[key] = value
    if not entries:
        raise ParseError("empty document")
    n = max(i for _, i, _ in entries)
    m = max(j for _, _, j in entries)
    d = make_dims(n, m)
    if len(entries) != d.q:
        raise ShapeError(f"expected {d.q} edges for a {n}x{m} grid, got {len(entries)}")
    h = np.zeros((n, m), dtype=np.int64)
    v = np.zeros((n, m), dtype=np.int64)
    # q distinct keys, each checked to be one of the q cells: every cell is written
    for (orient, i, j), value in entries.items():
        if not (1 <= i <= n and 1 <= j <= m):
            raise ShapeError(f"edge {orient}({i},{j}) out of the {n}x{m} grid")
        (h if orient == "H" else v)[i - 1, j - 1] = value
    return Labeling(d, h, v)


def decode(text: str) -> Labeling:
    """Parse a labeling document (JSON or edge-list, auto-detected)."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty document")
    if stripped.startswith("{"):
        return _decode_json(text)
    return _decode_edge_list(text)
