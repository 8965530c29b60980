"""Canonical text formats for labelings.

The primary format is a JSON document with fixed field order

    n, m, horizontal, vertical, metadata

where entry (i,j) of each matrix holds the label of H(i,j) / V(i,j),
1-based indices, one matrix row per line.  Encoding is deterministic:
the same labeling always produces the same bytes, and the text is
UTF-8 and newline-terminated.

encode formats each matrix block a band of about 4,096 fields at a time,
with no Python object per label.  bands splits a grid's rows into those
bands, for encode, decode and render alike.  write_decimal splits a
band's labels into digits by integer division on uint32 (uint64 for
fields of 10 digits and more) and writes them right-aligned into a
zero-filled byte grid, one field as wide as the band's widest label,
with ", " after each field and a row break after each row; the zero
bytes are then dropped.
The 400 x 400, 201 x 303 and 303 x 201 documents together encode in
about 21 ms this way, against about 89 ms with one json.dumps per row
(medians of 9 in-process runs on 2 shared vCPUs, Python 3.11, numpy
2.4).  render writes its labels, weights and corner sums with the same
write_decimal.  encode_pieces yields the header, each band and the tail
as they are formatted, so that a caller writing them out holds one band
of the document; encode joins them.

A line-oriented edge list ("H i j label" / "V i j label", one edge per
line, '#' comments allowed) is accepted on input for hand-authored
files; dimensions are inferred from the largest indices and the lines
must cover every edge exactly once.

decode takes a canonical route for text in exactly the layout encode
writes: the "n" and "m" header lines, two matrix blocks, and either no
metadata or metadata that is one JSON object.  A block is taken only if
it holds nothing but ASCII digits, ", [ ] \\n" and spaces, equals the
n x m separator skeleton once its digits are deleted (its length is
checked against the skeleton's before any skeleton is built), and every
field is a digit run of 1 to 19 digits with no leading zero.  Each band
of about 4,096 fields is then converted by one np.fromstring call, and
every value must lie in 1..2**63-1.  These checks alone decide, as
np.fromstring does not refuse every bad field alike across numpy
versions.  Every other JSON text goes through json.loads, with the same
results and errors as before; that route walks every cell, to name the
first bad one, before one np.array call converts the rows.  A 400 x 400
document decodes in about 20 ms on the canonical route, against about
0.17 s through json.loads (medians on 2 shared vCPUs, Python 3.11,
numpy 2.4).

Decoding never validates the supermagic property - verification is an
explicit, separate step.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from typing import Mapping

import numpy as np

from .grid import GridDims, TorusMagicError, dims as make_dims
from .labeling import Labeling


class ParseError(TorusMagicError):
    """Document is not well-formed (bad JSON, bad types, labels below 1 or
    past the int64 range, bad edge lines)."""


class ShapeError(TorusMagicError):
    """Matrices or edge lines do not cover an n x m grid exactly."""


_LABEL_LIMIT = 2**63  # labels are stored as int64
_LABEL_DIGITS = 19  # every label below 2**63 has at most 19 digits
_DIGITS = b"0123456789"
_BOM = "\ufeff"  # a UTF-8 byte-order mark, as text


# The layout encode writes, around and inside its two matrix blocks.
_CLOSE = "\n  ]"
_VERTICAL = _CLOSE + ',\n  "vertical": '
_METADATA = _CLOSE + ',\n  "metadata": '
_END = "\n}\n"
_ROW_BREAK = "],\n    ["
# Cells per band: of a matrix block formatted, or checked and converted,
# and of a figure's elements woven, at a time.  A band's temporaries stay
# below glibc malloc's default mmap threshold (128 KiB): freeing larger ones
# raises the threshold, and a large render that follows in the same process
# then leaves more of its memory resident.
_BAND_CELLS = 4_096
# Each row's last field is followed by a row break, or in the last row by
# the block's closing bracket; zero bytes are dropped.
_ROW_BREAK_BYTES = np.frombuffer(_ROW_BREAK.encode("ascii"), dtype=np.uint8)
_LAST_ROW_END = np.frombuffer(b"]".ljust(len(_ROW_BREAK), b"\0"), dtype=np.uint8)


def bands(n: int, m: int) -> Iterator[slice]:
    """The rows of an n x m grid, top to bottom, as slices of about
    _BAND_CELLS cells and at least one row each."""
    step = max(1, _BAND_CELLS // m)
    for top in range(0, n, step):
        yield slice(top, min(n, top + step))


def write_decimal(values: np.ndarray, fields: np.ndarray) -> None:
    """Write non-negative integers in decimal into the uint8 array fields,
    whose last axis is as wide as the widest of them and whose other axes
    have the shape of values.

    Each value is split into digits by integer division on uint32 (on
    uint64 for fields of 10 digits and more) and written right-aligned,
    with zero bytes left of its first digit.  The units digit is always
    written, so 0 is written "0".
    """
    width = fields.shape[-1]
    values = values.astype(np.uint32 if width < 10 else np.uint64, copy=False)
    for col in range(width - 1, -1, -1):
        rest = values // 10
        digit = values - rest * 10
        digit += ord("0")
        if col < width - 1:
            digit *= values != 0  # no digit left of a value's first
        fields[..., col] = digit
        values = rest


def _matrix_block(matrix: np.ndarray) -> Iterator[str]:
    """A matrix block as encode writes it, "[\\n    [1, 2],\\n    [3, 4]",
    up to its closing "\\n  ]", in pieces of about _BAND_CELLS fields.

    Each band's labels are written by write_decimal into a zero-filled byte
    grid with a field of the band's widest label, ", " after each field and
    a row break after each row; the zero bytes left of the shorter labels
    are then dropped.  Labels must be positive.
    """
    n, m = matrix.shape
    yield "[\n    ["
    for rows in bands(n, m):
        band = matrix[rows]
        width = len(str(int(band.max())))
        # each field and its ", ", less the last ", ", then the row break
        grid = np.zeros((len(band), m * (width + 2) - 2 + len(_ROW_BREAK)), dtype=np.uint8)
        fields = grid[:, :m * (width + 2)].reshape(len(band), m, width + 2)
        fields[:, :, width] = ord(",")
        fields[:, :, width + 1] = ord(" ")
        write_decimal(band, fields[:, :, :width])
        grid[:, -len(_ROW_BREAK):] = _ROW_BREAK_BYTES  # over the last field's ", "
        if rows.stop == n:
            grid[-1, -len(_ROW_BREAK):] = _LAST_ROW_END
        yield grid[grid != 0].tobytes().decode("ascii")


def encode_pieces(lab: Labeling, metadata: Mapping[str, object] | None = None) -> Iterator[str]:
    """The document encode returns, as its header, one piece per band of
    each matrix block and its tail, each formatted when it is asked for."""
    yield f'{{\n  "n": {lab.dims.n},\n  "m": {lab.dims.m},\n  "horizontal": '
    yield from _matrix_block(lab.h)
    yield _VERTICAL
    yield from _matrix_block(lab.v)
    if metadata:  # json.dumps escapes every non-ASCII character
        yield _METADATA + json.dumps(dict(metadata), sort_keys=True) + _END
    else:
        yield _CLOSE + _END


def encode(lab: Labeling, metadata: Mapping[str, object] | None = None) -> str:
    """Serialize to the canonical JSON document (byte-stable across runs)."""
    return "".join(encode_pieces(lab, metadata))


def _require_int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _decode_json(text: str) -> Labeling:
    # a JSONDecodeError, an integer of over 4,300 digits, or nesting past
    # the recursion limit
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
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
        # raise for the first bad cell in row-major order
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                where = f"{key}[{i + 1}][{j + 1}]"
                _require_int(value, where)
                if value < 1:
                    raise ParseError(f"{where}: labels must be positive, got {value}")
                if value >= _LABEL_LIMIT:
                    raise ParseError(f"{where}: labels must be below 2**63, got {value}")
        return np.array(rows, dtype=np.int64)

    return Labeling(d, matrix("horizontal"), matrix("vertical"))


# encode's header lines.  A digit run of at most 9 digits keeps n*m and the
# skeleton arithmetic small.
_HEADER = re.compile(r'\{\n  "n": ([1-9][0-9]{0,8}),\n  "m": ([1-9][0-9]{0,8}),\n  "horizontal": ')


def _read_header(text: str) -> tuple[GridDims, int] | None:
    head = _HEADER.match(text)
    if head is None:
        return None
    try:
        return make_dims(int(head[1]), int(head[2])), head.end()
    except TorusMagicError:
        return None


def header_dims(text: str) -> GridDims | None:
    """The grid a document in encode's layout declares, read from its
    header lines without parsing the rest; None for any other text.  A
    leading byte-order mark is ignored, as decode ignores it."""
    head = _read_header(text.removeprefix(_BOM))
    return None if head is None else head[0]


def _digit_runs(chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the runs of ASCII digits in a byte array
    whose first and last bytes are not digits."""
    digit = (chars - np.uint8(48)) < 10
    bounds = np.flatnonzero(digit[1:] != digit[:-1])  # start, end, start, end, ... less one
    bounds += 1
    return bounds[0::2], bounds[1::2]


def _canonical_matrix(text: str, n: int, m: int) -> np.ndarray | None:
    """The n x m labels of one matrix block exactly as encode writes it, or
    None.  Bytes, sizes and ranges decide; numpy only converts digits.

    The rows are checked and converted a band of about _BAND_CELLS fields
    at a time, so that no temporary is larger than one band's text.
    """
    cells = n * m
    # "[\n    " + n rows of "[" + (m-1) ", " + "]" joined by ",\n    " + "\n  ]"
    if len(text) < 2 * cells + 6 * n + 4 + cells:
        return None  # too short for a digit per field: build no skeleton longer than the text
    if not (text.isascii() and text.startswith("[\n    [") and text.endswith("]\n  ]")):
        return None
    rows = text[7:-5].split(_ROW_BREAK)
    if len(rows) != n:
        return None
    out = np.empty((n, m), dtype=np.uint64)
    row = b", " * (m - 1)
    for band_rows in bands(n, m):
        height = band_rows.stop - band_rows.start
        # newlines end the band's rows, so that numpy reads ",\n" as one separator
        band = ("\n" + ",\n".join(rows[band_rows]) + "\n").encode("ascii")
        if band.translate(None, _DIGITS) != b"\n" + b",\n".join([row] * height) + b"\n":
            return None
        chars = np.frombuffer(band, dtype=np.uint8)
        starts, ends = _digit_runs(chars)
        # one digit run per field; a leading "0" is either the label 0 or a leading zero
        if (starts.size != height * m or (ends - starts).max() > _LABEL_DIGITS
                or (chars[starts] == ord("0")).any()):
            return None
        # runs of at most 19 digits fit uint64 exactly
        values = np.fromstring(band, dtype=np.uint64, sep=",")
        if values.size != height * m or values.max() >= np.uint64(_LABEL_LIMIT):
            return None
        out[band_rows] = values.reshape(height, m)
    return out.view(np.int64)


def _decode_canonical(text: str) -> Labeling | None:
    """The labeling of a document in exactly encode's layout, or None.

    Accepted text is the header, two matrix blocks that pass the checks of
    _canonical_matrix, and either no metadata or one JSON object: then
    json.loads would give the same four fields, and _decode_json the same
    labeling.  Anything else is left to _decode_json and its errors.
    """
    head = _read_header(text)
    if head is None:
        return None
    d, h_start = head
    h_close = text.find(_VERTICAL, h_start)
    if h_close < 0:
        return None
    v_start = h_close + len(_VERTICAL)
    # a matrix block that passes holds no quote, so the first match is its end
    v_close = text.find(_METADATA, v_start)
    if v_close >= 0 and text.endswith(_END):
        meta_start = v_close + len(_METADATA)
    elif v_close < 0 and text.endswith(_CLOSE + _END):
        v_close, meta_start = len(text) - len(_CLOSE + _END), None
    else:
        return None
    h = _canonical_matrix(text[h_start:h_close + len(_CLOSE)], d.n, d.m)
    v = None if h is None else _canonical_matrix(text[v_start:v_close + len(_CLOSE)], d.n, d.m)
    if v is None:
        return None
    if meta_start is not None:
        try:
            metadata = json.loads(text[meta_start:-len(_END)])
        except (ValueError, RecursionError):
            return None
        # one object: no top-level key can follow it and override n, m or a matrix
        if not isinstance(metadata, dict):
            return None
    return Labeling(d, h, v)


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
    """Parse a labeling document (JSON or edge-list, auto-detected).  One
    leading byte-order mark, which RFC 8259 lets a JSON parser ignore, is
    dropped first."""
    text = text.removeprefix(_BOM)
    lab = _decode_canonical(text)
    if lab is not None:
        return lab
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty document")
    if stripped.startswith("{"):
        return _decode_json(text)
    return _decode_edge_list(text)
