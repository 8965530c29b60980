"""The row-wise document codec and figure renderer against the per-edge
reference in scalar_reference.py.

encode and render must give the reference's bytes for every format,
annotation and highlight setting.  decode must give the reference's
labeling, or raise the reference's error type with its message, on
malformed matrices.  Two differences are intended: a non-positive label
raises ParseError where the reference raised a bare ValueError, and a
label past the int64 range raises ParseError naming the cell where the
reference raised a bare OverflowError.
decode's canonical route, which reads documents in exactly encode's
layout with byte checks and one numpy parse per band of rows, must agree
with the json.loads decoder on every input, canonical or not.
Finally, none of these paths may build an EdgeRef or a VertexRef.
"""

import hashlib
import importlib
import json
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from torusmagic.construct import construct
from torusmagic.grid import EdgeRef, VertexRef, dims
from torusmagic.labeling import Labeling
from torusmagic.render import RenderSpec, render, render_pieces
from torusmagic.cli import main
from torusmagic.serialize import (ParseError, ShapeError, _decode_canonical, _decode_json, decode,
                                  encode)

SHAPES = [(3, 3), (4, 6), (9, 15), (12, 8), (15, 9)]


def shuffled(n, m, seed=0):
    """A random bijective labeling: non-uniform weights and corner sums."""
    q = 2 * n * m
    flat = np.array(random.Random(seed).sample(range(1, q + 1), q), dtype=np.int64)
    return Labeling(dims(n, m), flat[: n * m].reshape(n, m), flat[n * m:].reshape(n, m))


@pytest.mark.parametrize("n,m", SHAPES)
@pytest.mark.parametrize("fmt", ["svg", "dot"])
@pytest.mark.parametrize("annotate", ["labels", "weights", "corners"])
@pytest.mark.parametrize("highlight", [False, True])
def test_render_matches_reference(n, m, fmt, annotate, highlight):
    spec = RenderSpec(format=fmt, annotate=annotate, highlight_diagonals=highlight)
    for lab in (construct(n, m), shuffled(n, m)):
        assert render(lab, spec).encode() == ref.render(lab, spec).encode()


SPECS = [RenderSpec(format=fmt, annotate=annotate, highlight_diagonals=highlight)
         for fmt in ("svg", "dot") for annotate in ("labels", "weights", "corners")
         for highlight in (False, True)]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 14), st.integers(3, 14), st.integers(0, 2**32 - 1))
def test_render_matches_reference_on_random_labelings(n, m, seed):
    # covers n > m, n < m, and n or m = 3, where a third of a column or row is wrap edges
    lab = shuffled(n, m, seed)
    for spec in SPECS:
        assert render(lab, spec).encode() == ref.render(lab, spec).encode()


# render weaves its figure in serialize's bands
@pytest.mark.parametrize("fmt,annotate", [("svg", "weights"), ("dot", "corners")])
def test_render_matches_reference_across_bands(fmt, annotate):
    serialize_module = importlib.import_module("torusmagic.serialize")
    n, m = 131, 63  # bands of 65, 65 and 1 rows
    assert 2 * serialize_module._BAND_CELLS < n * m < 3 * serialize_module._BAND_CELLS
    lab = shuffled(n, m, seed=5)
    spec = RenderSpec(format=fmt, annotate=annotate, highlight_diagonals=True)
    assert render(lab, spec).encode() == ref.render(lab, spec).encode()


def test_render_matches_reference_in_short_bands(monkeypatch):
    serialize_module = importlib.import_module("torusmagic.serialize")
    monkeypatch.setattr(serialize_module, "_BAND_CELLS", 200)  # 3 rows a band, then 2
    lab = shuffled(41, 63, seed=7)
    for spec in SPECS:
        assert render(lab, spec).encode() == ref.render(lab, spec).encode()
    # a header, 14 bands in each of three grids, and a footer
    spec = RenderSpec(format="svg")
    assert len(list(render_pieces(lab, spec))) == 2 + 3 * 14


@pytest.mark.parametrize("n,m", SHAPES)
def test_encode_and_decode_match_reference(n, m):
    meta = {"generator": "construct", "plan": {"start_cols": [1, 2]}, "constant": 4 * n * m + 2}
    for lab in (construct(n, m), shuffled(n, m)):
        for metadata in (None, meta):
            text = encode(lab, metadata=metadata)
            assert text.encode() == ref.encode(lab, metadata=metadata).encode()
            assert decode(text) == ref._decode_json(text) == lab


def outcome(decoder, text):
    try:
        return "ok", decoder(text)
    except Exception as exc:
        return type(exc), str(exc)


def reference_outcome(text):
    kind, value = outcome(ref._decode_json, text)
    if kind is ValueError and "labels must be positive" in value:
        return ParseError, value  # intended: a typed error, same message
    if kind is OverflowError:
        return ParseError, overflow_message(json.loads(text))  # intended: a typed error
    return kind, value


def overflow_message(doc):
    # The reference overflows at the first bad cell, so every cell before
    # it is a good label and the first one past int64 is that cell.
    for key in ("horizontal", "vertical"):
        for i, row in enumerate(doc[key]):
            for j, value in enumerate(row):
                if type(value) is int and value >= 2**63:
                    return f"{key}[{i + 1}][{j + 1}]: labels must be below 2**63, got {value}"


BAD_VALUES = [True, False, 1.5, 2.0, 0, -1, -(2**40), 2**63, 2**70, -(2**63) - 1, None, "7"]
DOCS = {shape: json.loads(encode(construct(*shape))) for shape in [(3, 3), (4, 6), (9, 3)]}


@st.composite
def malformed_documents(draw):
    n, m = draw(st.sampled_from(sorted(DOCS)))
    doc = json.loads(json.dumps(DOCS[(n, m)]))
    cells = st.tuples(st.sampled_from(["horizontal", "vertical"]), st.integers(0, n - 1),
                      st.integers(0, m - 1), st.sampled_from(BAD_VALUES))
    for key, i, j, value in draw(st.lists(cells, min_size=1, max_size=4)):
        doc[key][i][j] = value
    ragged = draw(st.sampled_from([None, "short", "long"]))
    if ragged:
        row = doc[draw(st.sampled_from(["horizontal", "vertical"]))][draw(st.integers(0, n - 1))]
        row.pop() if ragged == "short" else row.append(1)
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(malformed_documents())
def test_decode_errors_match_reference(text):
    new = outcome(decode, text)
    assert new[0] != "ok"
    assert new == reference_outcome(text)


def test_first_bad_cell_in_row_major_order_wins():
    doc = json.loads(encode(construct(4, 6)))
    doc["vertical"][0][0] = 1.5
    doc["horizontal"][2][0] = 0
    doc["horizontal"][1][4] = 2**63
    doc["horizontal"][1][5] = True
    text = json.dumps(doc)
    assert outcome(ref._decode_json, text)[0] is OverflowError
    assert outcome(decode, text) == reference_outcome(text)
    with pytest.raises(ParseError, match=r"^horizontal\[2\]\[5\]: labels must be below 2\*\*63, "
                                         r"got 9223372036854775808$"):
        decode(text)
    doc["horizontal"][1][4] = -3
    with pytest.raises(ParseError, match=r"^horizontal\[2\]\[5\]: labels must be positive, got -3$"):
        decode(json.dumps(doc))
    doc["horizontal"][1][4] = 5
    with pytest.raises(ParseError, match=r"^horizontal\[2\]\[6\]: expected an integer, got True$"):
        decode(json.dumps(doc))


def test_io_builds_no_edge_or_vertex_objects(monkeypatch):
    lab = construct(12, 8)
    edge_list = "\n".join(f"{o} {i + 1} {j + 1} {mat[i, j]}"
                          for o, mat in (("H", lab.h), ("V", lab.v))
                          for i in range(12) for j in range(8))
    calls = []
    edge_post_init, vertex_init = EdgeRef.__post_init__, VertexRef.__init__

    def counted_edge(self):
        calls.append("EdgeRef")
        edge_post_init(self)

    def counted_vertex(self, *args, **kwargs):
        calls.append("VertexRef")
        vertex_init(self, *args, **kwargs)

    monkeypatch.setattr(EdgeRef, "__post_init__", counted_edge)
    monkeypatch.setattr(VertexRef, "__init__", counted_vertex)
    EdgeRef("H", 1, 1)
    VertexRef(1, 1)
    assert calls == ["EdgeRef", "VertexRef"]  # the counters see every construction
    calls.clear()

    text = encode(lab, metadata={"generator": "construct"})
    assert decode(text) == lab
    assert decode(edge_list) == lab
    for fmt in ("svg", "dot"):
        for annotate in ("labels", "weights", "corners"):
            for highlight in (False, True):
                render(lab, RenderSpec(format=fmt, annotate=annotate, highlight_diagonals=highlight))
    assert calls == []


# --- the canonical route against json.loads ---------------------------------


def layout(n, m, h_rows, v_rows, metadata=None):
    """encode's layout over rows of token strings, so any token can be planted."""
    def block(rows):
        return "[\n    " + ",\n    ".join("[" + ", ".join(row) + "]" for row in rows) + "\n  ]"

    parts = [f'  "n": {n}', f'  "m": {m}', f'  "horizontal": {block(h_rows)}',
             f'  "vertical": {block(v_rows)}']
    if metadata is not None:
        parts.append(f'  "metadata": {metadata}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def routes_agree(text):
    """decode and _decode_json give the same labeling or the same error,
    with every warning raised as an error; returns decode's outcome."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new = outcome(decode, text)
        assert new == outcome(_decode_json, text)
    return new


def token_rows(matrix):
    return [[str(value) for value in row] for row in matrix.tolist()]


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                        st.lists(st.integers(), max_size=3))


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 12), st.integers(3, 12), st.integers(0, 2**32 - 1), st.booleans(),
       st.none() | st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4))
def test_canonical_route_matches_json_on_random_labelings(n, m, seed, wide, metadata):
    if wide:  # labels of up to 19 digits, the largest int64 included
        rng = np.random.default_rng(seed)
        h, v = rng.integers(1, 2**63, size=(2, n, m), dtype=np.int64)
        h[0, 0] = 2**63 - 1
        lab = Labeling(dims(n, m), h, v)
    else:
        lab = shuffled(n, m, seed)
    text = encode(lab, metadata=metadata)
    assert routes_agree(text) == ("ok", lab)
    assert _decode_canonical(text) == lab  # taken, not left to json.loads


BASES = [(3, 3, None), (4, 6, None), (9, 3, '{"constant": 110, "generator": "construct"}')]
CELLS = [("horizontal", 0, 0), ("horizontal", -1, -1), ("vertical", 1, 2), ("vertical", -1, 0)]
# a token planted in one field; only the largest int64 still takes the canonical route
BAD_TOKENS = ["07", "00", "0", "-5", "+5", "2.0", "1e3", "true", "null", "", " ", "\u0663",
              "\uff15", "1_0", "0x1f", str(2**63), "9" * 19, "1" * 20, "4" * 70, "[3]", '"7"']


def mutated_from(lab, edit, metadata=None):
    rows = {"horizontal": token_rows(lab.h), "vertical": token_rows(lab.v)}
    edit(rows)
    return layout(lab.dims.n, lab.dims.m, rows["horizontal"], rows["vertical"], metadata)


def mutated(n, m, metadata, edit):
    return mutated_from(shuffled(n, m, seed=n * m), edit, metadata)


@pytest.mark.parametrize("n,m,metadata", BASES)
@pytest.mark.parametrize("key,i,j", CELLS)
@pytest.mark.parametrize("token", BAD_TOKENS + [str(2**63 - 1)])
def test_canonical_route_on_a_planted_token(n, m, metadata, key, i, j, token):
    def plant(rows):
        rows[key][i][j] = token

    text = mutated(n, m, metadata, plant)
    result = routes_agree(text)
    if token == str(2**63 - 1):
        assert result[0] == "ok" and _decode_canonical(text) == result[1]
    else:
        assert result[0] != "ok" and _decode_canonical(text) is None


SHAPE_EDITS = {
    "extra field": lambda rows: rows["horizontal"][1].append("5"),
    "missing field": lambda rows: rows["vertical"][-1].pop(),
    "extra row": lambda rows: rows["vertical"].append(list(rows["vertical"][0])),
    "missing row": lambda rows: rows["horizontal"].pop(0),
    "all rows short": lambda rows: [row.pop() for row in rows["horizontal"]],
    "empty matrix": lambda rows: rows["vertical"].clear(),
    "field moved to the next row": lambda rows: rows["horizontal"][1].append(
        rows["horizontal"][2].pop(0)),
    "field moved to the row before": lambda rows: rows["vertical"][-2].append(
        rows["vertical"][-1].pop(0)),
}


@pytest.mark.parametrize("n,m,metadata", BASES)
@pytest.mark.parametrize("edit", sorted(SHAPE_EDITS))
def test_canonical_route_on_a_wrong_shape(n, m, metadata, edit):
    text = mutated(n, m, metadata, SHAPE_EDITS[edit])
    assert routes_agree(text)[0] is ShapeError
    assert _decode_canonical(text) is None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(BASES), st.data())
def test_canonical_route_on_an_edited_byte(base, data):
    # one byte of a matrix block replaced, deleted or doubled; a digit for a
    # digit keeps the document canonical, everything else must leave the route
    n, m, metadata = base
    text = mutated(n, m, metadata, lambda rows: None)
    lo = text.index('"horizontal": ') + len('"horizontal": ')
    hi = text.rindex("]") + 1
    at = data.draw(st.integers(lo, hi - 1))
    new = data.draw(st.sampled_from(["", text[at] * 2, *"0123456789", " ", ",", "[", "]", "\n",
                                     "\t", "-", "+", ".", "e", "\r", "\u0663", '"', "}", "{"]))
    edited = text[:at] + new + text[at + 1:]
    result = routes_agree(edited)
    if _decode_canonical(edited) is not None:
        assert result[0] == "ok"


def wrapping_fromstring(string, dtype, sep):
    """np.fromstring as a parser that wraps an overflowing field modulo
    2**64 instead of refusing it, as numpy 1.x may do."""
    fields = string.replace(sep.encode(), b" ").split()
    return np.array([int(field) % 2**64 for field in fields], dtype=np.uint64).astype(dtype)


@pytest.mark.parametrize("token", [str(2**64 + 5), str(2**64 * 10 + 5), str(2**65 + 2**63 + 5)])
def test_canonical_route_does_not_rely_on_numpy_refusing_overflow(token, monkeypatch):
    text = mutated(3, 3, None, lambda rows: rows["vertical"][1].__setitem__(2, token))
    monkeypatch.setattr(np, "fromstring", wrapping_fromstring)
    assert _decode_canonical(text) is None
    with pytest.raises(ParseError, match=rf"^vertical\[2\]\[3\]: labels must be below 2\*\*63, "
                                         rf"got {token}$"):
        decode(text)


def test_edge_list_does_not_rely_on_numpy_refusing_overflow(monkeypatch):
    lab = construct(3, 3)
    lines = [f"{o} {i + 1} {j + 1} {mat[i, j]}" for o, mat in (("H", lab.h), ("V", lab.v))
             for i in range(3) for j in range(3)]
    lines[-1] = f"V 3 3 {2**64 + int(lab.v[2, 2])}"  # wraps to the right label
    monkeypatch.setattr(np, "fromstring", wrapping_fromstring)
    with pytest.raises(ParseError, match=r"^line 18: labels must be below 2\*\*63"):
        decode("\n".join(lines))


def around(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def base_text(metadata='{"generator": "construct"}'):
    lab = shuffled(4, 6, seed=3)
    return layout(4, 6, token_rows(lab.h), token_rows(lab.v), metadata)


SURROUNDINGS = {
    "n repeated after the metadata": around(base_text(), "}\n}\n", '},\n  "n": 5\n}\n'),
    "horizontal repeated after the metadata": around(
        base_text(), "}\n}\n", '},\n  "horizontal": ' + json.dumps(token_rows(np.ones((4, 6), int)))
        .replace('"', "") + "\n}\n"),
    "vertical repeated without metadata": around(
        base_text(None), "\n  ]\n}\n", "\n  ],\n  \"vertical\": [[1, 1, 1, 1, 1, 1]]\n}\n"),
    "n repeated inside the metadata's text": around(base_text(), '"construct"}',
                                                    '"construct"}, "n": 3'),
    "metadata a list": base_text("[1, 2]"),
    "metadata a number": base_text("5"),
    "metadata a string": base_text('"construct"'),
    "metadata null": base_text("null"),
    "metadata empty": base_text("{}"),
    "metadata not JSON": base_text("{generator: construct}"),
    "metadata unclosed": base_text('{"a": [1, 2}'),
    "metadata with a 5000-digit integer": base_text('{"a": ' + "7" * 5000 + "}"),
    "metadata not ASCII": base_text('{"g\u00e9n\u00e9rateur": "\u2713"}'),
    "leading space": " " + base_text(),
    "leading newline": "\n" + base_text(),
    "no final newline": base_text()[:-1],
    "two final newlines": base_text() + "\n",
    "trailing space": base_text() + " ",
    "CRLF line ends": base_text().replace("\n", "\r\n"),
    "doubled space in a row": around(base_text(), ", ", ",  "),
    "space before a row's end": around(base_text(), "],\n", " ],\n"),
    "space before a line end": around(base_text(), ",\n    [", ", \n    ["),
    "five-space indent": around(base_text(), "\n    [", "\n     ["),
    "tab indent": around(base_text(), "\n    [", "\n\t["),
    "space before the metadata key": around(base_text(), '  "metadata"', '   "metadata"'),
    "header space": around(base_text(), '"n": 4', '"n":  4'),
    "header leading zero": around(base_text(), '"n": 4', '"n": 04'),
    "header n of 2": around(base_text(), '"n": 4', '"n": 2'),
    "header n of 0": around(base_text(), '"n": 4', '"n": 0'),
    "header n of 10 digits": around(base_text(), '"n": 4', '"n": 4000000000'),
    "header n a float": around(base_text(), '"n": 4', '"n": 4.0'),
    "header m before n": around(around(base_text(), '"n": 4', '"@": 4'), '"m": 6', '"n": 4'),
}


@pytest.mark.parametrize("name", sorted(SURROUNDINGS))
def test_canonical_route_on_edited_surroundings(name):
    text = SURROUNDINGS[name]
    routes_agree(text)
    if name not in ("metadata empty", "metadata not ASCII"):
        assert _decode_canonical(text) is None


@pytest.mark.parametrize("band_cells", [1, 4, 6, 13, 10_000])
def test_canonical_route_across_bands(band_cells, monkeypatch):
    # bands of 1, 1, 1, 2 and 9 rows of 6 fields; a bad field in any band refuses the route
    monkeypatch.setattr(importlib.import_module("torusmagic.serialize"), "_BAND_CELLS", band_cells)
    lab = shuffled(9, 6, seed=5)
    text = encode(lab)
    assert routes_agree(text) == ("ok", lab) and _decode_canonical(text) == lab
    for key in ("horizontal", "vertical"):
        for i in range(9):
            for token in ("0", "", "1" * 20, "+5"):
                def plant(rows):
                    rows[key][i][i % 6] = token

                planted = mutated_from(lab, plant)
                assert routes_agree(planted)[0] is ParseError
                assert _decode_canonical(planted) is None
    for edit in ("field moved to the next row", "extra row", "missing row"):
        reshaped = mutated_from(lab, SHAPE_EDITS[edit])
        assert routes_agree(reshaped)[0] is ShapeError and _decode_canonical(reshaped) is None


def test_canonical_route_on_a_grid_of_several_bands():
    lab = shuffled(60, 100, seed=7)  # 40 rows to a band of 4,096 fields
    text = encode(lab, metadata={"generator": "shuffled"})
    assert routes_agree(text) == ("ok", lab) and _decode_canonical(text) == lab
    bad = mutated_from(lab, lambda rows: rows["vertical"][55].__setitem__(99, "0"))
    assert routes_agree(bad)[0] is ParseError and _decode_canonical(bad) is None


def test_generated_documents_take_the_canonical_route(tmp_path, monkeypatch):
    serialize_module = importlib.import_module("torusmagic.serialize")

    def no_json(text):
        raise AssertionError("a generated document was left to json.loads")

    for n, m in [(3, 3), (4, 6), (9, 15)]:
        path = tmp_path / f"{n}x{m}.json"
        assert main(["generate", str(n), str(m), "--out", str(path)]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(serialize_module, "_decode_json", no_json)
            assert decode(path.read_text()) == construct(n, m)


@pytest.mark.parametrize("n,m", [(100_000, 100_000), (3, 100_000_000)])
def test_a_huge_header_over_a_small_body_builds_no_skeleton(n, m):
    # the skeleton of a row of 100,000,000 fields alone would take 200 MB
    text = encode(construct(3, 3))
    text = around(around(text, '"n": 3', f'"n": {n}'), '"m": 3', f'"m": {m}')
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match=rf"^horizontal: expected {n} rows x {m} columns$"):
            decode(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# --- encode's banded integer formatter ---------------------------------------

def mixed_width_labeling(n, m, low, high, seed, plant_max=False):
    """Labels of every digit width from low to high, mixed within each row,
    with 2**63 - 1 planted at one cell when plant_max is set."""
    rng = np.random.default_rng(seed)
    widths = rng.integers(low, high, size=(2, n, m), endpoint=True)
    smallest = (10 ** (widths - 1)).astype(np.int64)
    largest = np.minimum(10 ** widths.astype(object) - 1, 2**63 - 1).astype(np.int64)
    labels = rng.integers(smallest, largest, endpoint=True, dtype=np.int64)
    if plant_max:
        labels[tuple(rng.integers(0, (2, n, m)))] = 2**63 - 1
    return Labeling(dims(n, m), labels[0], labels[1])


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 40), st.integers(3, 40), st.integers(1, 19), st.integers(1, 19),
       st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_encode_matches_reference_on_labels_of_every_width(n, m, w1, w2, seed, plant_max,
                                                           metadata):
    lab = mixed_width_labeling(n, m, min(w1, w2), max(w1, w2), seed, plant_max)
    meta = {"generator": "mixed", "seed": seed} if metadata else None
    assert encode(lab, metadata=meta).encode() == ref.encode(lab, metadata=meta).encode()


def test_encode_matches_reference_on_every_single_width():
    for width in range(1, 20):
        lab = mixed_width_labeling(7, 11, width, width, seed=width)
        assert encode(lab).encode() == ref.encode(lab).encode()
    extremes = np.array([[1, 9, 10, 2**32 - 1, 2**32, 2**63 - 1]] * 3, dtype=np.int64)
    lab = Labeling(dims(3, 6), extremes, extremes[:, ::-1].copy())
    assert encode(lab).encode() == ref.encode(lab).encode()


@pytest.mark.parametrize("band_cells,bands", [(1, [1] * 7), (5, [1] * 7), (15, [3, 3, 1]),
                                              (34, [6, 1]), (10_000, [7])])
def test_encode_matches_reference_across_bands(band_cells, bands, monkeypatch):
    # one row to a band, a last band of one row, and a single band, on 7 rows of 5
    serialize_module = importlib.import_module("torusmagic.serialize")
    monkeypatch.setattr(serialize_module, "_BAND_CELLS", band_cells)
    step = max(1, band_cells // 5)
    assert [min(step, 7 - top) for top in range(0, 7, step)] == bands
    for lab in (mixed_width_labeling(7, 5, 1, 19, seed=band_cells), shuffled(7, 5),
                construct(3, 3).transpose()):
        assert encode(lab).encode() == ref.encode(lab).encode()


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.uint64])
def test_integer_dtypes_encode_like_int64(dtype):
    for lab in (construct(9, 15), shuffled(12, 8)):
        typed = Labeling(lab.dims, lab.h.astype(dtype), lab.v.astype(dtype))
        assert encode(typed, metadata={"k": 1}) == encode(lab, metadata={"k": 1})
    if dtype is np.uint64:
        lab = mixed_width_labeling(5, 9, 1, 19, seed=3, plant_max=True)
        typed = Labeling(lab.dims, lab.h.astype(dtype), lab.v.astype(dtype))
        assert encode(typed) == encode(lab)


# sha256 of encode(construct(n, m)), written by the per-row json.dumps encoder
ENCODE_SHA256 = {
    (3, 3): "dc94133cda248702e4901cb2dc8e2314aeee53a3784e047b037c443e01efc7b4",
    (12, 12): "eba2f39ef7e6a8e12b4e4cf4f05158fc58c1aa2bfc4583b36fdd708b5faef86b",
    (9, 15): "fcf68a9744ad3a933360e7d569ce47cbfc8a57a6bea14238cf472d90e2dc9822",
    (15, 9): "ae2a27cd9f7feaa72ccf2165dbb6dc960b462130f959c56a11788875cf5b28a3",
    (201, 303): "163ca2792a988be67b7424d83701226269a72f63c0977392b650681592ccedc8",
}


@pytest.mark.parametrize("n,m", sorted(ENCODE_SHA256))
def test_encode_of_constructions_is_pinned(n, m):
    assert hashlib.sha256(encode(construct(n, m)).encode()).hexdigest() == ENCODE_SHA256[n, m]


def test_encode_holds_at_most_two_and_a_half_documents():
    lab = construct(400, 400)
    tracemalloc.start()
    try:
        text = encode(lab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)
