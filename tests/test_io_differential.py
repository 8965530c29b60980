"""The row-wise document codec and figure renderer against the per-edge
reference in scalar_reference.py.

encode and render must give the reference's bytes for every format,
annotation and highlight setting.  decode must give the reference's
labeling, or raise the reference's error type with its message, on
malformed matrices.  Two differences are intended: a non-positive label
raises ParseError where the reference raised a bare ValueError, and a
label past the int64 range raises ParseError naming the cell where the
reference raised a bare OverflowError.
Finally, none of these paths may build an EdgeRef or a VertexRef.
"""

import importlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from torusmagic.construct import construct
from torusmagic.grid import EdgeRef, VertexRef, dims
from torusmagic.labeling import Labeling
from torusmagic.render import RenderSpec, render
from torusmagic.serialize import ParseError, decode, encode

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


@pytest.mark.parametrize("fmt,annotate", [("svg", "weights"), ("dot", "corners")])
def test_render_matches_reference_across_bands(fmt, annotate):
    render_module = importlib.import_module("torusmagic.render")
    n, m = 131, 63  # bands of 65, 65 and 1 rows
    assert 2 * render_module._BAND_CELLS < n * m < 3 * render_module._BAND_CELLS
    lab = shuffled(n, m, seed=5)
    spec = RenderSpec(format=fmt, annotate=annotate, highlight_diagonals=True)
    assert render(lab, spec).encode() == ref.render(lab, spec).encode()


def test_render_matches_reference_in_short_bands(monkeypatch):
    render_module = importlib.import_module("torusmagic.render")
    monkeypatch.setattr(render_module, "_BAND_CELLS", 200)  # 3 rows a band, then 2
    lab = shuffled(41, 63, seed=7)
    for spec in SPECS:
        assert render(lab, spec).encode() == ref.render(lab, spec).encode()


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
