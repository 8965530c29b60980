import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from scalar_reference import all_edges, label
from torusmagic.construct import construct
from torusmagic.grid import DimensionTooSmall, TorusMagicError, dims
from torusmagic.labeling import Labeling
from torusmagic.serialize import (
    ParseError,
    ShapeError,
    decode,
    encode,
    header_dims,
    write_decimal,
)


def random_labeling(rng, n, m):
    q = 2 * n * m
    flat = np.array(rng.sample(range(1, q + 1), q), dtype=np.int64)
    return Labeling(dims(n, m), flat[: n * m].reshape(n, m), flat[n * m:].reshape(n, m))


def test_encode_golden_document():
    text = encode(construct(3, 3))
    doc = json.loads(text)
    assert list(doc) == ["n", "m", "horizontal", "vertical"]
    assert doc["n"] == 3 and doc["m"] == 3
    assert doc["horizontal"] == [[1, 4, 9], [8, 2, 5], [6, 7, 3]]
    assert doc["vertical"] == [[12, 18, 14], [13, 10, 17], [16, 15, 11]]
    assert text.endswith("\n")


def test_encode_metadata_and_determinism():
    lab = construct(4, 6)
    meta = {"generator": "construct", "constant": 98}
    assert encode(lab, metadata=meta) == encode(lab, metadata=meta)
    doc = json.loads(encode(lab, metadata=meta))
    assert doc["metadata"] == meta
    assert encode(lab) == encode(lab)


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
# widths change at 9/10 and 99/100; uint32 gives way to uint64 at 2**32
BOUNDARIES = [0, 9, 10, 99, 100, 2**32 - 1, 2**32, 2**63 - 1]


def int_arrays(dtype):
    top = int(np.iinfo(dtype).max)
    values = st.integers(0, top) | st.sampled_from([b for b in BOUNDARIES if b <= top])
    return st.lists(values, min_size=1, max_size=40).map(lambda vs: np.array(vs, dtype=dtype))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(INT_DTYPES).flatmap(int_arrays))
def test_write_decimal_matches_str(values):
    texts = [str(v) for v in values.tolist()]
    width = max(map(len, texts))
    fields = np.full((values.size, width), 255, dtype=np.uint8)
    write_decimal(values, fields)
    # right-aligned, zero bytes on the left, and 0 written "0"
    assert [row.tobytes() for row in fields] == [t.encode().rjust(width, b"\0") for t in texts]


def test_write_decimal_writes_every_boundary():
    values = np.array(BOUNDARIES, dtype=np.uint64).reshape(2, 4)
    fields = np.zeros((2, 4, 19), dtype=np.uint8)
    write_decimal(values, fields)
    texts = [f[f != 0].tobytes().decode() for f in fields.reshape(8, 19)]
    assert texts == list(map(str, BOUNDARIES))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(INT_DTYPES), st.integers(3, 7), st.data())
def test_encode_writes_every_dtype_as_json_does(dtype, m, data):
    top = min(int(np.iinfo(dtype).max), 2**63 - 1)
    values = st.integers(1, top) | st.sampled_from([b for b in BOUNDARIES if 1 <= b <= top])
    flat = data.draw(st.lists(values, min_size=6 * m, max_size=6 * m))
    h, v = np.array(flat, dtype=dtype).reshape(2, 3, m)
    lab = Labeling(dims(3, m), h, v)
    assert encode(lab) == ref.encode(lab)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False),
       st.integers(3, 8), st.integers(3, 8))
def test_roundtrip_random_labelings(rng, n, m):
    lab = random_labeling(rng, n, m)
    assert decode(encode(lab)) == lab


def test_decode_rejects_malformed_json():
    with pytest.raises(ParseError):
        decode('{"n": 3, "m": 3, "horizontal": [[1]]')  # truncated
    with pytest.raises(ParseError):
        decode('{"n": 3, "m": 3}')  # missing matrices
    with pytest.raises(ParseError):
        decode('{"n": "three", "m": 3, "horizontal": [], "vertical": []}')
    with pytest.raises(ParseError, match="^not valid JSON"):  # json.loads raises RecursionError
        decode('{"n": 3, "m": 3, "horizontal": ' + "[" * 100_000 + "]" * 100_000 + ', "vertical": []}')


def test_decode_rejects_wrong_shape():
    lab = construct(3, 3)
    doc = json.loads(encode(lab))
    doc["horizontal"] = doc["horizontal"][:2]  # 2x3 with n=3
    with pytest.raises(ShapeError):
        decode(json.dumps(doc))


def test_decode_rejects_nonpositive_entry():
    lab = construct(3, 3)
    doc = json.loads(encode(lab))
    doc["vertical"][0][0] = 0
    with pytest.raises(ParseError, match=r"^vertical\[1\]\[1\]: labels must be positive, got 0$"):
        decode(json.dumps(doc))


def test_edge_list_rejects_nonpositive_label():
    with pytest.raises(ParseError, match=r"^line 2: labels must be positive, got -4$"):
        decode("H 1 1 1\nV 1 1 -4\n")


def test_decode_rejects_label_past_int64():
    doc = json.loads(encode(construct(3, 3)))
    doc["vertical"][1][2] = 2**63
    with pytest.raises(ParseError, match=r"^vertical\[2\]\[3\]: labels must be below 2\*\*63, "
                                         r"got 9223372036854775808$"):
        decode(json.dumps(doc))
    doc["vertical"][1][2] = 2**63 - 1  # the largest int64 decodes; verify flags it
    assert decode(json.dumps(doc)).v[1, 2] == 2**63 - 1


def test_edge_list_rejects_label_past_int64():
    with pytest.raises(ParseError, match=r"^line 2: labels must be below 2\*\*63, got 2{70}$"):
        decode("H 1 1 1\nV 1 1 " + "2" * 70 + "\n")


def test_decode_rejects_bool_entry():
    lab = construct(3, 3)
    doc = json.loads(encode(lab))
    doc["horizontal"][0][0] = True
    with pytest.raises(ParseError):
        decode(json.dumps(doc))


def test_edge_list_roundtrip():
    lab = construct(3, 3)
    lines = ["# hand-written labeling"]
    for e in all_edges(lab.dims):
        lines.append(f"{e.orient} {e.i} {e.j} {label(lab, e)}")
    assert decode("\n".join(lines)) == lab


def test_edge_list_rejects_duplicates_and_gaps():
    with pytest.raises(ShapeError):
        decode("H 1 1 1\nH 1 1 2\n")
    # grid inferred as 3x3 from max indices but V block absent
    text = "\n".join(f"H {i} {j} {3 * (i - 1) + j}"
                     for i in range(1, 4) for j in range(1, 4))
    with pytest.raises(ShapeError):
        decode(text)

    lines = [f"{e.orient} {e.i} {e.j} {label(construct(3, 3), e)}" for e in all_edges(dims(3, 3))]
    # one edge missing: 17 of the 18 edges
    with pytest.raises(ShapeError, match=r"^expected 18 edges for a 3x3 grid, got 17$"):
        decode("\n".join(lines[:-1]))
    # 18 distinct keys, one of them off the grid, so one edge is not covered
    with pytest.raises(ShapeError, match=r"^edge V\(0,3\) out of the 3x3 grid$"):
        decode("\n".join(lines[:-1] + ["V 0 3 11"]))
    # a duplicate key is refused at its line, whatever the count
    with pytest.raises(ShapeError, match=r"^line 19: duplicate edge V\(3,3\)$"):
        decode("\n".join(lines + ["V 3 3 11"]))


def test_edge_list_rejects_garbage():
    with pytest.raises(ParseError):
        decode("H one 1 5\n")
    with pytest.raises(ParseError):
        decode("diagonal 1 1 5\n")


def test_decode_autodetects_format():
    lab = construct(4, 4)
    as_json = encode(lab)
    as_edges = "\n".join(f"{e.orient} {e.i} {e.j} {label(lab, e)}" for e in all_edges(lab.dims))
    assert decode(as_json) == decode(as_edges) == lab


def edge_lines(lab):
    return [f"{o} {i + 1} {j + 1} {mat[i, j]}" for o, mat in (("H", lab.h), ("V", lab.v))
            for i in range(lab.dims.n) for j in range(lab.dims.m)]


def test_decode_ignores_one_leading_byte_order_mark():
    # RFC 8259 section 8.1 lets a JSON parser ignore a leading U+FEFF, and
    # an edge list is read the same way
    lab = construct(3, 3)
    canonical = encode(lab)
    loose = json.dumps({"n": 3, "m": 3, "horizontal": lab.h.tolist(), "vertical": lab.v.tolist()})
    edges = "\n".join(edge_lines(lab))
    for text in (canonical, loose, edges):
        assert decode("\ufeff" + text) == lab
    assert header_dims("\ufeff" + canonical) == lab.dims
    # one mark, not two
    for text in (canonical, edges):
        with pytest.raises(ParseError, match=r"^line 1: expected 'H\|V i j label'"):
            decode("\ufeff\ufeff" + text)


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(3, 12), st.integers(3, 12), st.booleans())
def test_edge_list_in_any_order_decodes(rng, n, m, final_newline):
    lab = random_labeling(rng, n, m)
    lines = edge_lines(lab)
    rng.shuffle(lines)
    text = "\n".join(lines) + ("\n" if final_newline else "")
    assert decode(text) == lab


# 3x4 has no construction; labels 1..24 in row-major order put 24 on V(3,4), the last line
PLAIN_LABELING = Labeling(dims(3, 4), np.arange(1, 13).reshape(3, 4),
                          np.arange(13, 25).reshape(3, 4))
PLAIN = edge_lines(PLAIN_LABELING)


def last_labeled(value):
    """PLAIN's labeling with V(3,4), its last line, labeled value."""
    v = PLAIN_LABELING.v.copy()
    v[2, 3] = value
    return Labeling(PLAIN_LABELING.dims, PLAIN_LABELING.h, v)


# Each edge list with the labeling it decodes to, or the error type and
# message it raises.
EDGE_LISTS = {
    # accepted
    "plain": (PLAIN, PLAIN_LABELING),
    "leading zeros": ([line.replace(" 1 ", " 001 ") for line in PLAIN], PLAIN_LABELING),
    "18-digit label": (PLAIN[:-1] + ["V 3 4 " + "9" * 18], last_labeled(10**18 - 1)),
    "comment line": (["# hand-written"] + PLAIN, PLAIN_LABELING),
    "trailing comment": ([PLAIN[0] + " # first"] + PLAIN[1:], PLAIN_LABELING),
    "blank line": (PLAIN[:5] + [""] + PLAIN[5:], PLAIN_LABELING),
    "tabs": ([line.replace(" ", "\t") for line in PLAIN], PLAIN_LABELING),
    "doubled spaces": ([line.replace(" ", "  ") for line in PLAIN], PLAIN_LABELING),
    "indented": (["  " + line for line in PLAIN], PLAIN_LABELING),
    "CRLF": ([line + "\r" for line in PLAIN], PLAIN_LABELING),
    "plus sign": (PLAIN[:-1] + ["V 3 4 +24"], PLAIN_LABELING),
    "underscore": (PLAIN[:-1] + ["V 3 4 2_4"], PLAIN_LABELING),
    "largest int64": (PLAIN[:-1] + [f"V 3 4 {2**63 - 1}"], last_labeled(2**63 - 1)),
    "arabic-indic digit": (PLAIN[:-1] + ["V 3 4 \u0663"], last_labeled(3)),
    # rejected
    "label 0": (PLAIN[:-1] + ["V 3 4 0"], (ParseError, "line 24: labels must be positive, got 0")),
    "negative label": (PLAIN[:-1] + ["V 3 4 -4"],
                       (ParseError, "line 24: labels must be positive, got -4")),
    "label 2**63": (PLAIN[:-1] + [f"V 3 4 {2**63}"],
                    (ParseError, f"line 24: labels must be below 2**63, got {2**63}")),
    "row 0": (PLAIN[:-1] + ["V 0 4 24"], (ShapeError, "edge V(0,4) out of the 3x4 grid")),
    "row 0 of H": (["H 0 1 1"] + PLAIN[1:], (ShapeError, "edge H(0,1) out of the 3x4 grid")),
    "column 0": (["H 1 0 1"] + PLAIN[1:], (ShapeError, "edge H(1,0) out of the 3x4 grid")),
    "duplicate": (PLAIN + [PLAIN[0]], (ShapeError, "line 25: duplicate edge H(1,1)")),
    "duplicate in place of an edge": (PLAIN[:-1] + [PLAIN[0]],
                                      (ShapeError, "line 24: duplicate edge H(1,1)")),
    "missing edge": (PLAIN[:-1], (ShapeError, "expected 24 edges for a 3x4 grid, got 23")),
    "3 fields": (PLAIN[:-1] + ["V 3 4"], (ParseError, "line 24: expected 'H|V i j label', got 'V 3 4'")),
    "5 fields": (PLAIN[:-1] + ["V 3 4 24 1"],
                 (ParseError, "line 24: expected 'H|V i j label', got 'V 3 4 24 1'")),
    "letter joined to its row": (PLAIN[:-1] + ["V3 4 24"],
                                 (ParseError, "line 24: expected 'H|V i j label', got 'V3 4 24'")),
    # each of the first two lines has a field in the wrong place, but their
    # numbers in sequence are those of "H 1 1 1" and "H 1 2 2"
    "digit after a letter": (["H1 1 1 1", "H 2 2 "] + PLAIN[2:],
                             (ParseError, "line 1: expected 'H|V i j label', got 'H1 1 1 1'")),
    "digit before a letter": (["1H 1 1 1", "H 2 2 "] + PLAIN[2:],
                              (ParseError, "line 1: expected 'H|V i j label', got '1H 1 1 1'")),
    "lowercase letter": (PLAIN[:-1] + ["v 3 4 24"],
                         (ParseError, "line 24: expected 'H|V i j label', got 'v 3 4 24'")),
    "two letters": (PLAIN[:-1] + ["HV 3 4 24"],
                    (ParseError, "line 24: expected 'H|V i j label', got 'HV 3 4 24'")),
    "2 x 4 grid": ([line for line in PLAIN if " 3 " not in line[:4]],
                   (DimensionTooSmall, "need n, m >= 3, got (2, 4)")),
    "only comments": (["# nothing"], (ParseError, "empty document")),
}


@pytest.mark.parametrize("name", sorted(EDGE_LISTS))
def test_edge_list_decodes_or_names_its_error(name):
    lines, expected = EDGE_LISTS[name]
    text = "\n".join(lines) + "\n"
    if isinstance(expected, Labeling):
        assert decode(text) == expected
        return
    error, message = expected
    with pytest.raises(TorusMagicError) as caught:
        decode(text)
    assert (type(caught.value), str(caught.value)) == (error, message)
