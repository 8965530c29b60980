import tracemalloc

import numpy as np
import pytest

from scalar_reference import H, V, all_edges, label
from torusmagic.grid import dims
from torusmagic.labeling import DomainMismatch, Labeling
from torusmagic.serialize import decode, encode


def tiny():
    d = dims(3, 3)
    h = np.arange(1, 10).reshape(3, 3)
    v = np.arange(10, 19).reshape(3, 3)
    return Labeling(d, h, v)


def test_label_lookup():
    lab = tiny()
    assert label(lab, H(1, 1)) == 1
    assert label(lab, H(3, 3)) == 9
    assert label(lab, V(1, 1)) == 10
    assert label(lab, V(2, 3)) == 15


def test_items_covers_all_edges_in_canonical_order():
    # all_edges order is the H block, then the V block, row-major in each
    lab = tiny()
    edges = list(all_edges(lab.dims))
    assert len(edges) == len(set(edges)) == 18
    assert [label(lab, e) for e in edges] == list(range(1, 19))


def test_labels_flat_order():
    lab = tiny()
    assert lab.labels().tolist() == list(range(1, 19))


@pytest.mark.parametrize("h_dtype,v_dtype", [(np.int64, np.uint64), (np.uint64, np.int64),
                                             (np.int32, np.uint16), (np.uint64, np.uint64)])
def test_labels_are_int64_whatever_the_matrices_hold(h_dtype, v_dtype):
    lab = tiny()
    flat = Labeling(lab.dims, lab.h.astype(h_dtype), lab.v.astype(v_dtype)).labels()
    assert flat.dtype == np.int64 and flat.tolist() == list(range(1, 19))


def test_labels_of_an_int64_labeling_allocate_one_array():
    # verify calls labels() on every check, so an int64 labeling is
    # joined into its result and not cast through a second array
    lab = Labeling(dims(200, 200), np.ones((200, 200), dtype=np.int64),
                   np.ones((200, 200), dtype=np.int64))
    tracemalloc.start()
    try:
        flat = lab.labels()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flat.nbytes <= peak < 1.5 * flat.nbytes


def test_transpose_maps_h_to_v():
    d = dims(3, 5)
    h = np.arange(1, 16).reshape(3, 5)
    v = np.arange(16, 31).reshape(3, 5)
    lab = Labeling(d, h, v)
    t = lab.transpose()
    assert (t.dims.n, t.dims.m) == (5, 3)
    for e in all_edges(lab.dims):
        image = V(e.j, e.i) if e.orient == "H" else H(e.j, e.i)
        assert label(t, image) == label(lab, e)
    assert lab.transpose().transpose() == lab


def test_constructor_validates_shape():
    d = dims(3, 3)
    with pytest.raises(DomainMismatch):
        Labeling(d, np.ones((2, 3), dtype=int), np.ones((3, 3), dtype=int))
    with pytest.raises(DomainMismatch, match="^h and v must be numpy arrays"):
        Labeling(d, [[1] * 3] * 3, [[1] * 3] * 3)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.uint64])
def test_rejects_nonpositive_entries(dtype):
    lab = tiny()
    for spoilt, value in (("h", 0), ("v", 0), ("h", -1), ("v", -1)):
        if value < 0 and np.dtype(dtype).kind == "u":
            continue
        for at in ((0, 0), (1, 1), (2, 2)):
            h, v = lab.h.astype(dtype), lab.v.astype(dtype)
            (h if spoilt == "h" else v)[at] = value
            with pytest.raises(DomainMismatch, match="^labels must be positive integers"):
                Labeling(lab.dims, h, v)


@pytest.mark.parametrize("dtype", [bool, np.float64, np.float32, object])
def test_rejects_non_integer_dtypes(dtype):
    # encode would write labels that decode refuses, and verify would fail untyped
    lab = tiny()
    for h, v in ((lab.h.astype(dtype), lab.v), (lab.h, lab.v.astype(dtype))):
        with pytest.raises(DomainMismatch, match="^labels must have an integer dtype"):
            Labeling(lab.dims, h, v)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
def test_accepts_integer_dtypes(dtype):
    lab = tiny()
    assert Labeling(lab.dims, lab.h.astype(dtype), lab.v.astype(dtype)) == lab


def test_uint64_labels_stay_below_2_63():
    # decode refuses labels of 2**63 and more, so every Labeling round-trips
    h = np.arange(1, 10, dtype=np.uint64).reshape(3, 3)
    v = h + np.uint64(9)
    v[2, 2] = 2**63 - 1
    back = decode(encode(Labeling(dims(3, 3), h, v)))
    assert back.h.tolist() == h.tolist() and back.v.tolist() == v.tolist()
    v[2, 2] = 2**63
    with pytest.raises(DomainMismatch, match=r"below 2\*\*63"):
        Labeling(dims(3, 3), h, v)
    with pytest.raises(DomainMismatch, match=r"below 2\*\*63"):
        Labeling(dims(3, 3), v, h)
