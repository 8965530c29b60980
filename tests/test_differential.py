"""The array-native construct/verify/audit_corners against the scalar
per-EdgeRef reference in scalar_reference.py.

Every verdict field is compared: is_bijection, duplicate_or_missing, the
weights, constant, is_supermagic, bad_vertices and the full mismatch list.
An n > m labeling is audited as its transpose, so its reference audit is
the scalar audit of the transpose against the plan for (m, n), which is
the plan for (n, m) too.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from torusmagic.construct import construct, expected_corner_table, plan_for
from torusmagic.diagonals import decompose
from torusmagic.grid import VertexRef, dims
from torusmagic.labeling import Labeling
from torusmagic.verify import audit_corners, verify

CONSTRUCTIBLE = [(n, m) for n in range(3, 28) for m in range(3, 28)
                 if (n % 2 == m % 2 == 1 and math.gcd(n, m) > 1) or n % 2 == m % 2 == 0]
SMALL = [(n, m) for n, m in CONSTRUCTIBLE if n * m <= 120]


def native_of(lab):
    return lab if lab.dims.n <= lab.dims.m else lab.transpose()


def oriented_like(native, lab):
    return native if lab.dims.n <= lab.dims.m else native.transpose()


def assert_same_verdict(lab):
    new, old = verify(lab), ref.verify(lab)
    assert new.is_bijection == old.is_bijection
    assert new.duplicate_or_missing == old.duplicate_or_missing
    assert new.weight_matrix.tolist() == [[old.weights[VertexRef(i, j)]
                                           for j in range(1, lab.dims.m + 1)]
                                          for i in range(1, lab.dims.n + 1)]
    assert new.constant == old.constant
    assert new.is_supermagic == old.is_supermagic
    assert new.bad_vertices() == old.bad_vertices()


def assert_same_audit(lab):
    native = native_of(lab)
    expected = ref.audit_corners(native, plan_for(native.dims)).mismatches
    assert audit_corners(lab).mismatches == expected


@st.composite
def constructed(draw, shapes=SMALL):
    n, m = draw(st.sampled_from(shapes))
    return construct(n, m)


def edge_cell(lab):
    return st.tuples(st.sampled_from("hv"), st.integers(0, lab.dims.n - 1),
                     st.integers(0, lab.dims.m - 1))


def relabel(lab, changes):
    """Copy of lab with the given (matrix, i, j) -> label writes applied."""
    mats = {"h": lab.h.copy(), "v": lab.v.copy()}
    for (which, i, j), value in changes:
        mats[which][i, j] = value
    return Labeling(lab.dims, mats["h"], mats["v"])


def label_at(lab, cell):
    which, i, j = cell
    return int((lab.h if which == "h" else lab.v)[i, j])


@pytest.mark.parametrize("n,m", CONSTRUCTIBLE)
def test_constructible_shapes_match_bit_exact(n, m):
    lab, old = construct(n, m), ref.construct(n, m)
    assert lab.h.dtype == old.h.dtype and lab.v.dtype == old.v.dtype
    assert np.array_equal(lab.h, old.h) and np.array_equal(lab.v, old.v)
    assert_same_verdict(lab)
    assert_same_audit(lab)
    assert expected_corner_table(lab.dims).entries == \
        ref.expected_corner_table(plan_for(lab.dims), lab.dims).entries


def test_the_reference_writer_keeps_its_guards():
    # the conftest has pytest rewrite scalar_reference's asserts, so its
    # write-once guards still raise under python -O
    writer = ref._Writer(dims(3, 3))
    writer._put(ref.H(1, 1), 1)
    with pytest.raises(AssertionError, match="double write at H"):
        writer._put(ref.H(1, 1), 2)
    with pytest.raises(AssertionError, match="label 19 out of range"):
        writer._put(ref.V(1, 1), 19)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_single_label_swaps(data):
    lab = data.draw(constructed())
    a = data.draw(edge_cell(lab))
    b = data.draw(edge_cell(lab).filter(lambda cell: cell != a))
    swapped = relabel(lab, [(a, label_at(lab, b)), (b, label_at(lab, a))])
    assert_same_verdict(swapped)
    assert_same_audit(swapped)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL), st.randoms(use_true_random=False))
def test_random_permutations(shape, rng):
    n, m = shape
    labels = list(range(1, 2 * n * m + 1))
    rng.shuffle(labels)
    flat = np.array(labels, dtype=np.int64)
    lab = Labeling(dims(n, m), flat[: n * m].reshape(n, m), flat[n * m:].reshape(n, m))
    assert_same_verdict(lab)
    assert_same_audit(lab)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_duplicate_and_out_of_range_labels(data):
    lab = data.draw(constructed())
    q = lab.dims.q
    values = st.one_of(st.integers(1, q), st.integers(q + 1, q + 5), st.just(10**12))
    changes = data.draw(st.lists(st.tuples(edge_cell(lab), values), min_size=1, max_size=4))
    broken = relabel(lab, changes)
    assert_same_verdict(broken)
    assert_same_audit(broken)


@pytest.mark.parametrize("n,m", [(9, 15), (15, 9), (4, 6), (12, 8)])
@pytest.mark.parametrize("kind", ["HV", "VH"])
def test_swapping_a_corner_pair_leaves_that_kind_clean(n, m, kind):
    # swapping the two labels of one corner keeps its sum, and every other
    # sum of its kind, so only corners of the other kind can mismatch
    lab = construct(n, m)
    native = native_of(lab)
    plan = plan_for(native.dims)
    rows, h_cols, v_cols = decompose(native.dims, list(plan.start_cols))[0].indices()
    k = 2  # HV corner k pairs h_k with v_k; VH corner k pairs v_{k-1} with h_k
    cells = [("h", rows[k], h_cols[k]),
             ("v", rows[k], v_cols[k]) if kind == "HV" else ("v", rows[k - 1], v_cols[k - 1])]
    swapped = relabel(native, [(cells[0], label_at(native, cells[1])),
                               (cells[1], label_at(native, cells[0]))])
    swapped = oriented_like(swapped, lab)
    mismatches = audit_corners(swapped).mismatches
    assert mismatches and kind not in {pos.kind for pos, _, _ in mismatches}
    assert_same_audit(swapped)


def test_tied_weights_pick_the_same_expected_value():
    # two weights equally common: bad_vertices must blame the same half
    lab = construct(4, 4)
    h = lab.h.copy()
    h[:2] += 1
    tied = Labeling(lab.dims, h, lab.v.copy())
    assert_same_verdict(tied)


# Benchmark scale: 400 diagonals of length 400, and the n > m transpose of
# 201 x 303, whose 3 diagonals have length 20,301.  The scalar reference
# takes seconds per call here.
LARGE = [(400, 400), (303, 201)]


@pytest.fixture(scope="module", params=LARGE, ids=lambda shape: "%dx%d" % shape)
def large(request):
    n, m = request.param
    return construct(n, m), ref.construct(n, m)


@pytest.mark.slow
def test_large_construction_is_bit_exact(large):
    lab, old = large
    assert lab.h.dtype == old.h.dtype and lab.v.dtype == old.v.dtype
    assert np.array_equal(lab.h, old.h) and np.array_equal(lab.v, old.v)


@pytest.mark.slow
def test_large_corner_table_matches(large):
    native = native_of(large[0])
    assert expected_corner_table(native.dims).entries == \
        ref.expected_corner_table(plan_for(native.dims), native.dims).entries


@pytest.mark.slow
def test_large_label_swap_is_located_like_the_reference(large):
    lab = large[0]
    a, b = ("h", 0, 0), ("v", lab.dims.n // 2, lab.dims.m // 3)
    swapped = relabel(lab, [(a, label_at(lab, b)), (b, label_at(lab, a))])
    assert audit_corners(swapped).mismatches
    assert_same_audit(swapped)


@pytest.mark.slow
def test_large_turned_block_is_located_like_the_reference(large):
    # diagonal d-1's horizontal labels moved one step round the diagonal:
    # still a bijection, but every corner of that diagonal may be off
    lab = large[0]
    native = native_of(lab)
    plan = plan_for(native.dims)
    j = native.dims.d - 1
    rows, h_cols, _ = decompose(native.dims, list(plan.start_cols))[j - 1].indices()
    h = native.h.copy()
    h[rows, h_cols] = np.roll(h[rows, h_cols], 1)
    turned = oriented_like(Labeling(native.dims, h, native.v.copy()), lab)
    mismatches = audit_corners(turned).mismatches
    assert {pos.diag for pos, _, _ in mismatches} == {j}
    assert_same_audit(turned)
