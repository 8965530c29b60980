import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from scalar_reference import H, V, all_edges, all_vertices, incident_edges, label, swapped
from torusmagic.construct import PlanShapeMismatch, construct
from torusmagic.grid import VertexRef, dims
from torusmagic.labeling import DomainMismatch, Labeling
from torusmagic.search import enumerate_completions
from torusmagic.verify import (
    _supermagic_rows,
    audit_corners,
    corner_sums,
    forced_constant,
    verify,
    weight_matrix,
)

GOLDEN = None


def golden():
    global GOLDEN
    if GOLDEN is None:
        GOLDEN = construct(3, 3)
    return GOLDEN


def test_vertex_weight_examples():
    w = weight_matrix(golden())
    assert w[0, 0] == 1 + 9 + 12 + 16 == 38  # H(1,1), H(1,3), V(1,1), V(3,1)
    assert w[1, 1] == 8 + 2 + 18 + 10 == 38  # H(2,2), H(2,1), V(2,2), V(1,2)


def test_vertex_weight_all_ones():
    d = dims(3, 3)
    ones = Labeling(d, np.ones((3, 3), int), np.ones((3, 3), int))
    assert weight_matrix(ones).tolist() == [[4] * 3] * 3


def test_weight_matrix_agrees_with_incidence_oracle():
    # dual-route oracle: rolled-matrix sums vs naive incident-edge sums
    for n, m in [(3, 3), (4, 6), (5, 15), (9, 3)]:
        lab = construct(n, m)
        w = weight_matrix(lab)
        for v in all_vertices(lab.dims):
            naive = sum(label(lab, e) for e in incident_edges(v, lab.dims))
            assert w[v.i - 1, v.j - 1] == naive


def test_verify_golden():
    report = verify(golden())
    assert report.is_bijection
    assert report.duplicate_or_missing == []
    assert report.constant == 38
    assert report.is_supermagic
    assert report.bad_vertices() == []


def test_verify_swap_breaks_it():
    tampered = swapped(golden(), H(1, 1), H(1, 2))
    report = verify(tampered)
    assert report.is_bijection  # still a bijection
    assert not report.is_supermagic
    assert report.constant is None
    bad = set(report.bad_vertices())
    assert bad  # weights at (1,1),(1,2),(1,3) perturbed
    assert bad <= {VertexRef(1, 1), VertexRef(1, 2), VertexRef(1, 3)}


def test_verify_4_4_constant():
    report = verify(construct(4, 4))
    assert report.constant == 66 == 4 * 16 + 2


def test_forced_constant_values():
    assert forced_constant(dims(3, 3)) == 38
    assert forced_constant(dims(3, 4)) == 50
    assert forced_constant(dims(4, 4)) == 66


@given(st.integers(3, 60), st.integers(3, 60))
@settings(max_examples=100)
def test_forced_constant_formula(n, m):
    d = dims(n, m)
    assert forced_constant(d) == 2 * (2 * n * m + 1) == d.q * (d.q + 1) // (n * m)


def test_verify_rejects_duplicates_and_gaps():
    lab = golden()
    h = lab.h.copy()
    h[0, 0] = h[0, 1]  # duplicate 4, drop 1
    report = verify(Labeling(lab.dims, h, lab.v))
    assert not report.is_bijection
    assert 4 in report.duplicate_or_missing
    assert 1 in report.duplicate_or_missing
    assert not report.is_supermagic


def test_verify_rejects_out_of_range():
    lab = golden()
    v = lab.v.copy()
    v[2, 2] = 99
    report = verify(Labeling(lab.dims, lab.h, v))
    assert not report.is_bijection
    assert 99 in report.duplicate_or_missing


def test_verify_rejects_uniform_but_shifted_labels():
    # adversarial: shift all labels by +1; weights stay uniform (c+4)
    # but the label set is 2..q+1, not 1..q
    lab = golden()
    shifted = Labeling(lab.dims, lab.h + 1, lab.v + 1)
    report = verify(shifted)
    assert report.constant == 42  # uniform
    assert not report.is_bijection
    assert not report.is_supermagic
    assert report.duplicate_or_missing == [1, 19]


def test_verify_constant_must_match_forced_value():
    # uniform weight at the wrong constant is rejected even with the
    # bijection check out of the picture: all-ones is uniform at 4
    d = dims(3, 3)
    ones = Labeling(d, np.ones((3, 3), int), np.ones((3, 3), int))
    report = verify(ones)
    assert report.constant == 4
    assert not report.is_supermagic


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_label_swap_breaks_supermagic(rng):
    lab = construct(3, 9)
    edges = list(all_edges(lab.dims))
    e1, e2 = rng.sample(edges, 2)
    report = verify(swapped(lab, e1, e2))
    assert not report.is_supermagic


def test_audit_constructed_labelings_clean():
    for n, m in [(3, 3), (3, 9), (9, 15), (5, 5), (4, 4), (4, 6), (8, 12)]:
        lab = construct(n, m)
        report = audit_corners(lab)
        assert report.clean, f"({n},{m}) mismatches: {report.mismatches[:3]}"


def test_audit_locates_a_swap():
    lab = construct(3, 3)
    tampered = swapped(lab, H(1, 1), V(2, 2))
    report = audit_corners(tampered)
    assert not report.clean
    for pos, expected, actual in report.mismatches:
        assert expected != actual
        assert pos.kind in ("HV", "VH")
        assert 1 <= pos.diag <= 3


def test_verify_shape_guard():
    lab = golden()
    with pytest.raises(DomainMismatch):
        Labeling(dims(3, 4), lab.h, lab.v)


@pytest.mark.parametrize("n,m", [(15, 9), (9, 3), (12, 8)])
def test_audit_transposed_shapes_clean(n, m):
    lab = construct(n, m)
    assert (lab.dims.n, lab.dims.m) == (n, m)
    report = audit_corners(lab)
    assert report.clean, report.mismatches[:3]


def test_audit_transposed_shape_locates_a_swap():
    # mismatches of an n > m labeling are those of its transpose
    lab = swapped(construct(15, 9), H(2, 3), V(7, 1))
    direct = audit_corners(lab)
    assert direct.mismatches == audit_corners(lab.transpose()).mismatches
    assert 1 <= len(direct.mismatches) <= 4


def test_audit_refuses_a_grid_no_construction_covers():
    flat = np.arange(1, 25).reshape(2, 3, 4)
    with pytest.raises(PlanShapeMismatch, match="mixed parity"):
        audit_corners(Labeling(dims(3, 4), flat[0], flat[1]))


def test_verify_report_keeps_the_weight_matrix():
    lab = swapped(golden(), H(1, 1), H(2, 2))
    report = verify(lab)
    assert np.array_equal(report.weight_matrix, weight_matrix(lab))
    for v in all_vertices(lab.dims):
        assert report.weight_matrix[v.i - 1, v.j - 1] == sum(label(lab, e)
                                                             for e in incident_edges(v, lab.dims))


def test_weights_are_exact_past_the_int64_range():
    d = dims(3, 3)
    big = np.full((3, 3), 2**62, dtype=np.int64)
    report = verify(Labeling(d, big, big))
    assert report.constant == 2**64
    assert not report.is_supermagic and not report.is_bijection
    lab = Labeling(d, np.arange(1, 10).reshape(3, 3), np.arange(10, 19).reshape(3, 3))
    h = lab.h.copy()
    h[1, 2] = 2**63 - 1  # the largest label decode accepts, among small ones
    lab = Labeling(d, h, lab.v)
    assert weight_matrix(lab).tolist() == [[sum(label(lab, e) for e in incident_edges(x, d))
                                            for x in all_vertices(d) if x.i == i]
                                           for i in range(1, 4)]


def test_weights_stay_int64_up_to_a_quarter_of_its_range():
    d = dims(3, 3)
    bound = (2**63 - 1) // 4
    for label, dtype in ((bound, np.int64), (bound + 1, object)):
        labels = np.full((3, 3), label, dtype=np.int64)
        w = weight_matrix(Labeling(d, labels, labels))
        assert w.dtype == dtype and w.tolist() == [[4 * label] * 3] * 3


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.uint64])
def test_verify_agrees_across_integer_dtypes(dtype):
    lab = construct(4, 6)
    for case in (lab, swapped(lab, H(1, 1), V(2, 3)), Labeling(lab.dims, lab.h * 50, lab.v)):
        typed = verify(Labeling(case.dims, case.h.astype(dtype), case.v.astype(dtype)))
        expected = verify(case)
        assert (typed.is_supermagic, typed.constant, typed.duplicate_or_missing) == \
            (expected.is_supermagic, expected.constant, expected.duplicate_or_missing)
        assert all(type(x) is int for x in typed.duplicate_or_missing)
        assert np.array_equal(typed.weight_matrix, expected.weight_matrix)
        assert typed.bad_vertices() == expected.bad_vertices()
    if dtype is np.int32:  # four labels of 2**30 overflow int32, not the weights
        labels = np.full((3, 3), 2**30, dtype=dtype)
        assert verify(Labeling(dims(3, 3), labels, labels)).constant == 2**32


def test_verify_reports_labels_of_mixed_dtypes_exactly():
    # an int64 h and a uint64 v join as int64, not as float64, which
    # would round a label above 2**53 and report it as a float
    h = np.arange(1, 10, dtype=np.int64).reshape(3, 3)
    v = np.arange(10, 19, dtype=np.uint64).reshape(3, 3)
    v[0, 0] = 2**53 + 1
    report = verify(Labeling(dims(3, 3), h, v))
    assert report.duplicate_or_missing == [10, 2**53 + 1]
    assert all(type(x) is int for x in report.duplicate_or_missing)


def test_corner_sums_are_exact_past_the_int64_range():
    # every corner of nine labels of 2**62 sums to 2**63, one past int64
    d = dims(3, 3)
    big = np.full((3, 3), 2**62, dtype=np.int64)
    lab = Labeling(d, big, big)
    hv, vh = corner_sums(lab)
    assert hv.tolist() == vh.tolist() == [[2**63] * 3] * 3
    report = audit_corners(lab)
    assert len(report.mismatches) == 2 * 9
    assert all(type(actual) is int and actual == 2**63 for _, _, actual in report.mismatches)


@st.composite
def wide_labelings(draw):
    """Labelings of several integer dtypes, with labels from 1 up to the
    dtype's largest value or 2**63 - 1, the largest label a Labeling holds,
    small and large ones mixed."""
    n, m = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    dtype = draw(st.sampled_from([np.int64, np.uint64, np.int32, np.uint16]))
    top = min(int(np.iinfo(dtype).max), 2**63 - 1)
    label = st.one_of(st.integers(1, 2 * n * m), st.integers(1, top), st.just(top))
    cells = np.array(draw(st.lists(label, min_size=2 * n * m, max_size=2 * n * m)), dtype=dtype)
    return Labeling(dims(n, m), cells[: n * m].reshape(n, m), cells[n * m:].reshape(n, m))


@settings(max_examples=150, deadline=None)
@given(wide_labelings())
def test_corner_sums_match_the_scalar_reference(lab):
    d = lab.dims
    hv, vh = corner_sums(lab)
    expected = [[ref._corner_sums(lab, i, j) for j in range(1, d.m + 1)] for i in range(1, d.n + 1)]
    assert [list(zip(a, b)) for a, b in zip(hv.tolist(), vh.tolist())] == expected
    w = weight_matrix(lab)
    assert np.array_equal(w, hv + vh)
    assert w.tolist() == [[a + b for a, b in row] for row in expected]


SOLUTIONS = {}


def solution_rows(n, m):
    """Supermagic labelings of C_n x C_m as label rows: the 40 completions
    of (3,3) with H(1,1)=1 and V(1,1)=2, or one construction otherwise."""
    if (n, m) not in SOLUTIONS:
        if (n, m) == (3, 3):
            found, _ = enumerate_completions(dims(3, 3), {H(1, 1): 1, V(1, 1): 2})
        else:
            found = [construct(n, m)]
        SOLUTIONS[n, m] = np.stack([lab.labels() for lab in found])
    return SOLUTIONS[n, m]


@st.composite
def label_stacks(draw):
    """A (k, q) stack of label rows on one shape, each a solution left
    alone, with two labels swapped, with one label duplicated over
    another, with one label set to 0 or q + 1, or with every H label one
    more and every V label one less, which keeps every weight.
    Non-square shapes catch H and V read in the wrong layout."""
    n, m = draw(st.sampled_from([(3, 3), (3, 3), (4, 6), (6, 4), (3, 9), (9, 15)]))
    solutions, q = solution_rows(n, m), 2 * n * m
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = solutions[draw(st.integers(0, len(solutions) - 1))].copy()
        i, j = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
        change = draw(st.sampled_from(["none", "swap", "duplicate", "zero", "above q", "shift"]))
        if change == "shift":
            row += np.repeat([1, -1], q // 2)
        elif change == "swap":
            row[i], row[j] = row[j], row[i]
        elif change == "duplicate":
            row[i] = row[j]
        elif change != "none":
            row[i] = 0 if change == "zero" else q + 1
        rows.append(row)
    return dims(n, m), np.stack(rows)


def verdict(d, row):
    # verify refuses a label of 0 outright; such a row is not supermagic
    nm = d.n * d.m
    try:
        lab = Labeling(d, row[:nm].reshape(d.n, d.m), row[nm:].reshape(d.n, d.m))
    except DomainMismatch:
        return False
    return verify(lab).is_supermagic


@settings(max_examples=200, deadline=None)
@given(label_stacks())
def test_the_batched_check_agrees_with_verify(stack):
    d, rows = stack
    batch = _supermagic_rows(d, rows)
    assert batch.shape == (len(rows),) and batch.dtype == bool
    assert batch.tolist() == [verdict(d, row) for row in rows]


def test_the_batched_check_rejects_exactly_the_spoilt_rows():
    rows = solution_rows(3, 3).copy()
    assert _supermagic_rows(dims(3, 3), rows).all() and len(rows) == 40
    rows[5, 3] = rows[5, 4]  # a duplicated label
    rows[9, [0, 17]] = rows[9, [17, 0]]  # a single swap
    rows[30, 2] = 19  # a label above q
    rows[33] += np.repeat([1, -1], 9)  # every weight still 38
    assert (weight_matrix(Labeling(dims(3, 3), *rows[33].reshape(2, 3, 3))) == 38).all()
    assert np.flatnonzero(~_supermagic_rows(dims(3, 3), rows)).tolist() == [5, 9, 30, 33]
    assert _supermagic_rows(dims(3, 3), rows[:0]).shape == (0,)
