import time

import numpy as np
import pytest

from torusmagic.construct import (
    EVEN_EVEN,
    ODD_ODD,
    ConstructionPlan,
    PlanShapeMismatch,
    Unsupported,
    construct,
    expected_corner_table,
    plan_for,
)
from torusmagic.diagonals import decompose
from torusmagic.grid import dims
from torusmagic.labeling import Labeling
from torusmagic.verify import forced_constant, verify

GOLDEN_H = [[1, 4, 9], [8, 2, 5], [6, 7, 3]]
GOLDEN_V = [[12, 18, 14], [13, 10, 17], [16, 15, 11]]


def diag_labels(lab: Labeling, j: int):
    plan = plan_for(lab.dims)
    rows, h_cols, v_cols = decompose(lab.dims, list(plan.start_cols))[j - 1].indices()
    return tuple(lab.h[rows, h_cols].tolist()), tuple(lab.v[rows, v_cols].tolist())


def test_golden_3_3_matrices():
    lab = construct(3, 3)
    assert lab.h.tolist() == GOLDEN_H
    assert lab.v.tolist() == GOLDEN_V


def test_golden_3_3_diagonal_sequences():
    lab = construct(3, 3)
    assert diag_labels(lab, 1) == ((1, 2, 3), (18, 17, 16))
    assert diag_labels(lab, 3) == ((9, 8, 7), (12, 10, 11))


def test_4_4_diagonal_sequences():
    lab = construct(4, 4)
    assert diag_labels(lab, 1) == ((1, 2, 3, 4), (32, 31, 30, 29))
    assert diag_labels(lab, 2) == ((8, 5, 6, 7), (28, 27, 26, 25))
    assert diag_labels(lab, 3) == ((9, 10, 11, 12), (24, 23, 22, 21))
    assert diag_labels(lab, 4) == ((16, 13, 14, 15), (20, 19, 18, 17))


def test_odd_odd_rejects_wrong_shapes():
    coprime = construct(3, 5)
    assert isinstance(coprime, Unsupported) and coprime.reason == "coprime odd"
    with pytest.raises(PlanShapeMismatch, match="coprime odd"):
        plan_for(dims(3, 5))


def test_even_even_rejects_odd():
    mixed = construct(3, 4)
    assert isinstance(mixed, Unsupported) and mixed.reason == "mixed parity"
    with pytest.raises(PlanShapeMismatch, match="mixed parity"):
        plan_for(dims(3, 4))


def test_dispatch():
    assert isinstance(construct(9, 15), Labeling)
    assert isinstance(construct(4, 6), Labeling)
    r = construct(3, 4)
    assert isinstance(r, Unsupported)
    assert r.reason == "mixed parity"
    assert "search 3 4" in r.suggestion
    r = construct(3, 5)
    assert isinstance(r, Unsupported)
    assert r.reason == "coprime odd"


def test_transposed_shapes_are_supermagic():
    for n, m in [(9, 3), (15, 5), (6, 4), (8, 4)]:
        lab = construct(n, m)
        assert isinstance(lab, Labeling)
        assert (lab.dims.n, lab.dims.m) == (n, m)
        assert verify(lab).is_supermagic


def test_plan_start_columns():
    # diagonal 1 starts at column d+1 (wrapped), the rest at their index;
    # the parities pick the variant, and n > m takes the plan for (m, n)
    assert plan_for(dims(3, 9)) == ConstructionPlan(ODD_ODD, (4, 2, 3))
    assert plan_for(dims(9, 3)) == ConstructionPlan(ODD_ODD, (4, 2, 3))
    assert plan_for(dims(3, 3)) == ConstructionPlan(ODD_ODD, (1, 2, 3))
    assert plan_for(dims(4, 6)) == ConstructionPlan(EVEN_EVEN, (3, 2))
    assert plan_for(dims(4, 4)) == ConstructionPlan(EVEN_EVEN, (1, 2, 3, 4))


def test_one_coverage_rule():
    # construct refuses a shape exactly when plan_for does, for the same
    # reason, and a shape and its transpose share their plan
    for n in range(3, 31):
        for m in range(3, 31):
            result = construct(n, m)
            try:
                plan = plan_for(dims(n, m))
            except PlanShapeMismatch as exc:
                assert isinstance(result, Unsupported)
                assert str(exc).endswith(f": {result.reason}")
                with pytest.raises(PlanShapeMismatch):
                    plan_for(dims(m, n))
                continue
            assert isinstance(result, Labeling)
            assert plan == plan_for(dims(m, n))
            assert plan.variant == (ODD_ODD if n % 2 else EVEN_EVEN)


def test_uncovered_grid_has_no_corner_table():
    with pytest.raises(PlanShapeMismatch, match="mixed parity"):
        expected_corner_table(dims(3, 4))


def test_expected_corner_table_3_3():
    d = dims(3, 3)
    table = expected_corner_table(d)
    # five possible partial weights around 2nm = 18; row j-1 is diagonal j
    assert table.hv[1, 2] == 21  # HV k=3: 2nm+l, shifted diagonal
    assert table.vh[2, 2] == 17  # VH k=3: 2nm-l+2, interleaved diagonal
    assert table.hv[0].tolist() == [19, 19, 19]  # 2nm+1, plain diagonal
    values = set(table.entries.values())
    assert values <= {18, 19, 20, 21, 17}


def test_expected_corner_table_matches_actual_labels():
    d = dims(3, 3)
    lab = construct(3, 3)
    plan = plan_for(d)
    table = expected_corner_table(d)
    assert table.plan == plan
    diag2, diag3 = decompose(d, list(plan.start_cols))[1:]
    rows, h_cols, v_cols = diag2.indices()
    h, v = lab.h[rows, h_cols], lab.v[rows, v_cols]
    assert h[2] + v[2] == table.hv[1, 2] == 21  # h_3 + v_3 = 6 + 15
    rows, h_cols, v_cols = diag3.indices()
    h, v = lab.h[rows, h_cols], lab.v[rows, v_cols]
    assert v[1] + h[2] == table.vh[2, 2] == 17  # v_2 + h_3 = 10 + 7


def test_corner_seam_sums_to_constant():
    # the HV entry at a vertex (from its diagonal) plus the VH entry
    # (from the successor diagonal) must give the magic constant; HV
    # corners sit at (rows, v_cols) of a diagonal's indices, VH corners at
    # (rows, h_cols)
    for n, m in [(3, 9), (5, 5), (4, 4), (4, 6), (15, 21)]:
        d = dims(n, m)
        plan = plan_for(d)
        table = expected_corner_table(d)
        base = d.q
        assert set(table.entries.values()) <= {
            base - d.l + 2, base, base + 1, base + 2, base + d.l
        }
        hv_at = np.zeros((n, m), dtype=np.int64)
        vh_at = np.zeros((n, m), dtype=np.int64)
        for diag in decompose(d, list(plan.start_cols)):
            rows, h_cols, v_cols = diag.indices()
            hv_at[rows, v_cols] = table.hv[diag.index - 1]
            vh_at[rows, h_cols] = table.vh[diag.index - 1]
        assert (hv_at + vh_at == forced_constant(d)).all()


@pytest.mark.parametrize("n,m", [(3, 3), (3, 9), (5, 5), (9, 15), (5, 15)])
def test_odd_odd_instances_verify(n, m):
    lab = construct(n, m)
    report = verify(lab)
    assert report.is_supermagic
    assert report.constant == forced_constant(lab.dims) == 4 * n * m + 2


@pytest.mark.parametrize("n,m", [(4, 4), (4, 6), (6, 8), (4, 12), (10, 14)])
def test_even_even_instances_verify(n, m):
    lab = construct(n, m)
    report = verify(lab)
    assert report.is_supermagic
    assert report.constant == 4 * n * m + 2


def test_label_blocks_are_a_bijection_by_construction():
    # construction writes each label exactly once; verify independently
    for n, m in [(3, 9), (4, 6), (5, 15)]:
        lab = construct(n, m)
        flat = np.sort(lab.labels())
        assert flat.tolist() == list(range(1, lab.dims.q + 1))


def test_construction_speed():
    for n, m in [(27, 27), (24, 24)]:
        t0 = time.perf_counter()
        lab = construct(n, m)
        assert verify(lab).is_supermagic
        assert time.perf_counter() - t0 < 1.0
