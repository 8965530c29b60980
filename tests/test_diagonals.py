import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalar_reference import H, V, all_vertices, endpoints, incident_edges
from torusmagic.construct import plan_for
from torusmagic.diagonals import (Diagonal, InvalidStartColumn, decompose, diagonal_cells,
                                  diagonal_of_edge)
from torusmagic.grid import EdgeRef, TorusMagicError, VertexRef, dims

sizes = st.integers(min_value=3, max_value=24)


def test_trace_3_3_first_diagonal():
    # h_k = H(1,1), H(2,2), H(3,3) and v_k = V(1,2), V(2,3), V(3,1), 0-based
    rows, h_cols, v_cols = Diagonal(1, 1, dims(3, 3)).indices()
    assert rows.tolist() == [0, 1, 2]
    assert h_cols.tolist() == [0, 1, 2]
    assert v_cols.tolist() == [1, 2, 0]


def test_paper_start_column_for_first_diagonal_3_9():
    # d = 3, so column 4 is a legal start for diagonal 1 (4 = 1 mod 3)
    diag = Diagonal(1, 4, dims(3, 9))
    assert diag.start_col == 4
    rows, h_cols, v_cols = diag.indices()
    assert (rows[0], h_cols[0], v_cols[0]) == (0, 3, 4)  # H(1,4), V(1,5)


def test_invalid_start_column():
    with pytest.raises(InvalidStartColumn):
        Diagonal(1, 2, dims(3, 3))  # 2 != 1 mod 3
    with pytest.raises(InvalidStartColumn):
        Diagonal(4, 1, dims(3, 3))  # only 3 diagonals
    with pytest.raises(InvalidStartColumn):
        Diagonal(1, 10, dims(3, 9))  # column out of 1..9


def test_decompose_counts():
    def lengths(d):
        return [len(rows) for rows, _, _ in (diag.indices() for diag in decompose(d))]

    assert lengths(dims(3, 4)) == [12]
    assert lengths(dims(6, 4)) == [12, 12]
    assert lengths(dims(3, 3)) == [3, 3, 3]


@given(sizes, sizes)
@settings(max_examples=60)
def test_decompose_partitions_all_edges(n, m):
    d = dims(n, m)
    diagonals = decompose(d)
    assert len(diagonals) == d.d
    h_cells, v_cells = diagonal_cells(diagonals)
    assert h_cells.shape == v_cells.shape == (d.d, d.l)
    # every H edge once and every V edge once: cells i*m + j of the grid
    assert np.array_equal(np.sort(h_cells, axis=None), np.arange(n * m))
    assert np.array_equal(np.sort(v_cells, axis=None), np.arange(n * m))


@given(sizes, sizes)
@settings(max_examples=40)
def test_diagonal_is_a_closed_alternating_cycle(n, m):
    d = dims(n, m)
    for diag in decompose(d):
        rows, h_cols, v_cols = (a.tolist() for a in diag.indices())
        hs = [H(i + 1, j + 1) for i, j in zip(rows, h_cols)]
        vs = [V(i + 1, j + 1) for i, j in zip(rows, v_cols)]
        for k in range(d.l):
            # h_k ends where v_k starts; v_k ends where h_{k+1} starts
            assert endpoints(hs[k], d)[1] == endpoints(vs[k], d)[0]
            assert endpoints(vs[k], d)[1] == endpoints(hs[(k + 1) % d.l], d)[0]


def test_diagonal_of_edge_examples():
    d = dims(3, 3)
    assert diagonal_of_edge(H(2, 2), d) == (1, 2, "H")
    assert diagonal_of_edge(V(3, 1), d) == (1, 3, "V")
    assert diagonal_of_edge(H(1, 4), dims(3, 9))[0] == 1


@pytest.mark.parametrize("e", [H(4, 1), V(0, 10), H(100, -7), ("H", 1, 1)], ids=str)
def test_diagonal_of_edge_rejects_edges_off_the_grid(e):
    # off-grid indices whose residues mod 3 and mod 9 still name a diagonal
    # step, and a tuple, which names no edge
    with pytest.raises(TorusMagicError, match=rf"^{re.escape(str(e))} is not an edge of C_3 x C_9$"):
        diagonal_of_edge(e, dims(3, 9))


def test_diagonal_of_edge_returns_ints_for_numpy_indices():
    where = diagonal_of_edge(EdgeRef("H", np.int64(2), np.int64(3)), dims(3, 9))
    assert where == (2, 2, "H") and [type(x) for x in where] == [int, int, str]


@pytest.mark.parametrize("bad", ["1", 1.0, True, None])
def test_decompose_refuses_start_columns_that_are_not_integers(bad):
    message = f"start_col must be an integer, got {bad!r}"
    with pytest.raises(TorusMagicError, match=f"^{re.escape(message)}$"):
        decompose(dims(3, 9), [bad, 2, 3])


def test_decompose_stores_numpy_start_columns_as_ints():
    diagonals = decompose(dims(3, 9), [np.int64(4), np.uint8(2), 3])
    assert [(diag.index, diag.start_col) for diag in diagonals] == [(1, 4), (2, 2), (3, 3)]
    assert all(type(diag.index) is int and type(diag.start_col) is int for diag in diagonals)


@given(sizes, sizes)
@settings(max_examples=40)
def test_diagonal_of_edge_inverts_positional_lookup(n, m):
    d = dims(n, m)
    for diag in decompose(d):
        rows, h_cols, v_cols = (a.tolist() for a in diag.indices())
        for k, (i, hj, vj) in enumerate(zip(rows, h_cols, v_cols), start=1):
            assert diagonal_of_edge(H(i + 1, hj + 1), d) == (diag.index, k, "H")
            assert diagonal_of_edge(V(i + 1, vj + 1), d) == (diag.index, k, "V")


# Corner k of a diagonal: HV pairs (h_k, v_k) and sits at (rows, v_cols) of
# diag.indices(); VH pairs (v_{k-1}, h_k), with v_0 = v_l, at (rows, h_cols).

def test_corner_edges_share_their_vertex():
    d = dims(3, 9)
    for diag in decompose(d):
        rows, h_cols, v_cols = (a.tolist() for a in diag.indices())
        hs = [H(i + 1, j + 1) for i, j in zip(rows, h_cols)]
        vs = [V(i + 1, j + 1) for i, j in zip(rows, v_cols)]
        for k in range(d.l):
            for (a, b), col in (((hs[k], vs[k]), v_cols[k]), ((vs[k - 1], hs[k]), h_cols[k])):
                shared = set(endpoints(a, d)) & set(endpoints(b, d))
                assert shared == {VertexRef(rows[k] + 1, col + 1)}


def test_vh_corner_one_pairs_last_vertical_with_first_horizontal():
    rows, h_cols, v_cols = Diagonal(1, 1, dims(3, 3)).indices()
    assert (rows[-1], v_cols[-1]) == (2, 0)  # v_l = V(3,1)
    assert (rows[0], h_cols[0]) == (0, 0)  # h_1 = H(1,1), at vertex (1,1)


def test_corner_vertex_examples():
    # HV corner k sits at (k, s+k); k=2, s=1 lands on (2,3), k=1 on (1,2)
    rows, _, v_cols = Diagonal(1, 1, dims(3, 3)).indices()
    assert (rows[1] + 1, v_cols[1] + 1) == (2, 3)
    assert (rows[0] + 1, v_cols[0] + 1) == (1, 2)


@given(sizes, sizes)
@settings(max_examples=30)
def test_corners_cover_every_vertex_once_per_kind(n, m):
    d = dims(n, m)
    hv_at = Counter()
    vh_at = Counter()
    for diag in decompose(d):
        rows, h_cols, v_cols = (a.tolist() for a in diag.indices())
        hv_at.update(VertexRef(i + 1, j + 1) for i, j in zip(rows, v_cols))
        vh_at.update(VertexRef(i + 1, j + 1) for i, j in zip(rows, h_cols))
    verts = set(all_vertices(d))
    assert set(hv_at) == verts and set(hv_at.values()) == {1}
    assert set(vh_at) == verts and set(vh_at.values()) == {1}


def test_corner_pair_is_the_vertex_weight_split():
    # at each vertex the HV pair and the VH pair together are its 4 edges
    d = dims(5, 15)
    hv_at, vh_at = {}, {}
    for diag in decompose(d):
        rows, h_cols, v_cols = (a.tolist() for a in diag.indices())
        hs = [H(i + 1, j + 1) for i, j in zip(rows, h_cols)]
        vs = [V(i + 1, j + 1) for i, j in zip(rows, v_cols)]
        for k in range(d.l):
            hv_at[VertexRef(rows[k] + 1, v_cols[k] + 1)] = {hs[k], vs[k]}
            vh_at[VertexRef(rows[k] + 1, h_cols[k] + 1)] = {vs[k - 1], hs[k]}
    for vertex in all_vertices(d):
        assert hv_at[vertex] | vh_at[vertex] == incident_edges(vertex, d)


def test_decompose_rejects_wrong_start_count():
    with pytest.raises(InvalidStartColumn):
        decompose(dims(3, 3), [1, 2])


# diagonal_cells batches the closed form that Diagonal.indices reads for
# one diagonal: row r of each cell matrix must be diagonals[r]'s indices
# as flat cells i*m + j, and those indices must be k-1 mod n and
# s+k-2, s+k-1 mod m for k = 1..l.

def assert_cells_are_the_indices(diagonals):
    d = diagonals[0].dims
    h_cells, v_cells = diagonal_cells(diagonals)
    assert h_cells.shape == v_cells.shape == (len(diagonals), d.l)
    k = np.arange(d.l)
    for diag, h_row, v_row in zip(diagonals, h_cells, v_cells):
        rows, h_cols, v_cols = diag.indices()
        assert np.array_equal(rows, k % d.n)
        assert np.array_equal(h_cols, (k + diag.start_col - 1) % d.m)
        assert np.array_equal(v_cols, (k + diag.start_col) % d.m)
        assert np.array_equal(h_row, rows * d.m + h_cols)
        assert np.array_equal(v_row, rows * d.m + v_cols)


@pytest.mark.parametrize("n", range(3, 41))
def test_batched_cells_are_the_indices_of_every_diagonal(n):
    for m in range(3, 41):
        d = dims(n, m)
        assert_cells_are_the_indices(decompose(d))
        # the last legal start column of each diagonal, which is m for
        # diagonal d: v_1 then wraps to column 1
        assert_cells_are_the_indices(decompose(d, [j + (m - j) // d.d * d.d
                                                   for j in range(1, d.d + 1)]))


@pytest.mark.parametrize("n,m", [(400, 400), (201, 303), (303, 201)])
def test_batched_cells_at_benchmark_scale(n, m):
    d = dims(n, m)
    assert_cells_are_the_indices(decompose(d, list(plan_for(d).start_cols)))


def test_batched_cells_partition_the_grid():
    h_cells, v_cells = diagonal_cells(decompose(dims(12, 18)))
    assert np.array_equal(np.sort(h_cells, axis=None), np.arange(12 * 18))
    assert np.array_equal(np.sort(v_cells, axis=None), np.arange(12 * 18))
