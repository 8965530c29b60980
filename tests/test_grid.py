import numpy as np
import pytest
from hypothesis import given, strategies as st

from scalar_reference import H, V, all_edges, all_vertices, endpoints, incident_edges
from torusmagic.grid import DimensionTooSmall, EdgeRef, TorusMagicError, VertexRef, dims, wrap

small_sizes = st.integers(min_value=3, max_value=40)


def test_wrap_basics():
    assert wrap(1, 3) == 1
    assert wrap(3, 3) == 3
    assert wrap(4, 3) == 1
    assert wrap(0, 3) == 3
    assert wrap(-1, 5) == 4


@given(st.integers(min_value=-200, max_value=200), small_sizes)
def test_wrap_range_and_congruence(x, size):
    w = wrap(x, size)
    assert 1 <= w <= size
    assert (w - x) % size == 0


def test_dims_3_3():
    d = dims(3, 3)
    assert (d.l, d.d, d.q, d.lp) == (3, 3, 18, 1)


def test_dims_3_4():
    d = dims(3, 4)
    assert (d.l, d.d, d.q) == (12, 1, 24)
    assert d.lp is None  # l even


def test_dims_6_4():
    d = dims(6, 4)
    assert (d.l, d.d, d.q) == (12, 2, 48)


@pytest.mark.parametrize("n,m", [(1, 5), (2, 4), (3, 2), (0, 3)])
def test_dims_rejects_short_cycles(n, m):
    with pytest.raises(DimensionTooSmall):
        dims(n, m)


@pytest.mark.parametrize("n,m", [(3.0, 3), ("3", 3), (True, 3), (3, None)])
def test_dims_rejects_non_integers(n, m):
    with pytest.raises(TorusMagicError, match="^n and m must be integers"):
        dims(n, m)


def test_dims_stores_numpy_integers_as_ints():
    d = dims(np.int64(3), np.uint16(5))
    assert d == dims(3, 5)
    assert all(type(getattr(d, f)) is int for f in ("n", "m", "l", "d", "q", "lp"))


@given(small_sizes, small_sizes)
def test_dims_identity(n, m):
    d = dims(n, m)
    assert d.l * d.d == n * m
    assert d.q == 2 * n * m
    assert (d.lp is not None) == (d.l % 2 == 1)
    if d.lp is not None:
        assert 2 * d.lp + 1 == d.l


def test_incident_edges_wraparound_corner():
    d = dims(3, 3)
    assert incident_edges(VertexRef(1, 1), d) == {H(1, 1), H(1, 3), V(1, 1), V(3, 1)}


def test_incident_edges_interior():
    d = dims(3, 3)
    assert incident_edges(VertexRef(2, 2), d) == {H(2, 2), H(2, 1), V(2, 2), V(1, 2)}


def test_incident_edges_4_4():
    d = dims(4, 4)
    assert incident_edges(VertexRef(1, 1), d) == {H(1, 1), H(1, 4), V(1, 1), V(4, 1)}


def test_incident_edges_rejects_out_of_range():
    d = dims(3, 3)
    with pytest.raises(ValueError):
        incident_edges(VertexRef(4, 1), d)


@given(small_sizes, small_sizes)
def test_every_edge_touches_two_vertices_every_vertex_four_edges(n, m):
    d = dims(n, m)
    edges = list(all_edges(d))
    assert len(edges) == d.q
    assert len(set(edges)) == d.q
    seen_at = {}
    for v in all_vertices(d):
        inc = incident_edges(v, d)
        assert len(inc) == 4
        for e in inc:
            seen_at.setdefault(e, set()).add(v)
    # incidence is symmetric: each edge appears at exactly its 2 endpoints
    assert set(seen_at) == set(edges)
    for e, verts in seen_at.items():
        assert verts == set(endpoints(e, d))


def test_endpoints_wrap():
    d = dims(3, 5)
    assert endpoints(H(2, 5), d) == (VertexRef(2, 5), VertexRef(2, 1))
    assert endpoints(V(3, 2), d) == (VertexRef(3, 2), VertexRef(1, 2))


def test_edge_ref_validation_and_order():
    with pytest.raises(ValueError):
        EdgeRef("X", 1, 1)
    assert H(1, 2).sort_key() < V(1, 2).sort_key() < H(2, 1).sort_key()
    assert str(H(1, 2)) == "H(1,2)"
    assert str(V(3, 1)) == "V(3,1)"


def test_all_edges_order():
    d = dims(3, 3)
    edges = list(all_edges(d))
    assert edges[0] == H(1, 1)
    assert edges[8] == H(3, 3)
    assert edges[9] == V(1, 1)
    assert edges[-1] == V(3, 3)
