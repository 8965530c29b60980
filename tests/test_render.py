import hashlib
import importlib
import itertools
import re
import tracemalloc
import xml.dom.minidom

import numpy as np
import pytest

import scalar_reference as ref
from scalar_reference import all_edges
from torusmagic.construct import construct
from torusmagic.diagonals import diagonal_of_edge
from torusmagic.grid import dims
from torusmagic.labeling import Labeling
from torusmagic.render import RenderSpec, RenderTooLarge, render
from torusmagic.verify import weight_matrix


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(format="png")
    with pytest.raises(ValueError):
        RenderSpec(annotate="everything")
    RenderSpec(format="svg", annotate="corners", highlight_diagonals=True)


def test_dot_counts_3_3():
    dot = render(construct(3, 3), RenderSpec(format="dot"))
    nodes = re.findall(r"^\s*x_\d+_\d+ \[", dot, re.M)
    edges = re.findall(r"x_\d+_\d+ -- x_\d+_\d+ \[.*label=", dot)
    assert len(nodes) == 9
    assert len(edges) == 18


def test_dot_edge_labels_are_the_labeling():
    lab = construct(3, 3)
    dot = render(lab, RenderSpec(format="dot"))
    labels = sorted(int(x) for x in re.findall(r'-- .*label="(\d+)"', dot))
    assert labels == list(range(1, 19))


def test_dot_highlight_diagonals_color_count():
    dot = render(construct(6, 4), RenderSpec(format="dot", highlight_diagonals=True))
    colors = set(re.findall(r'color="(#[0-9a-f]{6})"', dot))
    assert len(colors) == 2  # gcd(6,4) diagonals
    dot33 = render(construct(3, 3), RenderSpec(format="dot", highlight_diagonals=True))
    assert len(set(re.findall(r'color="(#[0-9a-f]{6})"', dot33))) == 3


def test_dot_weight_annotation():
    lab = construct(3, 3)
    dot = render(lab, RenderSpec(format="dot", annotate="weights"))
    # every vertex annotated with the magic constant 38
    assert len(re.findall(r'label="x_\d+_\d+\\n38"', dot)) == 9


def test_svg_well_formed_with_counts():
    lab = construct(4, 6)
    svg = render(lab, RenderSpec(format="svg", annotate="weights",
                                 highlight_diagonals=True))
    xml.dom.minidom.parseString(svg)  # raises on malformed markup
    assert svg.count('class="edge"') == lab.dims.q
    assert svg.count('class="vertex"') == lab.dims.n * lab.dims.m
    assert svg.count(">98<") == 24  # constant 4*24+2 at every vertex


def test_svg_wrap_edges_are_stubs():
    lab = construct(3, 3)
    svg = render(lab, RenderSpec(format="svg"))
    # a wrap edge renders as two line segments, an internal one as one:
    # 12 internal + 6 wrap edges -> 12 + 2*6 = 24 lines
    assert svg.count("<line ") == 24


def test_svg_corner_annotation_sums():
    lab = construct(3, 3)
    svg = render(lab, RenderSpec(format="svg", annotate="corners"))
    hv = [int(x) for x in re.findall(r">HV=(\d+)<", svg)]
    vh = [int(x) for x in re.findall(r">VH=(\d+)<", svg)]
    assert len(hv) == len(vh) == 9
    w = weight_matrix(lab)
    # HV + VH at each vertex is its weight
    assert all(a + b == 38 for a, b in zip(hv, vh))
    assert set(hv) <= {17, 18, 19, 20, 21}


def test_corner_notes_are_exact_past_the_int64_range():
    # each corner of nine labels of 2**62 sums to 2**63, one past int64
    big = np.full((3, 3), 2**62, dtype=np.int64)
    lab = Labeling(dims(3, 3), big, big)
    dot = render(lab, RenderSpec(format="dot", annotate="corners"))
    assert dot.count("HV=9223372036854775808\\nVH=9223372036854775808") == 9
    svg = render(lab, RenderSpec(format="svg", annotate="corners"))
    assert len(re.findall(r">(?:HV|VH)=9223372036854775808<", svg)) == 18


def test_cells_are_written_by_the_digit_writer_and_objects_by_str(monkeypatch):
    render_module = importlib.import_module("torusmagic.render")
    calls = []
    write_decimal = render_module.write_decimal
    monkeypatch.setattr(render_module, "write_decimal",
                        lambda *args: calls.append(1) or write_decimal(*args))
    values = np.array([7, 0, 10, 2**63 - 1, 99, 100])
    assert render_module._cell_strings(values, None) == list(map(str, values.tolist()))
    assert calls == [1]
    # sums past int64 are Python ints in an object array: str writes them
    big = np.array([2**64, 2**63, 0, 5], dtype=object)
    assert render_module._cell_strings(big, None) == ["18446744073709551616",
                                                       "9223372036854775808", "0", "5"]
    assert calls == [1]
    table = np.array(["", "a", "bc"], dtype=object)
    assert render_module._cell_strings(np.array([2, 0, 1, 1]), table) == ["bc", "", "a", "a"]


def test_uint64_labels_render_as_before():
    h = np.array([[2**63 - 1, 1, 9, 10], [99, 100, 2**32 - 1, 2**32],
                  [10**18 - 1, 10**18, 2**62, 7]], dtype=np.uint64)
    v = np.array([[2**63 - 2, 2, 8, 11], [98, 101, 2**32 - 2, 2**32 + 1],
                  [10**17, 999, 2**61, 2**63 - 3]], dtype=np.uint64)
    lab = Labeling(dims(3, 4), h, v)
    digest = hashlib.sha256()
    for fmt, annotate, highlight in itertools.product(("svg", "dot"),
                                                      ("labels", "weights", "corners"),
                                                      (False, True)):
        spec = RenderSpec(fmt, annotate, highlight)
        figure = render(lab, spec)
        digest.update(figure.encode())
        # the reference's weights wrap around in uint64; its labels and corners do not
        if annotate != "weights":
            assert figure == ref.render(lab, spec)
    # the twelve figures as rendered with one str() call per label and weight
    assert digest.hexdigest() == "fcc7eb086de637bccc85d32f0b13ae98a7281fa8e74700673d05125ae90d1e4f"


def test_render_default_spec_is_dot():
    out = render(construct(3, 3))
    assert out.startswith("graph torus_3x3 {")


@pytest.mark.parametrize("n,m", [(9, 15), (4, 6), (12, 8)])
@pytest.mark.parametrize("fmt", ["svg", "dot"])
def test_diagonal_colors_match_diagonal_of_edge(monkeypatch, n, m, fmt):
    # the closed-form colour index must give byte-identical figures to
    # locating every edge with diagonal_of_edge
    render_module = importlib.import_module("torusmagic.render")
    lab = construct(n, m)
    spec = RenderSpec(format=fmt, annotate="weights", highlight_diagonals=True)
    closed_form = render(lab, spec)

    def located(dims):
        idx = {"H": np.zeros((dims.n, dims.m), int), "V": np.zeros((dims.n, dims.m), int)}
        for e in all_edges(dims):
            idx[e.orient][e.i - 1, e.j - 1] = diagonal_of_edge(e, dims)[0] - 1
        return idx["H"], idx["V"]

    monkeypatch.setattr(render_module, "_diagonal_colors", located)
    assert render(lab, spec).encode() == closed_form.encode()


def test_render_refuses_a_grid_over_the_edge_cap(monkeypatch):
    render_module = importlib.import_module("torusmagic.render")
    lab = construct(600, 600)  # 720,000 edges
    assert lab.dims.q > render_module.MAX_RENDER_EDGES

    def no_text(*args, **kwargs):
        raise AssertionError("figure text was built")

    for name in ("_render_svg", "_render_dot", "_weave", "_diagonal_colors", "corner_sums",
                 "weight_matrix"):
        monkeypatch.setattr(render_module, name, no_text)
    for fmt in ("svg", "dot"):
        with pytest.raises(RenderTooLarge, match="C_600 x C_600 has 720000 edges"):
            render(lab, RenderSpec(format=fmt, annotate="weights", highlight_diagonals=True))


def test_render_edge_cap_is_inclusive(monkeypatch):
    render_module = importlib.import_module("torusmagic.render")
    lab = construct(3, 3)  # 18 edges
    monkeypatch.setattr(render_module, "MAX_RENDER_EDGES", 18)
    assert render(lab).startswith("graph torus_3x3 {")
    monkeypatch.setattr(render_module, "MAX_RENDER_EDGES", 17)
    with pytest.raises(RenderTooLarge):
        render(lab)


def test_render_memory_stays_near_twice_the_figure():
    # The band strings and the figure joined from them are about twice the
    # figure; a figure-wide list of pieces or of label strings adds more.
    # tracemalloc sees Python allocations only, not allocator fragmentation.
    lab = construct(99, 153)
    spec = RenderSpec(format="svg", annotate="weights", highlight_diagonals=True)
    tracemalloc.start()
    try:
        svg = render(lab, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * len(svg)
