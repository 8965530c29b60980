"""Acceptance gate: the nine build criteria, one test and one report line each.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion verdict
lines are printed in the terminal summary.
"""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from scalar_reference import all_edges, all_vertices, incident_edges, label, swapped
from torusmagic.cli import main as cli_main
from torusmagic.construct import construct
from torusmagic.diagonals import decompose, diagonal_cells, diagonal_of_edge
from torusmagic.grid import EdgeRef, dims
from torusmagic.labeling import Labeling
from torusmagic.search import SearchConfig, enumerate_completions, search
from torusmagic.serialize import ParseError, ShapeError, decode, encode
from torusmagic.verify import audit_corners, forced_constant, verify

GOLDEN_H = [[1, 4, 9], [8, 2, 5], [6, 7, 3]]
GOLDEN_V = [[12, 18, 14], [13, 10, 17], [16, 15, 11]]


def test_criterion_1_odd_odd_sweep(acceptance_report):
    pairs = [(n, m) for n in range(3, 28, 2) for m in range(n, 28, 2)
             if math.gcd(n, m) > 1]
    assert {(3, 3), (3, 9), (3, 15), (5, 5), (5, 15), (9, 15),
            (15, 25), (21, 27), (27, 27)} <= set(pairs)
    slowest = 0.0
    failures = []
    for n, m in pairs:
        t0 = time.perf_counter()
        report = verify(construct(n, m))
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        if not (report.is_supermagic
                and report.constant == 4 * n * m + 2
                and report.duplicate_or_missing == []
                and elapsed < 1.0):
            failures.append((n, m))
    ok = not failures
    acceptance_report(1, ok, f"odd/odd sweep: {len(pairs)} shapes, "
                             f"slowest {slowest * 1000:.0f} ms, failures {failures}")
    assert ok, failures


def test_criterion_2_even_even_sweep(acceptance_report):
    pairs = [(n, m) for n in range(4, 25, 2) for m in range(n, 25, 2)]
    assert {(4, 6), (6, 8)} <= set(pairs)
    slowest = 0.0
    failures = []
    for n, m in pairs:
        t0 = time.perf_counter()
        report = verify(construct(n, m))
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        if not (report.is_supermagic and report.constant == 4 * n * m + 2
                and elapsed < 1.0):
            failures.append((n, m))
    ok = not failures
    acceptance_report(2, ok, f"even/even sweep: {len(pairs)} shapes, "
                             f"slowest {slowest * 1000:.0f} ms, failures {failures}")
    assert ok, failures


def test_criterion_3_golden_instance(acceptance_report):
    lab = construct(3, 3)
    doc = json.loads(encode(lab))
    weights = verify(lab).weight_matrix
    ok = (doc["horizontal"] == GOLDEN_H
          and doc["vertical"] == GOLDEN_V
          and set(weights.ravel().tolist()) == {38})
    acceptance_report(3, ok, "golden 3x3 matrices bit-exact, all weights 38")
    assert ok


def test_criterion_4_corner_audit(acceptance_report):
    shapes = [(3, 3), (3, 9), (9, 15), (5, 5), (4, 4), (4, 6), (8, 12)]
    dirty = []
    for n, m in shapes:
        lab = construct(n, m)
        if not audit_corners(lab).clean:
            dirty.append((n, m))

    rng = random.Random(4)
    lab = construct(9, 15)
    edges = list(all_edges(lab.dims))
    swap_detected = True
    for _ in range(5):
        e1, e2 = rng.sample(edges, 2)
        tampered = swapped(lab, e1, e2)
        report = audit_corners(tampered)
        if len(report.mismatches) < 1:
            swap_detected = False
    ok = not dirty and swap_detected
    acceptance_report(4, ok, f"audit clean on {len(shapes)} shapes, "
                             f"random swaps always flagged: {swap_detected}")
    assert ok, (dirty, swap_detected)


def test_criterion_5_decomposition_fuzz(acceptance_report):
    rng = random.Random(20260819)
    bad = 0
    for _ in range(200):
        n, m = rng.randint(3, 60), rng.randint(3, 60)
        d = dims(n, m)
        diagonals = decompose(d)
        # every H and every V edge once, as the cells i*m + j of the grid
        h_cells, v_cells = diagonal_cells(diagonals)
        partition_ok = (len(diagonals) == math.gcd(n, m)
                        and h_cells.shape == v_cells.shape == (len(diagonals), math.lcm(n, m))
                        and np.array_equal(np.sort(h_cells, axis=None), np.arange(n * m))
                        and np.array_equal(np.sort(v_cells, axis=None), np.arange(n * m)))
        inversion_ok = all(
            diagonal_of_edge(EdgeRef("H", i + 1, hj + 1), d) == (diag.index, k, "H")
            and diagonal_of_edge(EdgeRef("V", i + 1, vj + 1), d) == (diag.index, k, "V")
            for diag in diagonals
            for k, (i, hj, vj) in enumerate(zip(*(a.tolist() for a in diag.indices())), start=1)
        )
        if not (partition_ok and inversion_ok):
            bad += 1
    ok = bad == 0
    acceptance_report(5, ok, f"200 random shapes up to 60x60: "
                             f"{200 - bad} clean partitions with exact inversion")
    assert ok


def test_criterion_6_forced_constant(acceptance_report):
    rng = random.Random(6)
    formula_ok = True
    for _ in range(100):
        n, m = rng.randint(3, 80), rng.randint(3, 80)
        if forced_constant(dims(n, m)) != 2 * (2 * n * m + 1):
            formula_ok = False

    # adversarial: uniform weights at the wrong constant must be rejected
    rejected = True
    for n, m in [(3, 3), (4, 6), (5, 5)]:
        lab = construct(n, m)
        shifted = Labeling(lab.dims, lab.h + 1, lab.v + 1)
        report = verify(shifted)
        if report.constant != forced_constant(lab.dims) + 4 or report.is_supermagic:
            rejected = False
        doubled = Labeling(lab.dims, lab.h * 2, lab.v * 2)
        if verify(doubled).is_supermagic:
            rejected = False
    ok = formula_ok and rejected
    acceptance_report(6, ok, "forced constant 2(2nm+1) on 100 shapes; "
                             "uniform-but-wrong-constant labelings rejected")
    assert ok


def test_criterion_7_search_reproduction(acceptance_report):
    out33 = search(3, 3)
    ok33 = (out33.status == "found"
            and out33.stats.elapsed < 5.0
            and verify(out33.labeling).constant == 38)

    cfg34 = SearchConfig(node_budget=100_000_000, time_budget=600.0)
    out34 = search(3, 4, cfg34)
    ok34 = (out34.status == "found"
            and verify(out34.labeling).constant == 50)

    # stretch targets: reported, never blocking
    stretch = {}
    out35 = search(3, 5, SearchConfig(node_budget=100_000_000, time_budget=300.0))
    stretch["(3,5)"] = f"{out35.status} ({out35.stats.nodes} nodes, {out35.stats.elapsed:.1f}s)"
    out36 = search(3, 6, SearchConfig(node_budget=20_000_000, time_budget=300.0, seed=1))
    stretch["(3,6)"] = f"{out36.status} ({out36.stats.nodes} nodes, {out36.stats.elapsed:.1f}s)"
    for shape, out in (("(3,5)", out35), ("(3,6)", out36)):
        if out.status == "found":
            assert verify(out.labeling).is_supermagic

    ok = ok33 and ok34
    acceptance_report(7, ok, f"search (3,3) {out33.stats.elapsed:.2f}s, "
                             f"(3,4) {out34.stats.nodes} nodes {out34.stats.elapsed:.1f}s; "
                             f"stretch {stretch}")
    assert ok


def test_criterion_8_propagation_soundness(acceptance_report):
    d = dims(3, 3)
    golden = construct(3, 3)
    edges = list(all_edges(d))
    kept, removed = edges[:-8], edges[-8:]
    assignments = {e: label(golden, e) for e in kept}

    solutions, outcome = enumerate_completions(d, assignments)
    assert outcome.status == "exhausted"

    # naive route: try all 8! placements, checking weights from scratch
    missing = sorted(set(range(1, d.q + 1)) - set(assignments.values()))
    vertices = list(all_vertices(d))
    incidence = {v: incident_edges(v, d) for v in vertices}
    naive = []
    for perm in itertools.permutations(missing):
        full = dict(assignments)
        full.update(zip(removed, perm))
        if all(sum(full[e] for e in incidence[v]) == 38 for v in vertices):
            # edges runs over the H block, then the V block, both row-major
            naive.append(Labeling(d, *np.array([full[e] for e in edges]).reshape(2, d.n, d.m)))
    for lab in naive:
        assert verify(lab).is_supermagic

    def key(lab):
        return (lab.h.tobytes(), lab.v.tobytes())

    ok = sorted(map(key, solutions)) == sorted(map(key, naive))
    acceptance_report(8, ok, f"last-8-edges completion: pruned search found "
                             f"{len(solutions)} solutions, naive {math.factorial(8)}-way "
                             f"enumeration found {len(naive)}, sets equal: {ok}")
    assert ok


def test_criterion_9_serialization(acceptance_report, tmp_path):
    rng = random.Random(9)
    roundtrip_ok = True
    for _ in range(100):
        n, m = rng.randint(3, 9), rng.randint(3, 9)
        q = 2 * n * m
        flat = np.array(rng.sample(range(1, q + 1), q), dtype=np.int64)
        lab = Labeling(dims(n, m), flat[: n * m].reshape(n, m),
                       flat[n * m:].reshape(n, m))
        if decode(encode(lab)) != lab:
            roundtrip_ok = False

    with pytest.raises(ParseError):
        decode("not json and not an edge list")
    with pytest.raises(ShapeError):
        decode('{"n": 3, "m": 3, "horizontal": [[1, 2, 3]], '
               '"vertical": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]}')
    with pytest.raises(ValueError):
        doc = json.loads(encode(construct(3, 3)))
        doc["vertical"][0][0] = -5
        decode(json.dumps(doc))

    def exit_code_of(text):
        path = tmp_path / "malformed.json"
        path.write_text(text, encoding="utf-8")
        return cli_main(["verify", str(path)])

    errors_exit_1 = (exit_code_of('{"n": 3, "m": 3}') == 1
                     and exit_code_of("H 1 1 0\n") == 1
                     and cli_main(["verify", "/no/such/path.json"]) == 1)
    ok = roundtrip_ok and errors_exit_1
    acceptance_report(9, ok, "100 random labelings roundtrip; typed errors "
                             "raised; malformed input exits 1")
    assert ok
