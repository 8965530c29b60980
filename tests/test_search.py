import contextlib
import importlib
import itertools
import multiprocessing
import multiprocessing.connection
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalar_reference import H, V, all_edges, label
from test_search_differential import WORKER_PINS
from torusmagic.construct import construct
from torusmagic.grid import TorusMagicError, dims
from torusmagic.labeling import Labeling
from torusmagic.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    MAX_SEARCH_EDGES,
    PartialLabeling,
    SearchConfig,
    SearchTooLarge,
    _labelings,
    _luby,
    _shuffle,
    enumerate_completions,
    pool_size,
    search,
)
from torusmagic.verify import verify


def test_search_3_3_found_and_verified():
    out = search(3, 3)
    assert out.status == FOUND
    report = verify(out.labeling)
    assert report.is_supermagic and report.constant == 38
    assert out.stats.nodes > 0
    assert out.stats.elapsed < 5.0


def test_search_3_4_found():
    out = search(3, 4, SearchConfig(node_budget=100_000_000, time_budget=600))
    assert out.status == FOUND
    assert verify(out.labeling).constant == 50


def test_search_node_budget_one():
    out = search(3, 4, SearchConfig(node_budget=1, time_budget=60))
    assert out.status == BUDGET_EXCEEDED
    assert out.labeling is None
    assert out.stats.nodes <= 2  # one per symmetry branch at most


def test_time_budget_holds_on_a_large_grid():
    # a node costs O(nm) here, so the clock is read every few nodes
    out = search(100, 100, SearchConfig(time_budget=0.05))
    assert out.status == BUDGET_EXCEEDED
    assert out.stats.elapsed < 0.5


def test_search_refuses_a_grid_over_the_edge_cap(monkeypatch):
    search_module = importlib.import_module("torusmagic.search")
    big = dims(2000, 2000)  # 8,000,000 edges
    assert big.q > MAX_SEARCH_EDGES >= dims(100, 100).q

    def no_state(*args, **kwargs):
        raise AssertionError("search state was built")

    # the first thing PartialLabeling builds after the check
    monkeypatch.setattr(search_module, "forced_constant", no_state)
    message = "C_2000 x C_2000 has 8000000 edges; search takes at most 200000"
    with pytest.raises(SearchTooLarge, match=message):
        search(2000, 2000)
    with pytest.raises(SearchTooLarge, match=message):
        enumerate_completions(big, {H(1, 1): 1})
    with pytest.raises(SearchTooLarge, match=message):
        PartialLabeling(big)


def test_search_edge_cap_is_inclusive(monkeypatch):
    search_module = importlib.import_module("torusmagic.search")
    monkeypatch.setattr(search_module, "MAX_SEARCH_EDGES", 18)
    assert search(3, 3).status == FOUND
    monkeypatch.setattr(search_module, "MAX_SEARCH_EDGES", 17)
    with pytest.raises(SearchTooLarge):
        search(3, 3)
    with pytest.raises(SearchTooLarge):
        enumerate_completions(dims(3, 3), {H(1, 1): 1})


def test_search_deterministic_given_seed():
    cfg = SearchConfig(node_budget=5_000_000, time_budget=120, seed=11)
    a, b = search(3, 4, cfg), search(3, 4, cfg)
    assert a.status == b.status == FOUND
    assert a.stats.nodes == b.stats.nodes
    assert a.stats.restarts == b.stats.restarts
    assert a.labeling == b.labeling


def test_config_validation():
    with pytest.raises(TorusMagicError):
        SearchConfig(node_budget=0)
    with pytest.raises(TorusMagicError):
        SearchConfig(time_budget=-1)
    with pytest.raises(TorusMagicError):
        SearchConfig(time_budget=float("nan"))  # would never expire


def test_spelling_out_the_seeded_policy_gives_the_same_config():
    for seed in (0, 7):
        spelled = SearchConfig(value_order="random", restart_policy="luby", seed=seed)
        assert spelled == SearchConfig(seed=seed)
        a, b = search(3, 4, spelled), search(3, 4, SearchConfig(seed=seed))
        assert (a.status, a.stats.nodes, a.stats.restarts, a.stats.prunes) == \
               (b.status, b.stats.nodes, b.stats.restarts, b.stats.prunes)
        assert a.labeling == b.labeling
    assert SearchConfig(value_order="ascending", restart_policy="none") == SearchConfig()


def test_numpy_integer_seeds_and_budgets_are_stored_as_ints():
    cfg = SearchConfig(seed=np.int64(1), node_budget=np.int64(100_000_000))
    assert cfg == SearchConfig(seed=1) and hash(cfg) == hash(SearchConfig(seed=1))
    assert type(cfg.seed) is int and type(cfg.node_budget) is int
    assert type(SearchConfig(seed=np.uint8(7), node_budget=np.int32(50_000)).seed) is int
    out = search(3, 6, cfg)
    assert (out.status, out.stats.nodes, out.stats.restarts) == WORKER_PINS["3x6-seed1"][:3]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(0, 2**64))
def test_the_inlined_draws_shuffle_as_the_standard_library_does(length, seed):
    values = list(range(100, 100 + length))
    ours, theirs = random.Random(seed), random.Random(seed)
    expected = values[:]
    theirs.shuffle(expected)
    _shuffle(values, ours.getrandbits)
    assert values == expected
    assert ours.getstate() == theirs.getstate()  # the same draws, no more


POLICIES_THE_SEED_CONTRADICTS = [
    dict(value_order="random"),  # a seed is required
    dict(restart_policy="luby"),
    dict(restart_policy="luby", value_order="ascending"),
    dict(restart_policy="often"),
    dict(value_order="spiral"),
    dict(seed=1, restart_policy="none"),
    dict(seed=1, value_order="ascending"),
    dict(seed=1, value_order="descending"),
    dict(seed=1, value_order="spiral"),
    dict(value_order="descending"),
    dict(value_order="none"),
]


@pytest.mark.parametrize("kwargs", POLICIES_THE_SEED_CONTRADICTS)
def test_a_policy_the_seed_does_not_imply_raises(kwargs):
    with pytest.raises(TorusMagicError):
        SearchConfig(**kwargs)


def luby(**kwargs):
    return SearchConfig(seed=1, **kwargs)


def test_pool_size_is_the_usable_cpus_of_a_forking_parent(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert pool_size() == 3
    # a daemonic process, such as a pool worker, may not have children
    monkeypatch.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True))
    assert pool_size() == 1
    monkeypatch.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=False))
    assert pool_size() == 3
    monkeypatch.delattr(os, "fork", raising=False)
    assert pool_size() == 1


def python_prints(code):
    """What `code` prints in a fresh interpreter that imports this package."""
    src = Path(importlib.import_module("torusmagic").__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_package_leaves_multiprocessing_unloaded():
    code = "import sys, torusmagic, torusmagic.cli; print('multiprocessing' in sys.modules)"
    assert python_prints(code) == "False"


def test_a_grid_over_the_edge_cap_is_refused_before_any_worker_starts(pools):
    # the calling process builds the pinned root, so two CPUs start no pool
    with pytest.raises(SearchTooLarge, match="C_400 x C_400 has 320000 edges"):
        search(400, 400)
    assert pools == []
    # nor does it import multiprocessing to refuse
    code = ("import os, sys, torusmagic\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "try:\n"
            "    torusmagic.search(400, 400)\n"
            "except torusmagic.SearchTooLarge:\n"
            "    print('multiprocessing' in sys.modules)\n")
    assert python_prints(code) == "False"


def test_no_child_process_outlives_a_search(pools):
    found = search(3, 6, luby())
    cut = search(5, 6, luby(node_budget=30_000))
    ascending = search(3, 4)
    # the budget cuts the third of nine subtrees, which is walked again in this process
    _, enumeration = enumerate_completions(dims(3, 3), {H(1, 1): 1, V(1, 1): 9},
                                           SearchConfig(node_budget=40_000))
    assert [out.status for out in (found, cut, ascending, enumeration)] == [
        FOUND, BUDGET_EXCEEDED, FOUND, BUDGET_EXCEEDED]
    assert len(pools) == 4
    assert multiprocessing.active_children() == []


def merged_runs(monkeypatch):
    """The runs a search merges, as its scheduler hands them over."""
    search_module = importlib.import_module("torusmagic.search")
    results, merged = search_module._results, []

    def counted(*args, **kwargs):
        with contextlib.closing(results(*args, **kwargs)) as runs:
            for run in runs:
                merged.append(run)
                yield run

    monkeypatch.setattr(search_module, "_results", counted)
    return merged


def test_an_ascending_search_merges_pieces_of_its_first_subtree(pools, monkeypatch):
    # the (3,5) labeling lies in the first root candidate's subtree, which
    # a first-decision split would hand to one worker whole
    merged = merged_runs(monkeypatch)
    out = search(3, 5)
    assert (out.status, out.stats.nodes) == WORKER_PINS["3x5-ascending"][:2]
    assert len(pools) == 1 and len(merged) > 1


def test_no_piece_is_sent_once_the_deadline_has_passed(pools, monkeypatch):
    # Pieces of fewer than 1,024 nodes never read the clock, so the caller
    # reads it before it sends each piece after the first.  Here the
    # caller's clock passes the deadline once it has read the start; the
    # workers, forked copies, keep the real one.
    search_module = importlib.import_module("torusmagic.search")
    caller, reads, real = os.getpid(), [], search_module.time.perf_counter

    def clock():
        if os.getpid() != caller:
            return real()
        reads.append(None)
        return real() + (0 if len(reads) == 1 else 1e6)

    sent, send = [], multiprocessing.connection.Connection.send

    def counted_send(self, obj):
        if os.getpid() == caller:
            sent.append(obj)
        return send(self, obj)

    monkeypatch.setattr(search_module, "time", SimpleNamespace(perf_counter=clock))
    monkeypatch.setattr(multiprocessing.connection.Connection, "send", counted_send)
    out = search(3, 5)
    # the first piece, the whole tree, comes back cut by its window
    assert (out.status, out.stats.nodes) == (BUDGET_EXCEEDED, 4096)
    assert len(sent) == 1 and len(reads) > 1


def counted_verify(monkeypatch):
    """Count calls to verify as search makes them, in this process only."""
    search_module = importlib.import_module("torusmagic.search")
    calls = []

    def counted(lab):
        calls.append(os.getpid())
        return verify(lab)

    monkeypatch.setattr(search_module, "verify", counted)
    return calls


def test_a_pooled_search_verifies_its_labeling_in_the_calling_process(pools, monkeypatch):
    calls = counted_verify(monkeypatch)
    out = search(3, 6, luby())
    assert out.status == FOUND and len(pools) == 1  # found on a worker
    assert calls == [os.getpid()]


def counted_batches(monkeypatch):
    """(process, stack shape) of each batched check search makes, in this
    process only."""
    search_module = importlib.import_module("torusmagic.search")
    check, calls = search_module._supermagic_rows, []

    def counted(d, rows):
        calls.append((os.getpid(), rows.shape))
        return check(d, rows)

    monkeypatch.setattr(search_module, "_supermagic_rows", counted)
    return calls


def test_enumerate_completions_verifies_each_solution_once(pools, monkeypatch):
    # the workers find the 40 solutions; the calling process checks all of
    # them once, in one batch, and calls verify on none
    calls, batches = counted_verify(monkeypatch), counted_batches(monkeypatch)
    solutions, out = enumerate_completions(dims(3, 3), {H(1, 1): 1, V(1, 1): 2})
    assert out.status == EXHAUSTED and len(solutions) == 40 and len(pools) == 1
    assert batches == [(os.getpid(), (40, 18))]
    assert calls == []


def test_numpy_integer_dimensions_search_as_ints():
    out = search(np.int64(3), np.int64(4))
    assert (out.status, out.stats.nodes) == WORKER_PINS["3x4-ascending"][:2]
    assert verify(out.labeling).is_supermagic
    solutions, out = enumerate_completions(dims(np.int64(3), 3), {H(1, 1): 1, V(1, 1): 2})
    assert (len(solutions), out.stats.nodes) == (40, 7_906)
    # the pool holds bits 1..q, past int64 from q = 63 on
    assert bin(PartialLabeling(dims(np.int64(6), 6)).pool).count("1") == 72


def test_a_found_labeling_that_fails_verify_is_an_internal_defect(monkeypatch):
    # search checks what it found through the module's verify
    search_module = importlib.import_module("torusmagic.search")
    monkeypatch.setattr(search_module, "verify", lambda lab: SimpleNamespace(is_supermagic=False))
    with pytest.raises(RuntimeError, match="internal defect: search produced a non-supermagic"):
        search(3, 3)


@pytest.mark.parametrize("n,m", [(3, 3), (3, 5), (5, 3), (4, 6)])
def test_label_rows_split_into_the_labelings_they_list(n, m):
    # a row is Labeling.labels(): the H block, then the V block
    d = dims(n, m)
    rng = np.random.default_rng(n * m)
    labs = [Labeling(d, *rng.permutation(d.q).reshape(2, n, m) + 1) for _ in range(4)]
    assert _labelings(d, np.stack([lab.labels() for lab in labs])) == labs


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("spoil", ["swap", "duplicate"])
def test_a_corrupted_solution_row_is_an_internal_defect(pools, monkeypatch, cpus, spoil):
    # one of the 40 rows is spoilt where it is found, in a worker on two
    # CPUs; the caller's batched check refuses the whole enumeration
    pins = {H(1, 1): 1, V(1, 1): 2}
    solutions, _ = enumerate_completions(dims(3, 3), pins)
    target = solutions[17].labels().tolist()
    search_module = importlib.import_module("torusmagic.search")
    engine, spoilt = search_module._run, []

    def spoiling(state, stats, **kwargs):
        status, rows, rest = engine(state, stats, **kwargs)
        for row in rows:
            if row == target:
                if spoil == "swap":
                    row[3], row[5] = row[5], row[3]
                else:
                    row[3] = row[5]
                spoilt.append(os.getpid())
        return status, rows, rest

    monkeypatch.setattr(search_module, "_run", spoiling)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    pools.clear()
    with pytest.raises(RuntimeError, match="internal defect: search produced a non-supermagic"):
        enumerate_completions(dims(3, 3), pins)
    assert len(pools) == cpus - 1
    assert spoilt == ([os.getpid()] if cpus == 1 else [])  # a worker's list is its own
    assert multiprocessing.active_children() == []


def fail():
    raise RuntimeError("a worker run failed")


# (call, which of its runs acts): the third Luby run, every piece that the
# first cut of an ascending search leaves, and the piece of an
# enumeration's second root candidate, none of which the calling process
# walks itself
FAILING_RUNS = {
    "luby": (lambda: search(5, 6, SearchConfig(node_budget=30_000, time_budget=1.0, seed=2)),
             lambda stats, kwargs: stats.nodes == 2 * 4096),  # after two windows of 4,096
    "ascending": (lambda: search(3, 4, SearchConfig(time_budget=1.0)),
                  lambda stats, kwargs: kwargs.get("piece") is not None),
    "enumeration": (lambda: enumerate_completions(dims(3, 3), {H(1, 1): 1, V(1, 1): 2},
                                                  SearchConfig(time_budget=1.0)),
                    lambda stats, kwargs: kwargs.get("piece") == ((1,), 2)),
}


@pytest.mark.parametrize("call", FAILING_RUNS)
@pytest.mark.parametrize("act,error", [(fail, "a worker run failed"),
                                       (lambda: os._exit(1), "ended without returning its run")])
def test_a_failed_or_lost_worker_run_is_raised_in_the_parent(pools, monkeypatch, act, error, call):
    # a worker that dies ends its pipe, so the search does not wait for its run
    search_module = importlib.import_module("torusmagic.search")
    engine = search_module._run
    run, acts = FAILING_RUNS[call]

    def act_on_one_run(state, stats, **kwargs):
        if acts(stats, kwargs):
            act()
        return engine(state, stats, **kwargs)

    monkeypatch.setattr(search_module, "_run", act_on_one_run)
    with pytest.raises(RuntimeError, match=error):
        run()
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


BAD_SEARCH_INPUTS = {
    "float seed": lambda: search(3, 3, SearchConfig(seed=1.5)),
    "bool seed": lambda: SearchConfig(seed=True),
    "string time budget": lambda: SearchConfig(time_budget="5"),
    "bool node budget": lambda: SearchConfig(node_budget=True),
    "float node budget": lambda: SearchConfig(node_budget=30916.5),
    "descending order": lambda: SearchConfig(value_order="descending"),
    "float pin": lambda: enumerate_completions(dims(3, 3), {H(1, 1): 1.0}),
    "bool pin": lambda: enumerate_completions(dims(3, 3), {H(1, 1): True}),
    "string pin": lambda: PartialLabeling(dims(3, 3), {H(1, 1): "1"}),
    "tuple pin key": lambda: enumerate_completions(dims(3, 3), {("H", 1, 1): 1}),
    "float edge index": lambda: H(1.0, 1),
    "bool edge index": lambda: H(True, 1),
    "string edge index": lambda: V("1", 1),
}


@pytest.mark.parametrize("name", sorted(BAD_SEARCH_INPUTS))
def test_bad_search_inputs_raise_typed_errors(name):
    with pytest.raises(TorusMagicError):
        BAD_SEARCH_INPUTS[name]()


def test_numpy_integer_pins_are_labels():
    pins = {H(1, 1): 1, V(1, 1): 2}
    solutions, out = enumerate_completions(dims(3, 3), pins)
    numpy_solutions, numpy_out = enumerate_completions(
        dims(3, 3), {e: np.int64(x) for e, x in pins.items()})
    assert numpy_solutions == solutions and numpy_out.stats.nodes == out.stats.nodes


def test_luby_sequence():
    assert [_luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def golden_partial(keep_all_but=8):
    d = dims(3, 3)
    golden = construct(3, 3)
    edges = list(all_edges(d))
    kept = edges[: len(edges) - keep_all_but]
    return d, golden, {e: label(golden, e) for e in kept}, edges[len(edges) - keep_all_but:]


def first_node(assignments):
    """(status, nodes, propagations, prunes) of a 3 x 3 completion cut
    after one node: a partial the root refutes ends EXHAUSTED with 0 nodes
    and the refuting rule; one it accepts spends the single node."""
    _, out = enumerate_completions(dims(3, 3), assignments, SearchConfig(node_budget=1))
    return out.status, out.stats.nodes, out.stats.propagations, out.stats.prunes


def test_forced_label_examples():
    # vertex (1,1) has labels {1, 9, 12}: the fourth edge, V(3,1), is forced
    # to 38 - 22 = 16 at the root.  With V(3,1) = 16 given, the same child
    # node propagates nothing, so the one propagation is the root's.
    assert first_node({H(1, 1): 1, H(1, 3): 9, V(1, 1): 12}) == (BUDGET_EXCEEDED, 1, 1, {})
    assert first_node({H(1, 1): 1, H(1, 3): 9, V(1, 1): 12, V(3, 1): 16}) == (
        BUDGET_EXCEEDED, 1, 0, {})
    assert first_node({H(1, 1): 1, H(1, 3): 9, V(1, 1): 12, V(3, 1): 15}) == (
        EXHAUSTED, 0, 0, {"closed-sum": 1})

    # 38 - 51 < 1
    assert first_node({H(1, 1): 18, H(1, 3): 17, V(1, 1): 16}) == (
        EXHAUSTED, 0, 0, {"forced-range": 1})
    # needs 32 > 18
    assert first_node({H(1, 1): 1, H(1, 3): 2, V(1, 1): 3}) == (
        EXHAUSTED, 0, 0, {"forced-range": 1})


def test_forced_label_requires_three_edges():
    # one labeled edge at (1,1) forces nothing
    assert first_node({H(1, 1): 1}) == (BUDGET_EXCEEDED, 1, 0, {})


def test_forced_label_rejects_used_value():
    # vertex (1,1) needs 16, but 16 is already used elsewhere
    assert first_node({H(1, 1): 10, H(1, 3): 9, V(1, 1): 3, H(2, 2): 16}) == (
        EXHAUSTED, 0, 0, {"forced-used": 1})


def test_feasible_completion_examples():
    # r=1: vertex sum 35 needs 3, which is unused: forced, not refuted
    assert first_node({H(1, 1): 18, H(1, 3): 9, V(1, 1): 8}) == (BUDGET_EXCEEDED, 1, 1, {})
    # r=2: (1,1) needs 35 from two labels, and with 18 used the two
    # largest free ones sum to 33
    assert first_node({H(1, 1): 1, H(1, 3): 2, H(2, 2): 18}) == (EXHAUSTED, 0, 0, {"bounds": 1})


# Diagonal 1 of the 3 x 3 construction (start column 1) left open: six
# vertices with two open edges each, three closed ones, and the pool
# {1, 2, 3, 16, 17, 18}.
DIAGONAL_1 = {H(1, 1), V(1, 2), H(2, 2), V(2, 3), H(3, 3), V(3, 1)}


def test_feasible_completion_pair_lookup():
    # The golden labels on the other two diagonals: (1,1) needs
    # 38 - 9 - 12 = 17 = 1 + 16, every open vertex finds its pair, and the
    # enumeration completes to the golden labeling and one more.
    d, golden = dims(3, 3), construct(3, 3)
    assignments = {e: label(golden, e) for e in all_edges(d) if e not in DIAGONAL_1}
    solutions, out = enumerate_completions(d, assignments)
    assert (out.status, out.stats.nodes, out.stats.propagations, out.stats.prunes) == (
        EXHAUSTED, 4, 14, {"forced-used": 2})
    assert len(solutions) == 2 and golden in solutions

    # The same labels 4..15 rearranged so that every closed vertex still
    # sums to 38, but (1,1) needs 38 - 4 - 12 = 22: within the r=2 bounds
    # 1 + 2 .. 17 + 18, yet no two free labels sum to 22.
    assignments = {H(1, 2): 5, H(1, 3): 4, H(2, 1): 6, H(2, 3): 7, H(3, 1): 8, H(3, 2): 9,
                   V(1, 1): 12, V(1, 3): 14, V(2, 1): 13, V(2, 2): 11, V(3, 2): 10, V(3, 3): 15}
    assert set(assignments) | DIAGONAL_1 == set(all_edges(d))
    assert first_node(assignments) == (EXHAUSTED, 0, 0, {"pair": 1})


def test_partial_labeling_guards():
    partial = PartialLabeling(dims(3, 3), {H(1, 1): 1})
    with pytest.raises(TorusMagicError):
        partial.assign(H(1, 1), 2)  # already labeled
    with pytest.raises(TorusMagicError):
        partial.assign(H(1, 2), 1)  # label in use
    with pytest.raises(TorusMagicError):
        partial.assign(H(1, 2), 19)  # out of range
    with pytest.raises(TorusMagicError):
        partial.assign(H(1, 4), 2)  # off the 3 x 3 grid, not H(2,1)
    with pytest.raises(TorusMagicError):
        partial.assign(V(0, 1), 2)  # off the grid, not V(3,1)
    with pytest.raises(TorusMagicError, match=r"^\('H', 1, 2\) is not an edge of C_3 x C_3$"):
        partial.assign(("H", 1, 2), 2)  # not an EdgeRef
    # the refused calls changed nothing
    assert partial.label.count(0) == 17
    assert not partial.is_free(1) and partial.is_free(2)
    with pytest.raises(TorusMagicError):
        enumerate_completions(dims(3, 3), {H(1, 1): 1, H(4, 1): 2})


def test_enumerate_completions_matches_brute_force():
    d, golden, assignments, removed = golden_partial(8)
    solutions, outcome = enumerate_completions(d, assignments)
    assert outcome.status == EXHAUSTED

    missing = sorted(set(range(1, d.q + 1)) - set(assignments.values()))
    edges = list(all_edges(d))  # the H block, then the V block, both row-major
    brute = []
    for perm in itertools.permutations(missing):
        full = dict(assignments)
        full.update(zip(removed, perm))
        lab = Labeling(d, *np.array([full[e] for e in edges]).reshape(2, d.n, d.m))
        if verify(lab).is_supermagic:
            brute.append(lab)

    def key(lab):
        return (lab.h.tobytes(), lab.v.tobytes())

    assert sorted(map(key, solutions)) == sorted(map(key, brute))
    assert any(lab == golden for lab in solutions)


def test_enumerate_completions_refuses_restarts():
    # a seed means Luby restarts, and a find-all run is one ascending run
    for seed in (0, 1):
        with pytest.raises(TorusMagicError, match="cannot restart"):
            enumerate_completions(dims(3, 3), {H(1, 1): 1}, SearchConfig(seed=seed))


def test_enumerate_completions_refutes_rewired_partial():
    d, golden, assignments, _ = golden_partial(8)
    assignments[V(1, 1)] = 10  # golden has 12 here; 10 belongs elsewhere
    solutions, outcome = enumerate_completions(d, assignments)
    assert outcome.status == EXHAUSTED
    assert solutions == []


def test_found_labelings_pin_label_one():
    # symmetry breaking puts label 1 on H(1,1), or V(1,1) on the second branch
    out = search(3, 4)
    assert label(out.labeling, H(1, 1)) == 1 or label(out.labeling, V(1, 1)) == 1
