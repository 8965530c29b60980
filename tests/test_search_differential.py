"""The iterative bitset-pool search engine against the recursive engine
kept in scalar_reference.py.

Both must walk the same tree: the same status and labeling (for
enumerations, the same solutions in the same order) and the same nodes,
propagations, restarts, max depth and per-rule prune counts.  Every test
here sees at least two usable CPUs, so a Luby search runs its runs, and
an ascending tree its subtrees, on a worker pool; the reference walks
them one after another in-process.
"""

import dataclasses
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from scalar_reference import all_edges, label
from torusmagic.construct import construct
from torusmagic.grid import EdgeRef, dims
from torusmagic.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    SearchConfig,
    enumerate_completions,
    search,
)
from torusmagic.verify import verify


pytestmark = pytest.mark.usefixtures("pools")


def summary(outcome):
    s = outcome.stats
    return outcome.status, s.nodes, s.propagations, s.restarts, s.max_depth, s.prunes


def assert_same_search(n, m, cfg):
    new, old = search(n, m, cfg), ref.search(n, m, cfg)
    assert summary(new) == summary(old)
    assert new.labeling == old.labeling
    return new


def assert_same_enumeration(d, assignments, cfg=None):
    new_solutions, new = enumerate_completions(d, assignments, cfg)
    old_solutions, old = ref.enumerate_completions(d, assignments, cfg)
    assert summary(new) == summary(old)
    assert new_solutions == old_solutions
    return new_solutions, new


@pytest.mark.parametrize("n,m,order", [(3, 3, "ascending"), (3, 4, "ascending")])
def test_deterministic_orders(n, m, order):
    out = assert_same_search(n, m, SearchConfig(value_order=order))
    assert out.status == FOUND


def test_luby_restarts(pools):
    restarts = 0
    for seed in range(4):
        out = assert_same_search(3, 4, SearchConfig(seed=seed))
        assert out.status == FOUND
        restarts += out.stats.restarts
    assert restarts > 0  # the restart path ran
    assert pools  # and ran on a worker pool


@pytest.mark.parametrize("budget,runs", [(12_288, 3), (30_000, 6)])
def test_luby_budget_cut_counts_only_the_restarts_that_start(pools, budget, runs):
    # Luby windows of 4,096 x 1, 1, 2, 1, 1, 2 nodes: every run fills its
    # window until the budget cuts the last one, after which none starts
    out = assert_same_search(5, 6, SearchConfig(node_budget=budget, seed=2))
    assert out.status == BUDGET_EXCEEDED
    assert (out.stats.nodes, out.stats.restarts) == (budget, runs - 1)
    assert len(pools) == 1


def searched(shape, cfg):
    out = search(*shape, cfg)
    return summary(out), [] if out.labeling is None else [out.labeling]


def enumerated(pins, cfg):
    solutions, out = enumerate_completions(dims(3, 3), pins, cfg)
    return summary(out), solutions


def bucket(x):
    return {EdgeRef("H", 1, 1): 1, EdgeRef("V", 1, 1): x}


# The 9 subtrees of bucket V(1,1)=9 take 14,519, 16,398, 14,821, 17,181,
# 1, 14,776, 11,569, 14,647 and 9,482 nodes, 113,394 in all.
LUBY = SearchConfig(seed=0)
WORKER_CASES = {
    **{f"3x4-seed{seed}": (searched, (3, 4), dataclasses.replace(LUBY, seed=seed))
       for seed in range(8)},
    **{f"5x6-budget{budget}": (searched, (5, 6), dataclasses.replace(LUBY, seed=2, node_budget=budget))
       for budget in (12_288, 30_000)},
    "3x4-time-budget": (searched, (3, 4), dataclasses.replace(LUBY, seed=1, time_budget=1e-9)),
    "3x4-endless-time-budget": (searched, (3, 4),
                                dataclasses.replace(LUBY, seed=1, time_budget=float("inf"))),
    "3x6-seed1": (searched, (3, 6), dataclasses.replace(LUBY, seed=1)),
    # beyond 3 x m: a Luby search, and an ascending walk 55 levels deep
    "4x5-seed1": (searched, (4, 5), dataclasses.replace(LUBY, seed=1)),
    "7x8-ascending-budget20000": (searched, (7, 8), SearchConfig(node_budget=20_000)),
    **{f"3x{m}-ascending": (searched, (3, m), SearchConfig()) for m in (3, 4, 5)},
    # cut where the first piece's window ends, one node into its pieces,
    # inside them, one node short of the labeling and at it
    **{f"3x5-ascending-budget{budget}": (searched, (3, 5), SearchConfig(node_budget=budget))
       for budget in (4_096, 4_097, 100_000, 471_803, 471_804)},
    **{f"3x3-all-x{x}": (enumerated, bucket(x), SearchConfig()) for x in (2, 9)},
    # cut inside the third and the eighth subtree
    **{f"3x3-all-x9-budget{budget}": (enumerated, bucket(9), SearchConfig(node_budget=budget))
       for budget in (40_000, 100_000)},
    # the budget runs out where the second subtree ends, with seven left
    "3x3-all-x9-boundary": (enumerated, bucket(9), SearchConfig(node_budget=30_917)),
    # ... and where the last one ends, which finishes the walk
    "3x3-all-x9-last-boundary": (enumerated, bucket(9), SearchConfig(node_budget=113_394)),
    # the root forces V(3,1) = 16; its one propagation counts once
    "3x3-forced-root-budget1": (enumerated, {EdgeRef("H", 1, 1): 1, EdgeRef("H", 1, 3): 9,
                                            EdgeRef("V", 1, 1): 12}, SearchConfig(node_budget=1)),
}
# (status, nodes[, restarts[, solutions[, propagations]]]) where the case
# pins them; a search's solutions are its one labeling, if it found one
WORKER_PINS = {
    "3x3-ascending": (FOUND, 367, 0, 1),
    "3x4-ascending": (FOUND, 129_091, 0, 1),
    "3x5-ascending": (FOUND, 471_804, 0, 1),
    "3x6-seed1": (FOUND, 656_723, 62, 1),
    "4x5-seed1": (FOUND, 91_774, 13, 1, 32_691),
    "7x8-ascending-budget20000": (BUDGET_EXCEEDED, 20_000, 0, 0, 7_432),
    "3x4-time-budget": (BUDGET_EXCEEDED, 0),  # the clock is read before the first run
    **{f"3x5-ascending-budget{budget}": (BUDGET_EXCEEDED, budget)
       for budget in (4_096, 4_097, 100_000, 471_803)},
    "3x5-ascending-budget471804": (FOUND, 471_804),
    "3x3-all-x9": (EXHAUSTED, 113_394, 0, 455, 54_869),
    "3x3-all-x9-budget40000": (BUDGET_EXCEEDED, 40_000, 0, 150),
    "3x3-all-x9-boundary": (BUDGET_EXCEEDED, 30_917),
    "3x3-all-x9-last-boundary": (EXHAUSTED, 113_394, 0, 455),
    "3x3-forced-root-budget1": (BUDGET_EXCEEDED, 1, 0, 0, 1),
}

# (prunes per rule, max depth) of the benchmark's trees and of two beyond
# 3 x m: no rule but these fires
TREE_PINS = {
    "3x4-ascending": ({"bounds": 14_417, "pair": 16_793, "forced-used": 67_659,
                       "forced-range": 26}, 12),
    "3x5-ascending": ({"bounds": 39_999, "pair": 43_178, "forced-used": 305_077,
                       "forced-range": 136}, 15),
    "3x6-seed1": ({"bounds": 20_313, "pair": 98_120, "forced-used": 438_852,
                   "forced-range": 175}, 18),
    "3x3-all-x9": ({"bounds": 6_958, "pair": 24_907, "forced-used": 56_525,
                    "forced-range": 92}, 8),
    "4x5-seed1": ({"bounds": 2_261, "pair": 17_327, "forced-used": 58_976}, 20),
    "7x8-ascending-budget20000": ({"bounds": 379, "pair": 3_419, "forced-used": 13_386}, 55),
}


@pytest.mark.parametrize("case", WORKER_CASES)
def test_worker_counts_give_identical_searches(pools, monkeypatch, case):
    # runs and subtrees merge in a fixed order, so the pool changes only the wall clock
    run, *args = WORKER_CASES[case]
    outs = []
    for cpus in ({0}, {0, 1}):  # one usable CPU runs in-process, two on a 2-worker pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        outs.append(run(*args))
    (one, one_found), (two, two_found) = outs
    assert bool(pools) == bool(two[1])  # a pool ran the second search's nodes
    assert one == two
    assert one_found == two_found
    assert all(verify(labeling).is_supermagic for labeling in two_found)
    status, nodes, propagations, restarts, depth, prunes = two
    pin = WORKER_PINS.get(case, ())
    assert (status, nodes, restarts, len(two_found), propagations)[:len(pin)] == pin
    if case in TREE_PINS:
        assert (prunes, depth) == TREE_PINS[case]


@pytest.mark.parametrize("budget", [1, 1_000, 50_000])
def test_node_budget_cutoffs(budget):
    out = assert_same_search(3, 5, SearchConfig(node_budget=budget))
    assert out.status == BUDGET_EXCEEDED
    assert out.stats.nodes == budget


@pytest.mark.parametrize("cfg,nodes", [
    (SearchConfig(time_budget=1e-9), 1_024),
    (SearchConfig(time_budget=1e-9, seed=1), 0),
])
def test_time_budget_cutoffs(cfg, nodes):
    # The unseeded run starts before any clock check and stops at the
    # first one, 1,024 nodes in; Luby reads the clock before its first
    # run.
    out = assert_same_search(3, 4, cfg)
    assert out.status == BUDGET_EXCEEDED
    assert out.stats.nodes == nodes


@pytest.mark.parametrize("n,m,budget", [(5, 7, 20_000), (9, 10, 2_000)])
def test_wider_pools(n, m, budget):
    # pools of 70 and 180 labels span several machine words
    out = assert_same_search(n, m, SearchConfig(node_budget=budget))
    assert out.stats.nodes == budget


def golden_partial(open_edges):
    d = dims(3, 3)
    golden = construct(3, 3)
    kept = list(all_edges(d))[:-open_edges]
    return d, golden, {e: label(golden, e) for e in kept}


def test_golden_partial_enumerations():
    d, golden, assignments = golden_partial(8)
    solutions, outcome = assert_same_enumeration(d, assignments)
    assert outcome.status == EXHAUSTED and golden in solutions

    assignments[EdgeRef("V", 1, 1)] = 10  # golden has 12 here
    solutions, outcome = assert_same_enumeration(d, assignments)
    assert outcome.status == EXHAUSTED and solutions == []


def test_a_tree_its_root_settles_runs_in_process(pools, monkeypatch):
    # with its last 6 edges open, propagation at the root completes the
    # golden labeling: the first decision has no candidate, so no subtree
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    d, golden, assignments = golden_partial(6)
    solutions, outcome = assert_same_enumeration(d, assignments)
    assert outcome.status == EXHAUSTED and solutions == [golden]
    assert outcome.stats.nodes == 0
    assert pools == []


@pytest.mark.parametrize("x", [2, 3])
def test_pinned_enumerations(x):
    pins = {EdgeRef("H", 1, 1): 1, EdgeRef("V", 1, 1): x}
    solutions, outcome = assert_same_enumeration(dims(3, 3), pins)
    assert outcome.status == EXHAUSTED and solutions


SOLUTIONS = {
    (3, 3): construct(3, 3),
    (3, 4): search(3, 4, SearchConfig(seed=0)).labeling,
}


@st.composite
def partial_assignments(draw):
    n, m = draw(st.sampled_from(sorted(SOLUTIONS)))
    d = dims(n, m)
    edges = draw(st.lists(st.sampled_from(list(all_edges(d))), unique=True,
                          min_size=1, max_size=d.q))
    if draw(st.booleans()):
        # part of a known solution, so that completions exist
        labels = [label(SOLUTIONS[(n, m)], e) for e in edges]
    else:
        labels = draw(st.lists(st.integers(1, d.q), unique=True,
                               min_size=len(edges), max_size=len(edges)))
    return d, dict(zip(edges, labels)), SearchConfig(node_budget=2_000)


@settings(max_examples=120, deadline=None)
@given(partial_assignments())
def test_partial_assignments_match_reference(case):
    assert_same_enumeration(*case)


def test_search_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    out = search(21, 21, SearchConfig(node_budget=2_000))  # q = 882 labels
    assert out.status == BUDGET_EXCEEDED
    assert sys.getrecursionlimit() == limit


def test_search_runs_under_a_low_recursion_limit():
    limit = sys.getrecursionlimit()
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    sys.setrecursionlimit(depth + 60)
    try:
        deep = search(21, 21, SearchConfig(node_budget=2_000))
        found = search(3, 4)
    finally:
        sys.setrecursionlimit(limit)
    # a recursive engine needs a frame per level: 271 levels here
    assert deep.status == BUDGET_EXCEEDED and deep.stats.max_depth > 200
    assert (found.status, found.stats.nodes) == WORKER_PINS["3x4-ascending"][:2]
