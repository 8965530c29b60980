"""The iterative bitset-pool search engine against the recursive engine
kept in scalar_reference.py.

Both must walk the same tree: the same status and labeling (for
enumerations, the same solutions in the same order) and the same nodes,
propagations, restarts, max depth and per-rule prune counts.  Every test
here sees at least two usable CPUs, so a Luby search runs its runs on a
worker pool; the reference runs them one after another in-process.
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
        cfg = SearchConfig(value_order="random", restart_policy="luby", seed=seed)
        out = assert_same_search(3, 4, cfg)
        assert out.status == FOUND
        restarts += out.stats.restarts
    assert restarts > 0  # the restart path ran
    assert pools  # and ran on a worker pool


@pytest.mark.parametrize("budget,runs", [(12_288, 3), (30_000, 6)])
def test_luby_budget_cut_counts_only_the_restarts_that_start(pools, budget, runs):
    # Luby windows of 4,096 x 1, 1, 2, 1, 1, 2 nodes: every run fills its
    # window until the budget cuts the last one, after which none starts
    cfg = SearchConfig(node_budget=budget, value_order="random", restart_policy="luby", seed=2)
    out = assert_same_search(5, 6, cfg)
    assert out.status == BUDGET_EXCEEDED
    assert (out.stats.nodes, out.stats.restarts) == (budget, runs - 1)
    assert len(pools) == 1


LUBY = SearchConfig(value_order="random", restart_policy="luby", seed=0)
WORKER_CASES = {
    **{f"3x4-seed{seed}": ((3, 4), dataclasses.replace(LUBY, seed=seed)) for seed in range(8)},
    **{f"5x6-budget{budget}": ((5, 6), dataclasses.replace(LUBY, seed=2, node_budget=budget))
       for budget in (12_288, 30_000)},
    "3x4-time-budget": ((3, 4), dataclasses.replace(LUBY, seed=1, time_budget=1e-9)),
    "3x4-endless-time-budget": ((3, 4), dataclasses.replace(LUBY, seed=1, time_budget=float("inf"))),
}


@pytest.mark.parametrize("shape,cfg", WORKER_CASES.values(), ids=WORKER_CASES)
def test_worker_counts_give_identical_searches(pools, monkeypatch, shape, cfg):
    # runs merge in run order, so the pool changes only the wall clock
    outs = []
    for cpus in ({0}, {0, 1}):  # one usable CPU runs in-process, two on a 2-worker pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        outs.append(search(*shape, cfg))
    one, two = outs
    assert bool(pools) == bool(two.stats.nodes)  # a pool ran the second search's runs
    assert summary(one) == summary(two)
    assert one.labeling == two.labeling
    if cfg.time_budget < 1e-6:  # the clock is read before the first run
        assert (one.status, one.stats.nodes) == (BUDGET_EXCEEDED, 0)


@pytest.mark.parametrize("budget", [1, 1_000, 50_000])
def test_node_budget_cutoffs(budget):
    out = assert_same_search(3, 5, SearchConfig(node_budget=budget))
    assert out.status == BUDGET_EXCEEDED
    assert out.stats.nodes == budget


@pytest.mark.parametrize("cfg,nodes", [
    (SearchConfig(time_budget=1e-9), 1_024),
    (SearchConfig(time_budget=1e-9, value_order="random", seed=1), 1_024),
    (SearchConfig(time_budget=1e-9, value_order="random", restart_policy="luby", seed=1), 0),
])
def test_time_budget_cutoffs(cfg, nodes):
    # A run without restarts starts before any clock check and stops at
    # the first one, 1,024 nodes in; Luby reads the clock before its
    # first run.
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


@pytest.mark.parametrize("x", [2, 3])
def test_pinned_enumerations(x):
    pins = {EdgeRef("H", 1, 1): 1, EdgeRef("V", 1, 1): x}
    solutions, outcome = assert_same_enumeration(dims(3, 3), pins)
    assert outcome.status == EXHAUSTED and solutions


SOLUTIONS = {
    (3, 3): construct(3, 3),
    (3, 4): search(3, 4, SearchConfig(value_order="random", restart_policy="luby",
                                      seed=0)).labeling,
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
    order = draw(st.sampled_from(["ascending", "random"]))
    seed = draw(st.integers(0, 2**32 - 1)) if order == "random" else None
    cfg = SearchConfig(node_budget=2_000, value_order=order, seed=seed)
    return d, dict(zip(edges, labels)), cfg


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
    assert found.status == FOUND and found.stats.nodes == 129_091
