"""Exact backtracking search for supermagic labelings.

Covers the shapes the direct constructions leave open (mixed parity,
coprime odd) at desk scale.  The engine runs depth-first over edge-label
assignments with the magic constant fixed at 4nm+2 (no other constant is
possible) and prunes with:

  * unit propagation - a vertex with 3 labeled edges forces the fourth
    label to c minus the partial sum, cascading;
  * closed-vertex sums - a vertex with all 4 edges labeled must hit c;
  * sum-range bounds - the labels still needed at a vertex must fit
    between the sums of the r smallest and r largest unused labels;
  * exact pair lookup - a vertex missing 2 edges needs two distinct
    unused labels with the right sum.

All rules are sound (they never cut a branch that extends to a solution),
so exhaustive runs are genuine refutations and find-all runs enumerate
the complete solution set of a partial assignment.

Decision edges follow the most-constrained-vertex-first rule: take an
unlabeled edge at a vertex with the fewest unlabeled edges, breaking ties
lexicographically by (i, j, orientation); that order, like each edge's
endpoints, is a closed form of its flat index.  Value order is ascending
by default; seeded-random order and Luby restarts are available for the
harder satisfiable instances.  With a fixed seed every run is fully
deterministic (wall-clock time aside).  Luby runs are independent, and
each one's start is known before it starts, so they run on worker
processes and are merged in run order; the result is the same for any
number of workers.

Symmetry is broken only by pinning label 1: translations can always move
the edge labeled 1 to position (1,1), so the top level tries f(H(1,1))=1
and, when n differs from m (no automorphism exchanges orientations then),
also f(V(1,1))=1.
"""

from __future__ import annotations

import numbers
import operator
import os
import sys
import threading
import time
from collections import deque
from functools import partial
from itertools import compress, count
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .grid import EdgeRef, GridDims, TorusMagicError, dims as make_dims
from .labeling import Labeling
from .verify import forced_constant, verify

FOUND = "found"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget-exceeded"

_ORDERS = ("ascending", "random")
_RESTARTS = ("none", "luby")

# Largest grid search takes on, in edges.  PartialLabeling builds about
# 420 bytes of Python state per edge before the first node, so the cap
# keeps that under about 85 MB; exact search is hopeless long before.
MAX_SEARCH_EDGES = 200_000


class SearchTooLarge(TorusMagicError):
    """The grid has more edges than MAX_SEARCH_EDGES."""


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and exploration policy; seeded modes are pure functions of the seed."""

    node_budget: int = 100_000_000
    time_budget: float = 600.0
    value_order: str = "ascending"
    restart_policy: str = "none"
    seed: int | None = None

    def __post_init__(self) -> None:
        for budget in (self.node_budget, self.time_budget):
            if isinstance(budget, bool) or not isinstance(budget, numbers.Real):
                raise TorusMagicError(f"budgets must be numbers, got {budget!r}")
        if not (self.node_budget > 0 and self.time_budget > 0):  # NaN fails too
            raise TorusMagicError("budgets must be positive")
        if self.seed is not None and (isinstance(self.seed, bool) or not isinstance(self.seed, int)):
            raise TorusMagicError(f"seed must be an integer or None, got {self.seed!r}")
        if self.value_order not in _ORDERS:
            raise TorusMagicError(f"value_order must be one of {_ORDERS}")
        if self.restart_policy not in _RESTARTS:
            raise TorusMagicError(f"restart_policy must be one of {_RESTARTS}")
        if self.value_order == "random" and self.seed is None:
            raise TorusMagicError("seeded-random value order needs a seed")
        if self.restart_policy == "luby" and self.value_order != "random":
            raise TorusMagicError("luby restarts only make sense with seeded-random value order")


@dataclass
class SearchStats:
    nodes: int = 0
    max_depth: int = 0
    propagations: int = 0
    restarts: int = 0
    prunes: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0


@dataclass
class SearchOutcome:
    """Found carries a verified labeling; Exhausted means the whole space
    (under the documented symmetry breaking) was refuted."""

    status: str
    labeling: Labeling | None
    stats: SearchStats


def _luby(i: int) -> int:
    # 1, 1, 2, 1, 1, 2, 4, ... (1-based)
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class PartialLabeling:
    """Mutable partial assignment over the grid's edges.

    Edge slots are flat indices: the H block row-major, then the V block.
    Slot e sits at cell c = e % nm = i*m + j (0-based), so its decision
    rank, lexicographic by (i, j, orient), is 2c + e // nm.  Its endpoints,
    ascending, are c and the cell east (H) or south (V) of c; vertex c's
    edges are slots c, west-of-c, nm + c and nm + north-of-c.
    The free labels are a bitset `pool` (bit x set while label x is
    unused) with a mirrored copy `rpool` (bit 2q - x), so the smallest
    and largest free labels are low set bits of one or the other, and the
    free pairs with a given sum are one shift and one AND.  Per vertex it
    keeps `need` (the constant minus the partial sum) and `vcnt` (the
    number of unlabeled edges).  A grid of more than MAX_SEARCH_EDGES
    edges raises SearchTooLarge before any of it is built.
    """

    def __init__(self, dims: GridDims, assignments: Mapping[EdgeRef, int] | None = None):
        if dims.q > MAX_SEARCH_EDGES:
            raise SearchTooLarge(f"C_{dims.n} x C_{dims.m} has {dims.q} edges; search takes at "
                                 f"most {MAX_SEARCH_EDGES}")
        self.dims = dims
        self.constant = forced_constant(dims)
        m, q = dims.m, dims.q
        nm = dims.n * m
        self.nm = nm
        self.edge_verts = ([(c, c + 1) if (c + 1) % m else (c + 1 - m, c) for c in range(nm)]
                           + [(c, c + m) if c + m < nm else (c + m - nm, c) for c in range(nm)])
        self.rank = [2 * (e % nm) + e // nm for e in range(q)]
        # each vertex's edges by rank: its first unlabeled one is its best
        self.vert_edges = [tuple(sorted((v, v - v % m + (v - 1) % m, nm + v, nm + (v - m) % nm),
                                        key=self.rank.__getitem__)) for v in range(nm)]

        self.label = [0] * q          # 0 = unassigned
        self.pool = ((1 << q) - 1) << 1   # bits 1..q
        self.rpool = ((1 << q) - 1) << q  # bits 2q-1..q
        self.need = [self.constant] * nm
        self.vcnt = [4] * nm
        self.trail: list[int] = []
        if assignments:
            if bad := [e for e in assignments if not isinstance(e, EdgeRef)]:
                raise TorusMagicError(f"pins must be keyed by EdgeRef, got {bad[0]!r}")
            for e, value in sorted(assignments.items(), key=lambda kv: kv[0].sort_key()):
                self.assign(e, value)

    @property
    def unassigned(self) -> int:
        return self.dims.q - len(self.trail)

    def edge_index(self, e: EdgeRef) -> int:
        if not (1 <= e.i <= self.dims.n and 1 <= e.j <= self.dims.m):
            raise TorusMagicError(f"{e} is not an edge of C_{self.dims.n} x C_{self.dims.m}")
        base = 0 if e.orient == "H" else self.nm
        return base + (e.i - 1) * self.dims.m + (e.j - 1)

    def is_free(self, value: int) -> bool:
        return 1 <= value <= self.dims.q and bool(self.pool >> value & 1)

    def assign(self, e: EdgeRef, value: int) -> None:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TorusMagicError(f"label of {e} must be an integer, got {value!r}")
        value = operator.index(value)  # a numpy integer to an int
        idx = self.edge_index(e)
        if self.label[idx]:
            raise TorusMagicError(f"{e} already labeled")
        if not self.is_free(value):
            raise TorusMagicError(f"label {value} unavailable")
        # the engine inlines this update, and its undo, in its loop
        self.label[idx] = value
        self.pool ^= 1 << value
        self.rpool ^= 1 << (2 * self.dims.q - value)
        for v in self.edge_verts[idx]:
            self.need[v] -= value
            self.vcnt[v] -= 1
        self.trail.append(idx)

    def to_labeling(self) -> Labeling:
        if self.unassigned:
            raise TorusMagicError("labeling is not total yet")
        n, m, nm = self.dims.n, self.dims.m, self.nm
        flat = np.asarray(self.label, dtype=np.int64)
        return Labeling(self.dims, flat[:nm].reshape(n, m).copy(),
                        flat[nm:].reshape(n, m).copy())


# binary digits '0'/'1' to the bytes 0/1, so they can select from a range
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _run(state: PartialLabeling, stats: SearchStats, *, node_limit: int, deadline: float,
         rng=None, find_all: bool = False) -> tuple[str, list[Labeling]]:
    """One depth-first run over a PartialLabeling: (status, solutions).

    The tree is walked with an explicit stack of frames, one per decision
    level: (edge, its endpoints, candidate iterator, trail mark, pool and
    mirrored pool at the mark).  Resuming a frame undoes the trail to its
    mark and restores both pools from it.  Candidates are tried in
    ascending order, or shuffled by rng when one is given.
    """
    prunes = stats.prunes
    q, c = state.dims.q, state.constant
    q2, top = 2 * q, 2 * q + 1
    label, need, vcnt, trail = state.label, state.need, state.vcnt, state.trail
    ends, vert_edges, rank = state.edge_verts, state.vert_edges, state.rank
    pool, rpool = state.pool, state.rpool
    shuffle = None if rng is None else rng.shuffle
    nodes, propagations, max_depth = stats.nodes, stats.propagations, stats.max_depth
    stack: list[tuple] = []
    solutions: list[Labeling] = []
    status = EXHAUSTED
    queue = list(range(state.nm))  # the root checks every vertex
    # A node's bounds scan visits all nm vertices, so read the clock about
    # every 2**15 vertex visits, and at most every 1,024 nodes.
    clock_mask = (1 << max(0, min(10, (32768 // state.nm).bit_length() - 1))) - 1
    while True:
        # Propagate the last assignment: a vertex with one open edge
        # forces its label, a closed vertex must sum to c.
        rule = None
        popped = []
        while queue:
            v = queue.pop()
            popped.append(v)
            r = vcnt[v]
            if r == 1:
                x = need[v]
                if x < 1 or x > q:
                    rule = "forced-range"
                    break
                if not pool >> x & 1:
                    rule = "forced-used"
                    break
                for f in vert_edges[v]:
                    if not label[f]:
                        break
                label[f] = x
                pool ^= 1 << x
                rpool ^= 1 << (q2 - x)
                fa, fb = ends[f]
                need[fa] -= x
                need[fb] -= x
                vcnt[fa] -= 1
                vcnt[fb] -= 1
                trail.append(f)
                propagations += 1
                queue.append(fa)
                queue.append(fb)
            elif not r and need[v]:
                rule = "closed-sum"
                break
        if rule is None:
            # Sum-range bounds: a vertex with r open edges needs between
            # the sums of the r smallest and the r largest free labels.
            # lows/highs are indexed by r; a closed vertex needs 0 and an
            # untouched one c, so those two entries always pass.  With
            # fewer than three free labels the last sums are meaningless,
            # but a vertex with r open edges means r free labels, so no
            # rule reads them.
            p = pool
            b1 = p & -p
            p ^= b1
            b2 = p & -p
            p ^= b2
            lo1 = b1.bit_length() - 1
            lo2 = lo1 + b2.bit_length() - 1
            lows = (0, lo1, lo2, lo2 + (p & -p).bit_length() - 1, 0)
            p = rpool
            b1 = p & -p
            p ^= b1
            b2 = p & -p
            p ^= b2
            hi1 = top - b1.bit_length()
            hi2 = hi1 + top - b2.bit_length()
            highs = (0, hi1, hi2, hi2 + top - (p & -p).bit_length(), c)
            for x, r in zip(need, vcnt):
                if x < lows[r] or x > highs[r]:
                    rule = "bounds"
                    break
            else:
                # exact pair test where two edges are open (the sum is
                # within the r=2 bounds, so the shift is positive)
                for v in popped:
                    if vcnt[v] == 2:
                        pairs = pool & (rpool >> (q2 - need[v]))
                        if not pairs & (pairs - 1):
                            rule = "pair"
                            break
        if rule is not None:
            prunes[rule] = prunes.get(rule, 0) + 1
        elif len(trail) < q:
            # Enter the node.  Branch on the lowest-ranked open edge of
            # the vertices with the fewest open edges; after propagation
            # no vertex has exactly one.
            if len(stack) > max_depth:
                max_depth = len(stack)
            best = 2 if 2 in vcnt else 3 if 3 in vcnt else 4
            best_rank = q
            v = -1
            for _ in range(vcnt.count(best)):
                v = vcnt.index(best, v + 1)
                for f in vert_edges[v]:
                    if not label[f]:
                        if rank[f] < best_rank:
                            best_rank = rank[f]
                            e = f
                        break
            a, b = ends[e]
            # the label plus r-1 further free labels must make up each
            # endpoint's need
            ra, rb = vcnt[a] - 1, vcnt[b] - 1
            lo = max(need[a] - highs[ra], need[b] - highs[rb], 1)
            hi = min(need[a] - lows[ra], need[b] - lows[rb], q)
            values = []
            if lo <= hi:
                # The free labels in lo..hi, read off the pool's binary
                # digits (lowest first) in C; peeling bits one at a time
                # costs O(q) per label on a wide pool.
                digits = bin(pool >> lo & ((2 << (hi - lo)) - 1))[:1:-1]
                values = list(compress(range(lo, hi + 1),
                                       digits.encode().translate(_DIGIT_BITS)))
                if shuffle is not None:
                    shuffle(values)
            stack.append((e, a, b, iter(values), len(trail), pool, rpool))
        else:
            if len(stack) > max_depth:
                max_depth = len(stack)
            solution = state.to_labeling()
            report = verify(solution)
            if not report.is_supermagic or report.constant != state.constant:
                raise RuntimeError("internal defect: search produced a non-supermagic labeling")
            solutions.append(solution)
            if not find_all:
                status = FOUND
                break

        # Resume the deepest frame with its next candidate that the
        # endpoint checks do not refute.  They replay the first pops of
        # the propagation (endpoint b, then a if b forced nothing)
        # before any state changes.  The candidate range closes an
        # endpoint exactly and keeps a forced label within 1..q, so the
        # one rule that can refute here is a forced label in use.
        while stack:
            e, a, b, values, mark, pool, rpool = stack[-1]
            while len(trail) > mark:
                f = trail.pop()
                x = label[f]
                label[f] = 0
                fa, fb = ends[f]
                need[fa] += x
                need[fb] += x
                vcnt[fa] += 1
                vcnt[fb] += 1
            for x in values:
                if nodes >= node_limit:
                    status = BUDGET_EXCEEDED
                    break
                nodes += 1
                if not nodes & clock_mask and time.perf_counter() > deadline:
                    status = BUDGET_EXCEEDED
                    break
                y = need[b] - x
                if vcnt[b] == 2:
                    if y != x and pool >> y & 1:
                        break  # b forces a free label: propagate in full
                else:
                    y = need[a] - x
                    if vcnt[a] != 2 or y != x and pool >> y & 1:
                        break
                prunes["forced-used"] = prunes.get("forced-used", 0) + 1
            else:
                stack.pop()
                continue
            break
        if not stack or status != EXHAUSTED:
            break
        label[e] = x
        pool ^= 1 << x
        rpool ^= 1 << (q2 - x)
        need[a] -= x
        need[b] -= x
        vcnt[a] -= 1
        vcnt[b] -= 1
        trail.append(e)
        queue = [a, b]

    state.pool, state.rpool = pool, rpool  # the state is consistent at every exit
    stats.nodes, stats.propagations, stats.max_depth = nodes, propagations, max_depth
    return status, solutions


def _derived_seed(seed: int, *parts: int) -> int:
    # stable per-(branch, run) streams from one user seed
    value = seed & 0xFFFFFFFF
    for part in parts:
        value = (value * 1_000_003 + part + 1) & 0xFFFFFFFFFFFFFFFF
    return value


def _rng(cfg: SearchConfig, *parts: int):
    """The value-order stream for one run, or None for a fixed order."""
    if cfg.value_order != "random":
        return None
    import random

    return random.Random(_derived_seed(cfg.seed, *parts))


def _pins(dims: GridDims) -> list[dict[EdgeRef, int]]:
    # Label 1 can always be translated to position (1,1); orientations are
    # exchangeable (transpose) only on square grids.
    pins: list[dict[EdgeRef, int]] = [{EdgeRef("H", 1, 1): 1}]
    if dims.n != dims.m:
        pins.append({EdgeRef("V", 1, 1): 1})
    return pins


_LUBY_UNIT = 4096
# what _one_run reports for a run that filled its node window
_CUT = "cut"
# Seconds past the deadline after which a pooled run's missing result
# means its worker died: a live run stops at the deadline, and a pool
# gives a dead worker's run to no other worker.
_LOST_RUN_S = 30.0


def pool_size(cfg: SearchConfig) -> int:
    """How many runs a search under cfg keeps in flight; 1 runs them in-process.

    Only Luby searches have more than one run, and they keep one in flight
    per usable CPU.  Worker processes are forked, so without fork, or
    inside a daemonic process (a pool worker may not have children), it is 1.
    """
    if cfg.restart_policy != "luby" or not hasattr(os, "fork"):
        return 1
    mp = sys.modules.get("multiprocessing")  # a daemonic process has imported it
    if mp is not None and mp.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_specs(cfg: SearchConfig, branch: int, offset: int, deadline: float):
    """(value-order stream, start offset, node limit) of each run of a
    branch in run order, each made just before its run is dispatched.
    Every run but the last fills its window, so the next starts where it
    stopped."""
    if cfg.restart_policy != "luby":
        # the only run, which checks no budget before it starts
        yield (branch,), offset, cfg.node_budget
        return
    for run in count(1):
        # Luby checks the budgets before every run
        if offset >= cfg.node_budget or time.perf_counter() > deadline:
            return
        limit = min(offset + _LUBY_UNIT * _luby(run), cfg.node_budget)
        yield (branch, run), offset, limit
        offset = limit


def _one_run(dims: GridDims, base: Mapping[EdgeRef, int], cfg: SearchConfig, deadline: float,
             spec: tuple) -> tuple[str, Labeling | None, SearchStats]:
    """One run from its spec, with its own counters: (status, labeling,
    stats), status _CUT when the run filled its node window."""
    parts, offset, limit = spec
    stats = SearchStats(nodes=offset)
    status, solutions = _run(PartialLabeling(dims, base), stats, node_limit=limit,
                             deadline=deadline, rng=_rng(cfg, *parts))
    if status == BUDGET_EXCEEDED and stats.nodes == limit:
        status = _CUT
    return status, solutions[0] if solutions else None, stats


class _Runs:
    """Results of one branch's runs in run order, at most `size` in flight.

    With size 1 they run in-process, one after another.  Otherwise they
    run on a fork pool that starts when the first run is asked for;
    leaving the `with` block ends it, with any runs still in flight.
    """

    def __init__(self, size: int, deadline: float):
        self.size = size
        self.deadline = deadline
        self.pool = None

    def __enter__(self) -> "_Runs":
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()

    def results(self, one_run, specs):
        return map(one_run, specs) if self.size == 1 else self._pooled(one_run, specs)

    def _pooled(self, one_run, specs):
        pending = deque()
        for spec in specs:
            if self.pool is None:
                import multiprocessing

                self.pool = multiprocessing.get_context("fork").Pool(self.size)
            pending.append(self.pool.apply_async(one_run, (spec,)))
            if len(pending) == self.size:
                yield self._result(pending.popleft())
        while pending:
            yield self._result(pending.popleft())

    def _result(self, pending):
        from multiprocessing import TimeoutError as NoResult

        wait = max(self.deadline - time.perf_counter(), 0.0) + _LOST_RUN_S
        try:
            # an endless time budget waits as long as the platform allows
            return pending.get(min(wait, threading.TIMEOUT_MAX))
        except NoResult:
            raise RuntimeError("a search worker process ended without returning its run") from None


def _run_branch(dims: GridDims, base: Mapping[EdgeRef, int], cfg: SearchConfig,
                stats: SearchStats, deadline: float, branch: int,
                size: int) -> tuple[str, Labeling | None]:
    with _Runs(size, deadline) as runs:
        results = runs.results(partial(_one_run, dims, base, cfg, deadline),
                               _run_specs(cfg, branch, stats.nodes, deadline))
        for run, (status, labeling, counted) in enumerate(results, 1):
            if run > 1:
                stats.restarts += 1
            stats.nodes = counted.nodes
            stats.propagations += counted.propagations
            stats.max_depth = max(stats.max_depth, counted.max_depth)
            for rule, pruned in counted.prunes.items():
                stats.prunes[rule] = stats.prunes.get(rule, 0) + pruned
            if status != _CUT:
                # found, refuted inside its window (a genuine refutation), or cut by the clock
                return status, labeling
    return BUDGET_EXCEEDED, None


def search(n: int, m: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Look for a supermagic labeling of C_n x C_m with constant 4nm+2.

    Found outcomes carry a labeling that has already passed verification.
    Exhausted is only reported when every branch of the pinned search tree
    was refuted within budget; budget exhaustion is reported as such and
    never treated as evidence of non-existence.
    """
    cfg = cfg or SearchConfig()
    d = make_dims(n, m)
    stats = SearchStats()
    start = time.perf_counter()
    deadline = start + cfg.time_budget
    size = pool_size(cfg)
    for branch, pin in enumerate(_pins(d)):
        status, labeling = _run_branch(d, pin, cfg, stats, deadline, branch, size)
        if status != EXHAUSTED:
            break
    stats.elapsed = time.perf_counter() - start
    return SearchOutcome(status=status, labeling=labeling, stats=stats)


def enumerate_completions(dims: GridDims, assignments: Mapping[EdgeRef, int],
                          cfg: SearchConfig | None = None) -> tuple[list[Labeling], SearchOutcome]:
    """All supermagic completions of a partial assignment (no symmetry
    breaking, so the enumeration is the complete solution set).  It is
    one run, so it takes no restart policy."""
    cfg = cfg or SearchConfig()
    if cfg.restart_policy != "none":
        raise TorusMagicError("a find-all run cannot restart: use restart_policy='none'")
    stats = SearchStats()
    start = time.perf_counter()
    status, solutions = _run(PartialLabeling(dims, assignments), stats,
                             node_limit=cfg.node_budget, deadline=start + cfg.time_budget,
                             rng=_rng(cfg, 0), find_all=True)
    stats.elapsed = time.perf_counter() - start
    return solutions, SearchOutcome(status=status, labeling=None, stats=stats)
