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
endpoints, is a closed form of its flat index.  Without a seed a search is
one tree walked in ascending value order; a seed gives seeded-random value
order with Luby restarts, for the harder satisfiable instances.  With a
fixed seed every run is fully deterministic (wall-clock time aside).

Both run on worker processes, one per usable CPU, as one ordered stream
of independent runs, merged in that order by one loop, so the result is
the same for any number of workers.  Luby runs, each starting where the
last one's window ends, follow one another; an ascending tree, in a
search or an enumeration, splits at its first decision into one subtree
per candidate, in candidate order.

Symmetry is broken only by pinning label 1: translations can always move
the edge labeled 1 to position (1,1), so the top level tries f(H(1,1))=1
and, when n differs from m (no automorphism exchanges orientations then),
also f(V(1,1))=1.
"""

from __future__ import annotations

import numbers
import operator
import os
import random
import sys
import time
from contextlib import closing, suppress
from functools import partial
from itertools import chain, compress, count
from dataclasses import InitVar, dataclass, field
from typing import Mapping

import numpy as np

from .grid import EdgeRef, GridDims, TorusMagicError, dims as make_dims
from .labeling import Labeling
from .verify import forced_constant, verify

FOUND = "found"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget-exceeded"

# Largest grid search takes on, in edges.  PartialLabeling builds about
# 420 bytes of Python state per edge before the first node, so the cap
# keeps that under about 85 MB; exact search is hopeless long before.
MAX_SEARCH_EDGES = 200_000


class SearchTooLarge(TorusMagicError):
    """The grid has more edges than MAX_SEARCH_EDGES."""


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and a seed.  No seed is one run in ascending value order; a
    seed is seeded-random value order with Luby restarts, a pure function
    of the seed.

    `value_order` and `restart_policy` may spell out the policy the seed
    implies ("ascending" and "none" without one, "random" and "luby" with
    one); they are checked, not stored.
    """

    node_budget: int = 100_000_000
    time_budget: float = 600.0
    seed: int | None = None
    value_order: InitVar[str | None] = None
    restart_policy: InitVar[str | None] = None

    def __post_init__(self, value_order: str | None, restart_policy: str | None) -> None:
        # a fractional node budget would cut no run where the one walk stops
        if isinstance(self.node_budget, bool) or not isinstance(self.node_budget, numbers.Integral):
            raise TorusMagicError(f"node_budget must be an integer, got {self.node_budget!r}")
        if isinstance(self.time_budget, bool) or not isinstance(self.time_budget, numbers.Real):
            raise TorusMagicError(f"time_budget must be a number, got {self.time_budget!r}")
        if not (self.node_budget > 0 and self.time_budget > 0):  # NaN fails too
            raise TorusMagicError("budgets must be positive")
        if self.seed is not None and (isinstance(self.seed, bool) or not isinstance(self.seed, int)):
            raise TorusMagicError(f"seed must be an integer or None, got {self.seed!r}")
        implied = ("ascending", "none") if self.seed is None else ("random", "luby")
        if value_order not in (None, implied[0]) or restart_policy not in (None, implied[1]):
            raise TorusMagicError(f"seed={self.seed!r} means value_order={implied[0]!r} and "
                                  f"restart_policy={implied[1]!r}")


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
         rng=None, find_all: bool = False,
         root: int | None = None) -> tuple[str, list[Labeling], int]:
    """One depth-first run over a PartialLabeling: (status, solutions,
    width), width being the number of candidates at the first decision
    (0 when the root makes none).

    The tree is walked with an explicit stack of frames, one per decision
    level: (edge, its endpoints, candidate iterator, trail mark, pool and
    mirrored pool at the mark).  Resuming a frame undoes the trail to its
    mark and restores both pools from it.  Candidates are tried in
    ascending order, or shuffled by rng when one is given.  With `root`
    the first decision keeps only its candidate of that index, so the run
    walks that one subtree.
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
    width = 0
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
            if not stack:
                width = len(values)
                if root is not None:
                    values = values[root:root + 1]
            stack.append((e, a, b, iter(values), len(trail), pool, rpool))
        else:
            if len(stack) > max_depth:
                max_depth = len(stack)
            solutions.append(state.to_labeling())
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
    return status, solutions, width


def _derived_seed(seed: int, *parts: int) -> int:
    # stable per-(branch, run) streams from one user seed
    value = seed & 0xFFFFFFFF
    for part in parts:
        value = (value * 1_000_003 + part + 1) & 0xFFFFFFFFFFFFFFFF
    return value


def _check_found(labeling: Labeling) -> None:
    # run in the calling process, whichever process found the labeling
    report = verify(labeling)
    if not report.is_supermagic or report.constant != forced_constant(labeling.dims):
        raise RuntimeError("internal defect: search produced a non-supermagic labeling")


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


def pool_size() -> int:
    """How many worker processes a search or an enumeration may use; 1 runs
    everything in-process.

    One per usable CPU.  Worker processes are forked, so without fork, or
    inside a daemonic process (a pool worker may not have children), it is 1.
    """
    if not hasattr(os, "fork"):
        return 1
    mp = sys.modules.get("multiprocessing")  # a daemonic process has imported it
    if mp is not None and mp.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_specs(cfg: SearchConfig, branch: int, offset: int, deadline: float):
    """(value-order seed, root candidate, start offset, node limit) of each
    Luby run of a branch in run order, each made as its run is about to
    start, after a check of both budgets.  Every run but the last fills its
    window, so the next starts where it stopped."""
    for run in count(1):
        if offset >= cfg.node_budget or time.perf_counter() > deadline:
            return
        limit = min(offset + _LUBY_UNIT * _luby(run), cfg.node_budget)
        yield _derived_seed(cfg.seed, branch, run), None, offset, limit
        offset = limit


def _one_run(dims: GridDims, base: Mapping[EdgeRef, int], deadline: float, find_all: bool,
             spec: tuple) -> tuple[str, list[Labeling], SearchStats]:
    """One run from its spec: (status, solutions, stats), its nodes counted
    from its own start, status _CUT when it filled its node window."""
    seed, root, offset, limit = spec
    # counting from the offset puts the clock checks on the one walk's nodes
    stats = SearchStats(nodes=offset)
    status, solutions, _ = _run(PartialLabeling(dims, base), stats, node_limit=limit,
                                deadline=deadline, find_all=find_all, root=root,
                                rng=None if seed is None else random.Random(seed))
    if status == BUDGET_EXCEEDED and stats.nodes == limit:
        status = _CUT
    stats.nodes -= offset
    return status, solutions, stats


def _serve(ours, theirs, one_run) -> None:
    """A worker process: for each spec sent down its pipe it sends back
    (True, result) or (False, the run's exception), until the pipe ends."""
    ours.close()  # the calling process's end, so that its exit ends the pipe
    with suppress(EOFError):
        while True:
            spec = theirs.recv()
            try:
                theirs.send((True, one_run(spec)))
            except Exception as exc:
                theirs.send((False, exc))


def _start_workers(one_run, size: int) -> dict:
    """`size` forked worker processes, each keyed by this process's end of
    its pipe."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    workers = {}
    for _ in range(size):
        ours, theirs = ctx.Pipe()
        workers[ours] = ctx.Process(target=_serve, args=(ours, theirs, one_run), daemon=True)
        workers[ours].start()
        theirs.close()
    return workers


def _results(one_run, specs, size: int):
    """Results of runs in spec order, each spec made as its run is about to
    start: in-process one after another with size 1, or else each on the
    next of `size` forked workers to be free, which start once the first
    spec is made.  A worker has a pipe of its own and shares no lock, so
    closing the generator kills them all, with any runs still going, and
    blocks on nothing.  A run's exception is raised here, and so is the end
    of a worker that did not return its run."""
    if size == 1:
        yield from map(one_run, specs)
        return
    specs = iter(specs)
    first = next(specs, None)
    if first is None:
        return
    from multiprocessing.connection import wait

    workers = _start_workers(one_run, size)
    try:
        specs, order = chain([first], specs), count()
        free, running, done, merged = list(workers), {}, {}, 0
        while True:
            while free and (spec := next(specs, None)) is not None:
                ours = free.pop()
                ours.send(spec)
                running[ours] = next(order)
            while merged in done:
                yield done.pop(merged)
                merged += 1
            if not running:
                return
            for ours in wait(list(running)):
                try:
                    ok, result = ours.recv()
                except EOFError:
                    raise RuntimeError("a search worker ended without returning its run") from None
                if not ok:
                    raise result
                done[running.pop(ours)] = result
                free.append(ours)
    finally:
        for worker in workers.values():
            worker.kill()
            worker.join()


def _run_branch(dims: GridDims, base: Mapping[EdgeRef, int], cfg: SearchConfig,
                stats: SearchStats, deadline: float, branch: int, size: int,
                find_all: bool = False) -> tuple[str, list[Labeling]]:
    """(status, solutions) of one pinned branch, its counters added to stats.

    A seeded branch is its Luby runs, which go on while each fills its
    window.  An unseeded tree, with workers and a first decision of more
    than one candidate, is one run per candidate's subtree, which go on
    while each is refuted; the root is walked here first, with a window of
    no nodes, to count the candidates.  Any other tree is one run, walked
    here.  The runs merge in order into the counters of one walk: nodes
    and prunes add up, propagations add up but for the root's, which every
    subtree repeats and which count once, the depth is the maximum,
    solutions concatenate and each seeded run after the first is a
    restart.  A run whose nodes would take the total past the node budget
    closes the pool and is walked again here, from where the one walk
    enters it, to the exact cut; only a subtree can, as a Luby window
    never passes the budget.
    """
    one_run = partial(_one_run, dims, base, deadline, find_all)
    offset, budget = stats.nodes, cfg.node_budget
    shared = width = 0
    if cfg.seed is not None:
        specs, go_on = _run_specs(cfg, branch, offset, deadline), _CUT
    else:
        go_on = EXHAUSTED
        if size > 1:
            at_root = SearchStats(nodes=offset)
            width = _run(PartialLabeling(dims, base), at_root, node_limit=offset,
                         deadline=deadline, find_all=find_all)[2]
        if width > 1:
            shared = at_root.propagations
            specs = [(None, root, offset, budget) for root in range(width)]
        else:
            specs, size = [(None, None, offset, budget)], 1
    stats.propagations += shared
    status, found = go_on, []
    with closing(_results(one_run, specs, size)) as results:
        for run, (status, solutions, counted) in enumerate(results):
            if stats.nodes + counted.nodes > budget:
                # the budget cuts the one walk inside this subtree
                results.close()
                status, solutions, counted = one_run((None, run, stats.nodes, budget))
            if run and cfg.seed is not None:
                stats.restarts += 1
            stats.nodes += counted.nodes
            stats.propagations += counted.propagations - shared
            stats.max_depth = max(stats.max_depth, counted.max_depth)
            for rule, pruned in counted.prunes.items():
                stats.prunes[rule] = stats.prunes.get(rule, 0) + pruned
            found += solutions
            if status != go_on:
                # found, cut, or a Luby run refuted inside its window (a genuine refutation)
                break
    return BUDGET_EXCEEDED if status == _CUT else status, found


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
    size = pool_size()
    for branch, pin in enumerate(_pins(d)):
        status, solutions = _run_branch(d, pin, cfg, stats, deadline, branch, size)
        if status != EXHAUSTED:
            break
    labeling = solutions[0] if solutions else None
    if labeling is not None:
        _check_found(labeling)
    stats.elapsed = time.perf_counter() - start
    return SearchOutcome(status=status, labeling=labeling, stats=stats)


def enumerate_completions(dims: GridDims, assignments: Mapping[EdgeRef, int],
                          cfg: SearchConfig | None = None) -> tuple[list[Labeling], SearchOutcome]:
    """All supermagic completions of a partial assignment (no symmetry
    breaking, so the enumeration is the complete solution set).  It walks
    one tree in ascending order, so it takes no seed; like an unseeded
    search, the tree is split at its first decision across the workers,
    and the solutions come in the order of the one walk."""
    cfg = cfg or SearchConfig()
    if cfg.seed is not None:
        raise TorusMagicError("a find-all run is one ascending run and cannot restart: "
                              "it takes no seed")
    stats = SearchStats()
    start = time.perf_counter()
    status, solutions = _run_branch(dims, assignments, cfg, stats,
                                    start + cfg.time_budget, 0, pool_size(), find_all=True)
    for solution in solutions:
        _check_found(solution)
    stats.elapsed = time.perf_counter() - start
    return solutions, SearchOutcome(status=status, labeling=None, stats=stats)
