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
lexicographically by (i, j, orientation), which is the order the edges'
slots are numbered in.  Without a seed a search is
one tree walked in ascending value order; a seed gives seeded-random value
order with Luby restarts, for the harder satisfiable instances.  With a
fixed seed every run is fully deterministic (wall-clock time aside).

Both run on worker processes, one per usable CPU, as one stream of
independent runs that one scheduler hands out and merges in key order, so
the result is the same for any number of workers.  Luby runs, each
starting where the last one's window ends, are keyed by run number.  An
ascending tree is cut into pieces, in the manner of cube-and-conquer: a
piece is a node the walk has entered and a range of its candidates, keyed
by the candidate indices on its path, so that key order is depth-first
order.  A first-solution search cuts the tree every few thousand nodes
where the walk has got to; an enumeration cuts it once, at its first
decision.

A run returns its solutions as rows of labels, which is all that crosses
a worker's pipe, and the calling process checks them, whichever process
found them: a search verifies the one labeling it returns, and an
enumeration stacks its rows into one array and checks every row at once
with the verifier's batched check.  Only then are the rows made Labelings.

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
from heapq import heappop, heappush
from itertools import chain, compress, count
from dataclasses import InitVar, dataclass, field
from typing import Mapping

import numpy as np

from .grid import EdgeRef, GridDims, TorusMagicError, as_int, dims as make_dims
from .labeling import Labeling
from .verify import _supermagic_rows, forced_constant, verify

FOUND = "found"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget-exceeded"
# what _run reports for a run that filled its node window
_CUT = "cut"

# Largest grid search takes on, in edges.  PartialLabeling builds about
# 230 bytes of Python state per edge before the first node (tracemalloc's
# count on C_300 x C_300), so the cap keeps that under about 47 MB; exact
# search is hopeless long before.
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
        # a fractional node budget would cut no run where the one walk stops;
        # numpy integers become ints, so that equal configs compare and hash equal
        object.__setattr__(self, "node_budget",
                           as_int(self.node_budget, "node_budget must be an integer"))
        if isinstance(self.time_budget, bool) or not isinstance(self.time_budget, numbers.Real):
            raise TorusMagicError(f"time_budget must be a number, got {self.time_budget!r}")
        if not (self.node_budget > 0 and self.time_budget > 0):  # NaN fails too
            raise TorusMagicError("budgets must be positive")
        if self.seed is not None:
            object.__setattr__(self, "seed", as_int(self.seed, "seed must be an integer or None"))
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

    Edge slots are in decision order: the H edge at cell c = i*m + j
    (0-based) is slot 2c and the V edge is slot 2c + 1, so slot order is
    lexicographic by (i, j, orient).  Slot s's endpoints, ascending, are
    cell s >> 1 and the cell east (H) or south (V) of it; vertex v's edges
    are slots 2v, 2v + 1, 2 * west-of-v and 2 * north-of-v + 1.
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
        self.edge_verts = [ends for c in range(nm)
                           for ends in ((c, c + 1) if (c + 1) % m else (c + 1 - m, c),
                                        (c, c + m) if c + m < nm else (c + m - nm, c))]
        # each vertex's edges by slot: its first unlabeled one is its best
        self.vert_edges = [tuple(sorted((2 * v, 2 * v + 1, 2 * (v - v % m + (v - 1) % m),
                                         2 * ((v - m) % nm) + 1))) for v in range(nm)]

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

    def is_free(self, value: int) -> bool:
        return 1 <= value <= self.dims.q and bool(self.pool >> value & 1)

    def assign(self, e: EdgeRef, value: int) -> None:
        value = as_int(value, f"label of {e} must be an integer")
        idx = 2 * self.dims.cell(e) + (e.orient == "V")
        if self.label[idx]:
            raise TorusMagicError(f"{e} already labeled")
        if not self.is_free(value):
            raise TorusMagicError(f"label {value} unavailable")
        self.put(idx, value)

    def put(self, idx: int, value: int) -> None:
        # unchecked; the engine inlines this update, and its undo, in its loop
        self.label[idx] = value
        self.pool ^= 1 << value
        self.rpool ^= 1 << (2 * self.dims.q - value)
        for v in self.edge_verts[idx]:
            self.need[v] -= value
            self.vcnt[v] -= 1
        self.trail.append(idx)


# binary digits '0'/'1' to the bytes 0/1, so they can select from a range
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _shuffle(values: list, getrandbits) -> None:
    """random.Random(seed).shuffle(values), with `getrandbits` the bound
    method of that Random: its Fisher-Yates walk and rejection draws
    inlined, as CPython's shuffle and _randbelow_with_getrandbits make
    them, so the seeded candidate order is the standard library's."""
    for i in range(len(values) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        values[i], values[j] = values[j], values[i]


def _run(state: PartialLabeling, stats: SearchStats, *, node_limit: int, deadline: float,
         rng=None, find_all: bool = False,
         piece: tuple[tuple, int] | None = None) -> tuple[str, list[list[int]], list[tuple]]:
    """One depth-first run over a PartialLabeling: (status, solutions,
    rest).  Each solution is a row of its q labels in Labeling.labels()
    order, the H block and then the V block: the state's even slots, then
    its odd ones.  Status is _CUT when the run stops at `node_limit`.

    The tree is walked with an explicit stack of frames, one per decision
    level: (edge, its endpoints, candidate iterator, trail mark, pool and
    mirrored pool at the mark, end of its candidate range, forced-label
    mask, forced endpoint, its partner edge and that edge's far end).
    Resuming a frame undoes the trail to its mark and restores both pools
    from it.  Candidates are tried in ascending order, or in the order
    rng.shuffle would give when an rng is given.

    When the edge leaves an endpoint (b, else a) with one open edge, that
    is the forced endpoint: a candidate x forces its partner edge to its
    need w minus x.  The mask has bit x set when x and w - x are free and
    differ, so a clear bit refutes x as the propagation's first pops
    would (forced-used); it is -1 when no endpoint is forced.  Entering
    x sets the partner edge too, and propagation goes on from where
    those pops leave it.

    With `piece` = (key, stop) the state is a node that a walk of the
    whole tree has already entered, key being the candidate indices on
    its path and then a start: its checks have passed, so none is run
    again, and its decision keeps candidates start..stop-1.  When an
    ascending run (no rng) is cut, rest is what it left unexplored, one
    piece per open frame with candidates left, deepest first: (key, (the
    trail as (edge, label) pairs, the frame's trail mark, stop)).  Key
    order is depth-first order.
    """
    prunes = stats.prunes
    q, c = state.dims.q, state.constant
    q2, top = 2 * q, 2 * q + 1
    label, need, vcnt, trail = state.label, state.need, state.vcnt, state.trail
    ends, vert_edges = state.edge_verts, state.vert_edges
    pool, rpool = state.pool, state.rpool
    getrandbits = None if rng is None else rng.getrandbits
    nodes, propagations, max_depth = stats.nodes, stats.propagations, stats.max_depth
    forced_used = 0  # refutations in the resume loop, added to prunes at exit
    stack: list[tuple] = []
    solutions: list[list[int]] = []
    status = EXHAUSTED
    queue = [] if piece else list(range(state.nm))  # the root checks every vertex
    popped: list[int] = []
    # A node's bounds scan visits all nm vertices, so read the clock about
    # every 2**15 vertex visits, and at most every 1,024 nodes.
    clock_mask = (1 << max(0, min(10, (32768 // state.nm).bit_length() - 1))) - 1
    while True:
        # Propagate the last assignment: a vertex with one open edge
        # forces its label, a closed vertex must sum to c.
        rule = None
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
                # v is closed with need 0 now: only the far end can fail
                queue.append(fb if fa == v else fa)
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
            # Enter the node.  Branch on the lowest open slot of the
            # vertices with the fewest open edges; after propagation no
            # vertex has exactly one.
            if len(stack) > max_depth:
                max_depth = len(stack)
            best = 2 if 2 in vcnt else 3 if 3 in vcnt else 4
            e = q
            v = -1
            for _ in range(vcnt.count(best)):
                v = vcnt.index(best, v + 1)
                for f in vert_edges[v]:
                    if not label[f]:
                        if f < e:
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
                if getrandbits is not None:
                    _shuffle(values, getrandbits)
            stop = len(values)
            if piece and not stack:
                stop = piece[1]
                values = values[piece[0][-1]:stop]
            # The forced endpoint, b before a as propagation pops them; the
            # candidate range keeps its partner's label w - x within 1..q.
            fv = b if vcnt[b] == 2 else a if vcnt[a] == 2 else -1
            if fv < 0:
                ok, g, o = -1, -1, -1
            else:
                w = need[fv]
                ok = pool & (rpool >> (q2 - w))
                if not w & 1:
                    ok &= ~(1 << (w >> 1))
                for g in vert_edges[fv]:
                    if g != e and not label[g]:
                        break
                ga, gb = ends[g]
                o = gb if ga == fv else ga
            stack.append((e, a, b, iter(values), len(trail), pool, rpool, stop, ok, fv, g, o))
        else:
            if len(stack) > max_depth:
                max_depth = len(stack)
            solutions.append(label[0::2] + label[1::2])
            if not find_all:
                status = FOUND
                break

        # Resume the deepest frame with its next candidate that its mask
        # does not refute.  The mask replays the first pops of the
        # propagation (endpoint b, then a if b forced nothing) before
        # any state changes.  The candidate range closes an endpoint
        # exactly and keeps a forced label within 1..q, so the one rule
        # that can refute here is a forced label in use.
        while stack:
            e, a, b, values, mark, pool, rpool, _, ok, fv, g, o = stack[-1]
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
                    status = _CUT
                    break
                nodes += 1
                if not nodes & clock_mask and time.perf_counter() > deadline:
                    status = BUDGET_EXCEEDED
                    break
                if ok >> x & 1:
                    break
                forced_used += 1
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
        if fv < 0:
            popped, queue = [], [a, b]
        else:
            # the forced partner, set as the first pops would set it
            y = need[fv]
            label[g] = y
            pool ^= 1 << y
            rpool ^= 1 << (q2 - y)
            need[fv] = 0
            need[o] -= y
            vcnt[fv] = 0
            vcnt[o] -= 1
            trail.append(g)
            propagations += 1
            popped, queue = ([b], [a, o]) if fv == b else ([b, a], [o])

    state.pool, state.rpool = pool, rpool  # the state is consistent at every exit
    stats.nodes, stats.propagations, stats.max_depth = nodes, propagations, max_depth
    if forced_used:
        prunes["forced-used"] = prunes.get("forced-used", 0) + forced_used
    rest = []
    if status == _CUT and getrandbits is None:
        path, deepest = [(f, label[f]) for f in trail], len(stack) - 1
        taken = piece[0][:-1] if piece else ()
        for i, (_, _, _, values, mark, _, _, stop, *_) in enumerate(stack):
            # the candidate each frame is in; the deepest one's was drawn but not tried
            k = stop - operator.length_hint(values) - 1
            start = k if i == deepest else k + 1
            if start < stop:
                rest.append((taken + (start,), (path, mark, stop)))
            taken += (k,)
        rest.reverse()
    return status, solutions, rest


def _derived_seed(seed: int, *parts: int) -> int:
    # stable per-(branch, run) streams from one user seed
    value = seed & 0xFFFFFFFF
    for part in parts:
        value = (value * 1_000_003 + part + 1) & 0xFFFFFFFFFFFFFFFF
    return value


def _labelings(dims: GridDims, rows: np.ndarray) -> list[Labeling]:
    """The labelings of a (k, q) block of label rows, in order, each as
    (n, m) views of its row: the H block, then the V block."""
    return [Labeling(dims, h, v) for h, v in rows.reshape(len(rows), 2, dims.n, dims.m)]


_DEFECT = "internal defect: search produced a non-supermagic labeling"


def _pins(dims: GridDims) -> list[dict[EdgeRef, int]]:
    # Label 1 can always be translated to position (1,1); orientations are
    # exchangeable (transpose) only on square grids.
    pins: list[dict[EdgeRef, int]] = [{EdgeRef("H", 1, 1): 1}]
    if dims.n != dims.m:
        pins.append({EdgeRef("V", 1, 1): 1})
    return pins


_LUBY_UNIT = 4096
# Nodes a first-solution search's piece runs before it is cut again;
# 2,048 to 16,384 timed alike on (3,4) and (3,5) with two workers.
_PIECE_NODES = 4096


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


def _run_specs(cfg: SearchConfig, branch: int, whole: tuple, offset: int, deadline: float):
    """(key, value-order seed, the whole tree, start offset, node limit) of
    each Luby run of a branch in run order, keyed by run number, each made
    as its run is about to start, after a check of both budgets.  Every
    run but the last fills its window, so the next starts where it stopped."""
    for run in count(1):
        if offset >= cfg.node_budget or time.perf_counter() > deadline:
            return
        limit = min(offset + _LUBY_UNIT * _luby(run), cfg.node_budget)
        yield (run,), _derived_seed(cfg.seed, branch, run), whole, offset, limit
        offset = limit


def _one_run(dims: GridDims, deadline: float, find_all: bool,
             spec: tuple) -> tuple[str, list[list[int]], SearchStats, list[tuple]]:
    """One run from its spec: (status, solutions, stats, rest), each
    solution a plain row of labels, which is all that crosses a worker's
    pipe; its nodes counted from its own start and rest the specs of the
    pieces it left when its window cut an ascending run, each with that
    window.

    A spec's piece is (a trail as (edge, label) pairs, the length of the
    part to replay, stop), and every run replays it on an empty state.  A
    whole-tree or Luby run's trail is the root's, with no stop.  A piece's
    reaches its node, whose candidates it keeps from the last index of
    its key to stop; it counts only what lies below that node, but for
    the depth, to which it adds the node's."""
    key, seed, (path, mark, stop), offset, limit = spec
    # counting from the offset puts the clock checks on the one walk's nodes
    stats = SearchStats(nodes=offset)
    state = PartialLabeling(dims)
    for f, x in path[:mark]:
        state.put(f, x)
    status, solutions, rest = _run(state, stats, node_limit=limit, deadline=deadline,
                                   find_all=find_all, piece=None if stop is None else (key, stop),
                                   rng=None if seed is None else random.Random(seed))
    stats.max_depth += len(key) - 1  # a whole-tree or Luby run's key has one index
    stats.nodes -= offset
    return status, solutions, stats, [(at, None, piece, 0, limit - offset) for at, piece in rest]


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


def _results(one_run, pieces: list[tuple], specs, size: int, deadline: float):
    """(spec, result) of each run in key order: depth-first order for
    pieces, run order for Luby runs.

    With size 1 the runs are `pieces` and then `specs`, one after another
    in-process.  Otherwise each free worker of `size` forked ones, which
    start with the first run, takes the smallest-keyed piece waiting, or
    else the next of `specs`, made as it is drawn; a result comes out once
    no run with a smaller key waits or runs, and the pieces it left wait
    from when it came.  The clock is read before each piece after the
    first is sent; past the deadline none is, and the first piece left
    unsent comes out as cut by the clock.  A worker has a pipe of its own
    and shares no lock, so closing the generator kills them all, with any
    runs still going, and blocks on nothing.  A run's exception is raised
    here, and so is the end of a worker that did not return its run."""
    if size == 1:
        yield from ((spec, one_run(spec)) for spec in chain(pieces, specs))
        return
    from multiprocessing.connection import wait

    waiting, running, done, workers = sorted(pieces), {}, {}, {}
    try:
        while True:
            while len(running) < size:
                if waiting:
                    if workers and time.perf_counter() > deadline:
                        break
                    spec = heappop(waiting)
                elif (spec := next(specs, None)) is None:
                    break
                if not workers:
                    workers = _start_workers(one_run, size)
                    free = list(workers)
                ours = free.pop()
                ours.send(spec)
                running[ours] = spec
            first = min((spec[0] for spec in chain(running.values(), waiting[:1])),
                        default=(float("inf"),))
            while done and min(done) < first:
                yield done.pop(min(done))
            if not running:
                if waiting:
                    yield waiting[0], (BUDGET_EXCEEDED, [], SearchStats(), [])
                return
            for ours in wait(list(running)):
                try:
                    ok, result = ours.recv()
                except EOFError:
                    raise RuntimeError("a search worker ended without returning its run") from None
                if not ok:
                    raise result
                spec = running.pop(ours)
                done[spec[0]] = spec, result
                for rest in result[3]:
                    heappush(waiting, rest)
                free.append(ours)
    finally:
        for worker in workers.values():
            worker.kill()
            worker.join()


def _run_branch(root: PartialLabeling, cfg: SearchConfig, stats: SearchStats, deadline: float,
                branch: int, size: int, find_all: bool = False) -> tuple[str, list[list[int]]]:
    """(status, solution rows) of one pinned branch from the caller's root
    state, its counters added to stats.  Every run replays the root's
    trail or a piece's path, so the caller has refused bad pins and a grid
    too large to search before any worker starts.

    A seeded branch is its Luby runs, which go on while each fills its
    window.  An unseeded tree is pieces, which go on while each is refuted
    or cut by its window.  With one worker it is one piece, the whole
    tree.  With more, a first-solution search starts as the whole tree in
    a window of _PIECE_NODES nodes, each cut leaving pieces with that
    window.  An enumeration walks `root` here, and each of its candidates
    is one piece with the whole node budget.  The runs merge in key order
    into the counters of one walk: nodes, propagations and prunes add up,
    the depth is the maximum, solutions concatenate and each seeded run
    after the first is a restart.  A run whose nodes would take the total
    past the node budget closes the pool and is walked again here, from
    where the one walk enters it, to the exact cut; only a piece can, as a
    Luby window never passes the budget.  The merge stops at a run cut by
    the node budget, so the pieces that run leaves are never walked.
    """
    offset, budget = stats.nodes, cfg.node_budget
    one_run = partial(_one_run, root.dims, deadline, find_all)
    trail = [(f, root.label[f]) for f in root.trail]
    whole = (trail, len(trail), None)
    status, found, pieces, specs, go_on = _CUT, [], [], iter(()), (_CUT, EXHAUSTED)
    if cfg.seed is not None:
        specs, go_on = _run_specs(cfg, branch, whole, offset, deadline), (_CUT,)
    elif size == 1 or not find_all:
        window = budget if size == 1 else offset + _PIECE_NODES
        pieces = [((0,), None, whole, offset, window)]
    else:
        status, found, rest = _run(root, stats, node_limit=offset, deadline=deadline, find_all=True)
        if rest:  # the root's one piece, split per candidate
            [(_, (path, mark, stop))] = rest
            pieces = [((k,), None, (path, mark, k + 1), offset, budget) for k in range(stop)]
        size = size if len(pieces) > 1 else 1
    with closing(_results(one_run, pieces, specs, size, deadline)) as results:
        for merged, (spec, (status, solutions, counted, _)) in enumerate(results):
            over = stats.nodes + counted.nodes > budget
            if over:
                # the budget cuts the one walk inside this run
                results.close()
                key, seed, piece, _, _ = spec
                status, solutions, counted, _ = one_run((key, seed, piece, stats.nodes, budget))
            if merged and cfg.seed is not None:
                stats.restarts += 1
            stats.nodes += counted.nodes
            stats.propagations += counted.propagations
            stats.max_depth = max(stats.max_depth, counted.max_depth)
            for rule, pruned in counted.prunes.items():
                stats.prunes[rule] = stats.prunes.get(rule, 0) + pruned
            found += solutions
            if over or status not in go_on or status == _CUT and stats.nodes == budget:
                # found, cut by a budget, or a Luby run refuted inside its window
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
        status, solutions = _run_branch(PartialLabeling(d, pin), cfg, stats, deadline, branch, size)
        if status != EXHAUSTED:
            break
    labeling = None
    if solutions:
        [labeling] = _labelings(d, np.array(solutions[:1], dtype=np.int64))
        # in the calling process, whichever process found the labeling
        if not verify(labeling).is_supermagic:
            raise RuntimeError(_DEFECT)
    stats.elapsed = time.perf_counter() - start
    return SearchOutcome(status=status, labeling=labeling, stats=stats)


def enumerate_completions(dims: GridDims, assignments: Mapping[EdgeRef, int],
                          cfg: SearchConfig | None = None) -> tuple[list[Labeling], SearchOutcome]:
    """All supermagic completions of a partial assignment (no symmetry
    breaking, so the enumeration is the complete solution set).  It walks
    one tree in ascending order, so it takes no seed; with more than one
    worker the tree is split at its first decision, one piece per
    candidate, and the solutions come in the order of the one walk.  They
    are checked in the calling process, all in one batch, before they are
    returned."""
    cfg = cfg or SearchConfig()
    if cfg.seed is not None:
        raise TorusMagicError("a find-all run is one ascending run and cannot restart: "
                              "it takes no seed")
    stats = SearchStats()
    start = time.perf_counter()
    status, rows = _run_branch(PartialLabeling(dims, assignments), cfg, stats,
                               start + cfg.time_budget, 0, pool_size(), find_all=True)
    block = np.array(rows, dtype=np.int64).reshape(len(rows), dims.q)
    if not _supermagic_rows(dims, block).all():
        raise RuntimeError(_DEFECT)
    solutions = _labelings(dims, block)
    stats.elapsed = time.perf_counter() - start
    return solutions, SearchOutcome(status=status, labeling=None, stats=stats)
