"""Spans around calls into torusmagic's modules, recorded from outside.

A traced pass swaps selected module attributes for wrappers that record
a span (name, start, end, parent, request) per call.  The swap covers
the names each module calls through: the CLI's imports, `decompose` as
`construct` and `audit_corners` see it, `weight_matrix` inside `verify`,
and `verify` inside `search`.  A span with no open parent starts a new
request, so every top-level call the benchmark makes is one request.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# The prune rules SearchStats counts, by the names search.py bumps.
PRUNE_RULES = ("closed-sum", "forced-range", "forced-used", "bounds", "pair")

# (module, attribute, span name).  A span is named after the callee.
PATCHES = [
    ("torusmagic.cli", "construct", "construct.construct"),
    ("torusmagic.cli", "plan_for", "construct.plan_for"),
    ("torusmagic.cli", "verify", "verify.verify"),
    ("torusmagic.cli", "forced_constant", "verify.forced_constant"),
    ("torusmagic.cli", "audit_corners", "verify.audit_corners"),
    ("torusmagic.cli", "encode", "serialize.encode"),
    ("torusmagic.cli", "decode", "serialize.decode"),
    ("torusmagic.cli", "render", "render.render"),
    ("torusmagic.construct", "decompose", "diagonals.decompose"),
    ("torusmagic.verify", "decompose", "diagonals.decompose"),
    ("torusmagic.verify", "expected_corner_table", "construct.expected_corner_table"),
    ("torusmagic.verify", "weight_matrix", "verify.weight_matrix"),
    ("torusmagic.search", "verify", "verify.verify"),
]


def _counts(name: str, args: tuple, result) -> dict[str, int]:
    # work counts taken at the same boundary as the span
    if name == "verify.audit_corners":
        return {"verify.corners_checked": 2 * args[0].dims.n * args[0].dims.m}
    if name == "serialize.encode":
        return {"serialize.doc_bytes": len(result.encode())}
    if name == "render.render":
        return {"render.svg_bytes": len(result.encode())}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            request = self.spans[parent][4] if parent is not None else len(self.spans)
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent, request]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            self.counts.update(_counts(name, args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route the patched module attributes through spans."""
        saved = []
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_times(self, start: int, end: int) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name, over spans[start:end]."""
        child = defaultdict(float)
        for _, s, e, parent, _ in self.spans[start:end]:
            if parent is not None:
                child[parent] += e - s
        total, own = defaultdict(float), defaultdict(float)
        for index in range(start, end):
            name, s, e, _, _ = self.spans[index]
            total[name] += e - s
            own[name] += e - s - child[index]
        return total, own


def per_layer(tracer: Tracer, pass_marks: list[tuple[int, int]],
              pass_counts: list[Counter], trace_overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: the median over traced passes of each layer's
    per-pass total, plus counts, which repeat on every pass."""
    rows = []
    for (start, end), counts in zip(pass_marks, pass_counts):
        total, own = tracer.layer_times(start, end)
        cli_overhead = sum((t for name, t in own.items() if name.startswith("cli.")), 0.0)
        search_s = total["search.search"] + total["search.enumerate_completions"]
        nodes = counts["search.nodes"]
        pruned = sum(v for k, v in counts.items() if k.startswith("search.prunes."))
        rows.append({
            "diagonals.decompose_s": (total["diagonals.decompose"], "s"),
            "construct.construct_s": (total["construct.construct"], "s"),
            "construct.construct_self_s": (own["construct.construct"], "s"),
            "verify.verify_s": (total["verify.verify"], "s"),
            "verify.weight_matrix_s": (total["verify.weight_matrix"], "s"),
            "verify.audit_corners_s": (total["verify.audit_corners"], "s"),
            "verify.corners_checked": (counts["verify.corners_checked"], "count"),
            "serialize.encode_s": (total["serialize.encode"], "s"),
            "serialize.decode_s": (total["serialize.decode"], "s"),
            "serialize.doc_bytes": (counts["serialize.doc_bytes"], "B"),
            "render.render_s": (total["render.render"], "s"),
            "render.svg_bytes": (counts["render.svg_bytes"], "B"),
            "cli.overhead_s": (cli_overhead, "s"),
            "search.nodes": (nodes, "count"),
            "search.propagations": (counts["search.propagations"], "count"),
            "search.restarts": (counts["search.restarts"], "count"),
            "search.max_depth": (counts["search.max_depth"], "count"),
            **{f"search.prunes.{rule}": (counts[f"search.prunes.{rule}"], "count")
               for rule in PRUNE_RULES},
            "search.survive_ratio": ((nodes - pruned) / nodes if nodes else 0.0, "ratio"),
            "search.nodes_per_s": (nodes / search_s if search_s else 0.0, "1/s"),
            "search.solutions": (counts["search.solutions"], "count"),
        })
    out = {name: (statistics.median(row[name][0] for row in rows), unit)
           for name, (_, unit) in rows[0].items()}
    calls = [e - s for name, s, e, _, _ in tracer.spans if name == "verify.verify"]
    out["verify.verify_call_us"] = (statistics.median(calls) * 1e6 if calls else 0.0, "us")
    out["trace.overhead_s"] = (trace_overhead_s, "s")
    return out
