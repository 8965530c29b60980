"""Command-line front end.

Subcommands mirror the library: generate (direct construction), verify,
audit, search, decompose, render.  Data goes to stdout (or --out),
diagnostics to stderr.  Exit codes are machine-scriptable:

  0  success (generate/search found; verify supermagic; audit clean)
  1  usage, IO, or parse errors, or a grid too large to render or search
  2  well-formed input with a failing verdict (generate: shape not
     covered by a construction; verify: not supermagic; audit: dirty)
  3  search stopped by its node or time budget
  4  search exhausted the space without finding a labeling

FILE arguments accept "-" for stdin.  Labeling files may be JSON
documents or "H i j label" edge lists; both are 1-based.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .construct import (
    EVEN_EVEN,
    ODD_ODD,
    Unsupported,
    construct,
    plan_for,
)
from .diagonals import decompose
from .grid import TorusMagicError, dims as make_dims
from .render import MAX_RENDER_EDGES, RenderSpec, check_render_size, render
from .search import MAX_SEARCH_EDGES, SearchConfig, SearchOutcome, pool_size, search
from .serialize import ParseError, decode, encode, header_dims
from .verify import audit_corners, forced_constant, verify

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT = 2
EXIT_BUDGET = 3
EXIT_EXHAUSTED = 4


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# Characters written at a time: a slice's encoded copy stays small.
_WRITE_CHARS = 1 << 16


def _write_data(text: str, out: str | None) -> None:
    """Write text to stdout (out None or "-") or to the file out, as UTF-8.

    The text goes out in slices of _WRITE_CHARS characters through one
    open file, so no encoded copy of the whole text is made: a figure can
    run to tens of megabytes.
    """
    with (nullcontext(sys.stdout) if out is None or out == "-"
          else open(out, "w", encoding="utf-8")) as stream:
        for start in range(0, len(text), _WRITE_CHARS):
            stream.write(text[start:start + _WRITE_CHARS])


def _load_labeling(path: str):
    return decode(_read_text(path))


def _cmd_generate(args) -> int:
    result = construct(args.n, args.m)
    if isinstance(result, Unsupported):
        print(f"no direct construction for ({args.n},{args.m}): {result.reason}",
              file=sys.stderr)
        print(f"hint: {result.suggestion}", file=sys.stderr)
        return EXIT_VERDICT
    d = result.dims
    variant = ODD_ODD if d.n % 2 else EVEN_EVEN
    plan = plan_for(variant, make_dims(min(d.n, d.m), max(d.n, d.m)))
    metadata = {
        "generator": "construct",
        "plan": {"variant": plan.variant, "start_cols": list(plan.start_cols)},
        "constant": forced_constant(d),
    }
    _write_data(encode(result, metadata=metadata), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    lab = _load_labeling(args.file)
    report = verify(lab)
    d = lab.dims
    print(f"grid: C_{d.n} x C_{d.m}, {d.q} edges, required constant {forced_constant(d)}")
    if not report.is_bijection:
        print(f"bijection violated: {report.duplicate_or_missing}")
    if report.constant is not None:
        print(f"uniform vertex weight: {report.constant}")
    else:
        bad = report.bad_vertices()
        print(f"non-uniform weights at {len(bad)} vertices:")
        for v in bad:
            print(f"  x_{v.i}_{v.j}: weight {report.weight_matrix[v.i - 1, v.j - 1]}")
    print(f"supermagic: {report.is_supermagic}")
    return EXIT_OK if report.is_supermagic else EXIT_VERDICT


def _cmd_audit(args) -> int:
    lab = _load_labeling(args.file)
    plan = plan_for(args.plan, lab.dims)
    report = audit_corners(lab, plan)
    if report.clean:
        print(f"corner audit clean: all {2 * lab.dims.d * lab.dims.l} corners match")
        return EXIT_OK
    print(f"corner audit: {len(report.mismatches)} mismatches")
    for pos, expected, actual in report.mismatches:
        print(f"  D{pos.diag} {pos.kind}-corner k={pos.k}: expected {expected}, got {actual}")
    return EXIT_VERDICT


def _cmd_search(args) -> int:
    order, restarts = ("random", "luby") if args.seed is not None else ("ascending", "none")
    cfg = SearchConfig(node_budget=args.node_budget, time_budget=args.time_budget,
                       value_order=order, restart_policy=restarts, seed=args.seed)
    outcome: SearchOutcome = search(args.n, args.m, cfg)
    s = outcome.stats
    rate = s.nodes / s.elapsed if s.elapsed > 0 else 0.0
    print(f"status: {outcome.status} | nodes {s.nodes} | propagations {s.propagations} | "
          f"restarts {s.restarts} | max depth {s.max_depth} | {s.elapsed:.2f}s | "
          f"{rate:.0f} nodes/s | workers {pool_size(cfg)}", file=sys.stderr)
    if s.prunes:
        pruned = ", ".join(f"{k}={v}" for k, v in sorted(s.prunes.items()))
        print(f"prunes: {pruned}", file=sys.stderr)
    if outcome.status == "found":
        metadata = {
            "generator": "search",
            "seed": args.seed,
            "constant": forced_constant(outcome.labeling.dims),
        }
        _write_data(encode(outcome.labeling, metadata=metadata), args.out)
        return EXIT_OK
    if outcome.status == "budget-exceeded":
        print("budget exceeded before the space was explored; raise "
              "--node-budget/--time-budget or try another --seed", file=sys.stderr)
        return EXIT_BUDGET
    print("search space exhausted: no labeling under the pinned symmetry",
          file=sys.stderr)
    return EXIT_EXHAUSTED


def _cmd_decompose(args) -> int:
    d = make_dims(args.n, args.m)
    print(f"C_{d.n} x C_{d.m}: {d.d} diagonals of length {2 * d.l} "
          f"({d.q} edges total)")
    # one line at a time from the index arrays, as EdgeRef would print
    # them: no EdgeRef is built, so memory stays at one line
    for diag in decompose(d):
        rows, h_cols, v_cols = (a + 1 for a in diag.indices())
        edges = " ".join(f"H({i},{hj}) V({i},{vj})" for i, hj, vj
                         in zip(rows.tolist(), h_cols.tolist(), v_cols.tolist()))
        print(f"D{diag.index} start_col={diag.start_col}: {edges}")
    return EXIT_OK


def _cmd_render(args) -> int:
    text = _read_text(args.file)
    shape = header_dims(text)
    if shape is not None:
        check_render_size(shape)  # before the whole document is decoded
    lab = decode(text)
    spec = RenderSpec(format=args.format, annotate=args.annotate,
                      highlight_diagonals=args.highlight_diagonals)
    _write_data(render(lab, spec), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusmagic",
        description="supermagic labelings of torus grids C_n x C_m",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="direct construction (odd/odd gcd>1, even/even)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--out", help="write the labeling document here instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="check bijection and uniform vertex weights")
    p.add_argument("file", help="labeling document (JSON or edge list, - for stdin)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit", help="compare corner partial weights to a plan's table")
    p.add_argument("file", help="labeling document (JSON or edge list, - for stdin)")
    p.add_argument("--plan", required=True, choices=[ODD_ODD, EVEN_EVEN])
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("search", help=f"exact backtracking search (at most "
                                         f"{MAX_SEARCH_EDGES:,} edges)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--seed", type=int, default=None,
                   help="enable seeded-random value order with Luby restarts")
    p.add_argument("--node-budget", type=int, default=100_000_000)
    p.add_argument("--time-budget", type=float, default=600.0, metavar="SECONDS")
    p.add_argument("--out", help="write the found labeling here instead of stdout")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("decompose", help="print the diagonal cycle decomposition")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("render", help=f"emit a DOT or SVG figure (at most "
                                         f"{MAX_RENDER_EDGES:,} edges)")
    p.add_argument("file", help="labeling document (JSON or edge list, - for stdin)")
    p.add_argument("--format", default="dot", choices=["dot", "svg"])
    p.add_argument("--annotate", default="labels", choices=["labels", "weights", "corners"])
    p.add_argument("--highlight-diagonals", action="store_true")
    p.add_argument("--out", help="write the figure here instead of stdout")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (TorusMagicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
