"""torusmagic benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload grid-large --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`.  It first times set-up in fresh interpreters and runs a warm-up
pass on small inputs.  Then it repeats passes of the workload while at
least half of another one fits in `--seconds`, counted from the start,
checks every output with its own code (bench/check.py) and prints the
metrics, each with its unit.  End-to-end times are scaled to the speed of
a reference loop timed around each block of calls (bench/reference.py).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
passes alternate between traced and untraced, and the metrics are the
per-layer ones from the traced passes plus the tracing overhead.  Each
run writes its samples, environment and spans to
`.bench_out/<workload>-seed<seed>-trace<t>.json`.

An operation fails when the program reports an error or a failing
verdict where the checks say it should have succeeded; it is wrong when
it reports success with an output the checks reject.  Both count in
`failed`; `correct` is false when any operation was wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

from reference import NOMINAL_S, reference  # noqa: E402
from spans import PRUNE_RULES, Tracer, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up samples: SETUP_FIRST before the warm-up, then one after a pass once
# SETUP_EVERY of --seconds has gone by since the last, so that a slow spell
# of the host weighs on few of them.
SETUP_FIRST = 3
SETUP_EVERY = 0.1
SETUP_CODE = """\
import time
from reference import reference
before = reference()
t0 = time.perf_counter()
import torusmagic
report = torusmagic.verify(torusmagic.construct(3, 3))
elapsed = time.perf_counter() - t0
ref = (before + reference()) / 2
print(torusmagic.__file__)
print(report.is_supermagic, report.constant, repr(elapsed), repr(ref))
"""


def load_program():
    """Import torusmagic from this checkout's sources, and only from there."""
    package = SRC / "torusmagic"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no torusmagic sources at {package}")
    sys.path.insert(0, str(SRC))
    import torusmagic
    import torusmagic.cli

    if Path(torusmagic.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported torusmagic from {torusmagic.__file__}, not {package}")
    return torusmagic


def measure_setup(runs: int) -> list[tuple[float, float]]:
    """Import plus a first 3x3 construct and verify, in fresh interpreters:
    its seconds, and the reference loop's around it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split("\n")
        if proc.returncode != 0 or len(lines) < 2:
            raise SystemExit(f"bench: set-up failed: {proc.stderr.strip()}")
        path, (supermagic, constant, elapsed, ref) = lines[0], lines[1].split()
        if Path(path).resolve().parent != (SRC / "torusmagic").resolve():
            raise SystemExit(f"bench: set-up imported torusmagic from {path}")
        if supermagic != "True" or constant != "38":
            raise SystemExit(f"bench: set-up labeling is not supermagic: {lines[1]}")
        samples.append((float(elapsed), float(ref)))
    return samples


class Run:
    """What the workloads call through: the program, the ledger, the tracer."""

    def __init__(self, tm, seed: int, work: Path):
        self.tm = tm
        self.work = work
        self.rng = random.Random(seed)
        self.main = tm.cli.main
        self.checked: dict[str, tuple[str, list[str]]] = {}
        self.tracer: Tracer | None = None
        self.counts: Counter = Counter()
        self.samples: Counter = Counter()  # (stage, operation) -> seconds
        self.scaled: Counter = Counter()  # (stage, operation) -> seconds at the reference speed
        self.open_step: Counter | None = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: Counter = Counter()

    def ordered(self, items: list) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items

    @contextlib.contextmanager
    def step(self):
        """Time the calls made in this block against the reference loop, run
        just before and just after the block, and scale their times to the
        reference speed (bench/reference.py)."""
        before = reference()
        self.open_step = Counter()
        try:
            yield
        finally:
            ref = (before + reference()) / 2
            for key, seconds in self.open_step.items():
                self.samples[key] += seconds
                self.scaled[key] += seconds * NOMINAL_S / ref
            self.open_step = None

    def timed(self, stage: str, op: str, fn, *args):
        """fn(*args) and the exception it raised, timed under (stage, op)."""
        if self.open_step is None:
            with self.step():
                return self.timed(stage, op, fn, *args)
        t0 = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            result, error = None, exc
        self.open_step[stage, op] += time.perf_counter() - t0
        return result, error

    def cli(self, stage: str, op: str, argv: list[str]) -> tuple[int, str]:
        gc.collect()  # each command starts from a clean heap, as a fresh process would
        main = self.main
        if self.tracer is not None:
            main = self.tracer.wrap(f"cli.{argv[0]}", main)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc, error = self.timed(stage, op, main, argv)
            if error is not None:
                rc = -1
                print(f"{type(error).__name__}: {error}")
        return rc, buf.getvalue()

    def call(self, stage: str, op: str, span: str, fn, *args, collect: bool = True):
        if collect:
            gc.collect()
        if self.tracer is not None:
            fn = self.tracer.wrap(span, fn)
        result, error = self.timed(stage, op, fn, *args)
        if error is not None:
            self.outcome(op, -1, expect_ok=True, detail=f"{type(error).__name__}: {error}")
        return result

    def outcome(self, op: str, rc: int, *, expect_ok: bool, problems=(), detail: str = "") -> None:
        self.attempted += 1
        if rc == 0 and (problems or not expect_ok):
            self.failed += 1
            self.wrong += 1
            reason = "; ".join(problems) or "reported success on a rejected input"
            self.notes[f"WRONG {op}: {reason} ({detail})"] += 1
        elif rc != 0 and expect_ok:
            self.failed += 1
            self.notes[f"FAILED {op}: exit {rc} where the checks expect success ({detail})"] += 1
        else:
            self.notes[f"ok {op}"] += 1

    def count_search(self, stats, solutions: int) -> None:
        c = self.counts
        c["search.nodes"] += stats.nodes
        c["search.propagations"] += stats.propagations
        c["search.restarts"] += stats.restarts
        c["search.max_depth"] = max(c["search.max_depth"], stats.max_depth)
        for rule in PRUNE_RULES:
            c[f"search.prunes.{rule}"] += stats.prunes.get(rule, 0)
        c["search.solutions"] += solutions


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    # read .git directly: running git outside a repository would search parent directories
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


@dataclasses.dataclass
class Pass:
    traced: bool
    counts: Counter
    samples: Counter  # (stage, operation) -> seconds in the program's calls
    scaled: Counter  # (stage, operation) -> the same at the reference speed
    spans: tuple[int, int]  # this pass's slice of the tracer's spans
    wall: float  # the whole pass, checks and set-up samples included


def per_stage(passes: list[Pass], field: str) -> dict[str, float]:
    """Each operation's median over the passes, summed per stage."""
    stages: dict[str, float] = {}
    for stage, op in sorted(passes[0].samples):
        value = statistics.median(getattr(p, field)[stage, op] for p in passes)
        stages[stage] = stages.get(stage, 0.0) + value
    return stages


def metric_line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<20} {value:12.6f} {unit:<3} ({note})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    start_run = time.perf_counter()
    tm = load_program()
    env = environment(args.seed)
    setup = measure_setup(SETUP_FIRST)
    last_setup = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    run = Run(tm, args.seed, work)
    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    passes: list[Pass] = []
    try:
        workload(run, warm=True)
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 0
            run.counts, run.samples, run.scaled = Counter(), Counter(), Counter()
            run.tracer = tracer if traced else None
            tracer.counts = run.counts
            first_span = len(tracer.spans)
            t0 = time.perf_counter()
            with tracer.installed() if traced else contextlib.nullcontext():
                workload(run)
            if time.perf_counter() - last_setup >= SETUP_EVERY * args.seconds:
                setup += measure_setup(1)
                last_setup = time.perf_counter()
            passes.append(Pass(traced, run.counts, run.samples, run.scaled,
                               (first_span, len(tracer.spans)), time.perf_counter() - t0))
            # stop unless at least half of the next pass fits in the run
            left = args.seconds - (time.perf_counter() - start_run)
            if len(passes) >= 1 + args.trace and left < statistics.median(p.wall for p in passes) / 2:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]

    print(f"torusmagic benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    wall, scaled = per_stage(plain, "samples"), per_stage(plain, "scaled")
    pass_s = sum(scaled.values())
    setup_s = statistics.median(elapsed * NOMINAL_S / ref for elapsed, ref in setup)
    median_of = f"median of {len(plain)} passes, per operation"
    print("end to end (untraced passes), in seconds at the reference speed:")
    print(metric_line("setup_s", setup_s, "s", f"median of {len(setup)}; "
                      f"wall {statistics.median(elapsed for elapsed, _ in setup):.6f} s"))
    for stage in scaled:
        print(metric_line(stage, scaled[stage], "s", f"{median_of}; wall {wall[stage]:.6f} s"))
    print(metric_line("pass_s", pass_s, "s", f"{median_of}; wall {sum(wall.values()):.6f} s"))
    print(f"  {'peak_rss_mb':<20} {peak_rss_mb:12.3f} MB")
    print(f"  {'error_rate':<20} {run.failed / max(run.attempted, 1):12.6f}     "
          f"({run.failed} failed of {run.attempted} operations)")
    print(f"checks: {run.attempted - run.failed} of {run.attempted} operations correct")
    for note, count in sorted(run.notes.items(), key=lambda item: (item[0].startswith("ok"), item[0])):
        print(f"  {note} x{count}")

    result = {"environment": env, "setup_s": setup,
              "passes": [{"traced": p.traced, "wall": p.wall, "counts": dict(p.counts),
                          "samples": {f"{stage}/{op}": t for (stage, op), t in p.samples.items()},
                          "scaled": {f"{stage}/{op}": t for (stage, op), t in p.scaled.items()}}
                         for p in passes],
              "attempted": run.attempted, "failed": run.failed, "notes": dict(run.notes)}
    if args.trace:
        traced_s = sum(per_stage(traced_passes, "samples").values())
        overhead = traced_s - pass_s
        layers = per_layer(tracer, [p.spans for p in traced_passes],
                           [p.counts for p in traced_passes], overhead)
        print(metric_line("pass_s traced", traced_s, "s",
                          f"wall, median of {len(traced_passes)} passes, per operation"))
        print(f"per layer (traced passes), tracing overhead {overhead:+.6f} s per pass:")
        for name, (value, unit) in layers.items():
            print(f"  {name:<28} {value:>16.6f} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        result["spans"] = tracer.spans
    else:
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result) + "\n", encoding="utf-8")
    print(f"correct: {str(run.wrong == 0).lower()}; samples and spans in {OUT.name}/{name}")
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
