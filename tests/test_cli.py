import importlib
import json
import os
import re
import stat
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import scalar_reference as ref
from scalar_reference import H, V, swapped
from torusmagic.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VERDICT,
    main,
)
from torusmagic.construct import construct, plan_for
from torusmagic.grid import dims
from torusmagic.labeling import Labeling
from torusmagic.render import RenderSpec, render
from torusmagic.search import SearchConfig, search
from torusmagic.serialize import encode


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_then_verify_pipe(tmp_path, capsys):
    out_file = tmp_path / "lab.json"
    code, out, err = run(capsys, "generate", "3", "3", "--out", str(out_file))
    assert code == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert doc["horizontal"] == [[1, 4, 9], [8, 2, 5], [6, 7, 3]]
    assert doc["metadata"]["plan"]["variant"] == "odd-odd"

    code, out, err = run(capsys, "verify", str(out_file))
    assert code == EXIT_OK
    assert "supermagic: True" in out


def generate_metadata(n, m):
    # what torusmagic generate records, spelled out
    plan = plan_for(dims(n, m))
    return {"generator": "construct",
            "plan": {"variant": plan.variant, "start_cols": list(plan.start_cols)},
            "constant": 4 * n * m + 2}


@pytest.mark.parametrize("n,m", [(9, 15), (15, 9)])
def test_generated_documents_match_encode(tmp_path, capsys, n, m):
    # the CLI writes the header, each band and the tail as they are encoded
    doc = encode(construct(n, m), metadata=generate_metadata(n, m))
    dst = tmp_path / "lab.json"
    assert run(capsys, "generate", str(n), str(m), "--out", str(dst)) == (EXIT_OK, "", "")
    assert dst.read_bytes() == doc.encode()
    assert run(capsys, "generate", str(n), str(m)) == (EXIT_OK, doc, "")
    assert run(capsys, "generate", str(n), str(m), "--out", "-") == (EXIT_OK, doc, "")


def test_generate_holds_one_band_not_the_document(tmp_path, monkeypatch):
    # the labeling is built before tracing, so the peak is the encoding and writing
    cli = importlib.import_module("torusmagic.cli")
    lab = construct(201, 303)
    monkeypatch.setattr(cli, "construct", lambda n, m: lab)
    dst = tmp_path / "lab.json"
    main(["generate", "3", "3", "--out", str(dst)])  # the parser is built once, untraced
    tracemalloc.start()
    try:
        code = main(["generate", "201", "303", "--out", str(dst)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert dst.read_text() == encode(lab, metadata=generate_metadata(201, 303))
    assert peak < dst.stat().st_size / 2


def test_main_builds_its_parser_once(capsys, monkeypatch):
    cli = importlib.import_module("torusmagic.cli")
    cli._build_parser()
    built = []
    monkeypatch.setattr(cli.argparse, "ArgumentParser",
                        lambda *args, **kwargs: built.append(1))
    assert run(capsys, "decompose", "3", "3")[0] == EXIT_OK
    assert run(capsys, "generate", "3", "3")[0] == EXIT_OK
    assert run(capsys, "decompose", "1", "3")[0] == EXIT_ERROR
    assert built == []


def test_generate_unsupported_suggests_search(capsys):
    code, out, err = run(capsys, "generate", "3", "4")
    assert code == EXIT_VERDICT
    assert out == ""
    assert "mixed parity" in err
    assert "search 3 4" in err


def test_generate_to_stdout(capsys):
    code, out, err = run(capsys, "generate", "4", "6")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["m"] == 6


def test_verify_tampered_lists_vertices(tmp_path, capsys):
    lab = swapped(construct(3, 3), H(1, 1), H(1, 2))
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(encode(lab))
    code, out, err = run(capsys, "verify", str(bad_file))
    assert code == EXIT_VERDICT
    assert "supermagic: False" in out
    assert "x_1_" in out  # the perturbed vertices are named


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"n": 3')
    code, out, err = run(capsys, "verify", str(bad))
    assert code == EXIT_ERROR
    assert "error:" in err


def test_verify_missing_file(capsys):
    code, out, err = run(capsys, "verify", "/no/such/file.json")
    assert code == EXIT_ERROR
    assert "error:" in err


def test_audit_clean_and_dirty(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(encode(construct(4, 6)))
    code, out, err = run(capsys, "audit", str(good), "--plan", "even-even")
    assert code == EXIT_OK
    assert "clean" in out

    tampered = swapped(construct(4, 6), H(1, 1), V(2, 2))
    dirty = tmp_path / "dirty.json"
    dirty.write_text(encode(tampered))
    code, out, err = run(capsys, "audit", str(dirty), "--plan", "even-even")
    assert code == EXIT_VERDICT
    assert "mismatch" in out


def test_audit_wrong_plan_is_usage_error(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(encode(construct(4, 6)))
    code, out, err = run(capsys, "audit", str(good), "--plan", "odd-odd")
    assert code == EXIT_ERROR


@pytest.mark.parametrize("n,m", [(9, 15), (15, 9), (12, 8), (4, 6)])
def test_audit_without_a_plan_uses_the_grids_own(tmp_path, capsys, n, m):
    doc = tmp_path / "lab.json"
    assert run(capsys, "generate", str(n), str(m), "--out", str(doc))[0] == EXIT_OK
    clean = run(capsys, "audit", str(doc))
    assert clean[0] == EXIT_OK
    assert clean[1].startswith(f"corner audit clean: all {2 * n * m} corners match")
    variant = json.loads(doc.read_text())["metadata"]["plan"]["variant"]
    assert run(capsys, "audit", str(doc), "--plan", variant) == clean


@pytest.mark.parametrize("plan", [[], ["--plan", "odd-odd"], ["--plan", "even-even"]],
                         ids=["no-plan", "odd-odd", "even-even"])
def test_audit_of_a_searched_grid_no_construction_covers_exits_one(tmp_path, capsys, plan):
    doc = tmp_path / "found.json"
    doc.write_text(encode(search(3, 4, SearchConfig(seed=11)).labeling))
    code, out, err = run(capsys, "audit", str(doc), *plan)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: no construction covers 3x4: mixed parity\n"


def test_search_found_writes_document(tmp_path, capsys):
    out_file = tmp_path / "found.json"
    code, out, err = run(capsys, "search", "3", "3", "--out", str(out_file))
    assert code == EXIT_OK
    assert "status: found" in err  # diagnostics on stderr
    doc = json.loads(out_file.read_text())
    assert doc["n"] == doc["m"] == 3
    code, out, err = run(capsys, "verify", str(out_file))
    assert code == EXIT_OK


def test_search_summary_line_reports_propagations_and_rate(capsys, monkeypatch):
    # an unseeded search, too, splits its tree across the usable CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, out, err = run(capsys, "search", "3", "4", "--node-budget", "5000")
    assert code == EXIT_BUDGET
    line = err.splitlines()[0]
    match = re.fullmatch(r"status: budget-exceeded \| nodes (\d+) \| propagations (\d+) \| "
                         r"restarts 0 \| max depth (\d+) \| ([\d.]+)s \| (\d+) nodes/s \| "
                         r"workers 2", line)
    assert match, line
    stats = search(3, 4, SearchConfig(node_budget=5000)).stats
    assert (int(match[1]), int(match[2]), int(match[3])) == (5000, stats.propagations,
                                                           stats.max_depth)
    assert stats.propagations > 0 and int(match[5]) > 0


def test_search_budget_exit_code(capsys):
    code, out, err = run(capsys, "search", "3", "6", "--node-budget", "1000")
    assert code == EXIT_BUDGET
    assert out == ""  # no labeling emitted
    assert "budget" in err


def test_search_seed_deterministic_output(capsys, monkeypatch):
    # in-process on one usable CPU, then on a pool of three workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code1, out1, err1 = run(capsys, "search", "3", "4", "--seed", "11")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    code2, out2, err2 = run(capsys, "search", "3", "4", "--seed", "11")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert err1.splitlines()[0].endswith(" nodes/s | workers 1")
    assert err2.splitlines()[0].endswith(" nodes/s | workers 3")
    # --seed is the library's Luby config with that seed
    stats = search(3, 4, SearchConfig(seed=11)).stats
    assert (stats.nodes, stats.restarts) == (5_069, 1)
    assert f"| nodes {stats.nodes} | " in err1 and f"| restarts {stats.restarts} | " in err1


def test_decompose_output(capsys):
    code, out, err = run(capsys, "decompose", "3", "4")
    assert code == EXIT_OK
    assert "1 diagonals of length 24" in out
    assert "D1 start_col=1:" in out
    assert "H(1,1) V(1,2)" in out


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (4, 6), (6, 9), (9, 15), (15, 9), (7, 5)])
def test_decompose_prints_the_edges_as_edgerefs_do(capsys, n, m):
    code, out, err = run(capsys, "decompose", str(n), str(m))
    assert code == EXIT_OK
    d = dims(n, m)
    lines = [f"C_{n} x C_{m}: {d.d} diagonals of length {2 * d.l} ({d.q} edges total)"]
    lines += [f"D{diag.index} start_col={diag.start_col}: " + " ".join(map(str, diag.edges))
              for diag in ref.decompose(d)]
    assert out == "\n".join(lines) + "\n"


def test_decompose_holds_one_line_at_a_time(monkeypatch):
    # 200 x 200 prints 0.8 MB in 200 lines of 4 kB: holding every line
    # would break the bound, and holding an EdgeRef per edge peaked at 8.6 MB
    with open(os.devnull, "w", encoding="utf-8") as null:
        monkeypatch.setattr(sys, "stdout", null)
        tracemalloc.start()
        try:
            code = main(["decompose", "200", "200"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 500_000


def test_render_from_stdin(tmp_path, capsys, monkeypatch):
    import io
    import sys

    text = encode(construct(3, 3))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "render", "-", "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("graph torus_3x3")


def test_render_svg_to_file(tmp_path, capsys):
    src = tmp_path / "lab.json"
    src.write_text(encode(construct(3, 3)))
    dst = tmp_path / "fig.svg"
    code, out, err = run(capsys, "render", str(src), "--format", "svg",
                         "--annotate", "weights", "--out", str(dst))
    assert code == EXIT_OK
    assert dst.read_text().startswith("<svg")


@pytest.mark.parametrize("n,m", [(9, 15), (15, 9)])
@pytest.mark.parametrize("fmt", ["svg", "dot"])
@pytest.mark.parametrize("annotate", ["labels", "weights", "corners"])
@pytest.mark.parametrize("highlight", [False, True])
def test_streamed_figures_match_render(tmp_path, capsys, n, m, fmt, annotate, highlight):
    # the CLI writes each piece whole as it is woven
    src = tmp_path / "lab.json"
    src.write_text(encode(construct(n, m)))
    flags = ["--format", fmt, "--annotate", annotate] + ["--highlight-diagonals"] * highlight
    figure = render(construct(n, m), RenderSpec(fmt, annotate, highlight))
    dst = tmp_path / "fig"
    assert run(capsys, "render", str(src), *flags, "--out", str(dst)) == (EXIT_OK, "", "")
    assert dst.read_bytes() == figure.encode()
    assert run(capsys, "render", str(src), *flags) == (EXIT_OK, figure, "")
    assert run(capsys, "render", str(src), *flags, "--out", "-") == (EXIT_OK, figure, "")


def test_render_holds_one_band_not_the_figure(tmp_path):
    # render() holds about twice the figure; the CLI writes each band as it
    # is woven, so its peak stays well under the figure's length
    src = tmp_path / "lab.json"
    src.write_text(encode(construct(99, 153)))
    dst = tmp_path / "fig.svg"
    tracemalloc.start()
    try:
        code = main(["render", str(src), "--format", "svg", "--annotate", "weights",
                     "--highlight-diagonals", "--out", str(dst)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < dst.stat().st_size / 2


def test_write_data_writes_each_piece_whole_as_utf8(tmp_path, capsys, monkeypatch):
    cli = importlib.import_module("torusmagic.cli")
    pieces = ["x" * 70_000 + "\u00e9\u2192\u00e9", "\u2192" + "y" * 70_000 + "\n", "\u00e9"]
    dst = tmp_path / "out.txt"
    cli._write_data(iter(pieces), str(dst))
    assert dst.read_bytes() == "".join(pieces).encode("utf-8")
    cli._write_data(iter(pieces), None)
    assert capsys.readouterr().out == "".join(pieces)

    class Stream:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    monkeypatch.setattr(sys, "stdout", Stream())
    cli._write_data(iter(pieces), "-")
    assert sys.stdout.writes == pieces  # one write per piece


def test_render_too_large_exits_one(tmp_path, capsys, monkeypatch):
    src = tmp_path / "big.json"
    src.write_text(encode(construct(600, 600)))
    dst = tmp_path / "fig.svg"

    def no_decode(text):
        raise AssertionError("the over-cap document was decoded")

    # the size is read from the document's header, before any decoding
    monkeypatch.setattr(importlib.import_module("torusmagic.cli"), "decode", no_decode)
    code, out, err = run(capsys, "render", str(src), "--format", "svg", "--out", str(dst))
    assert code == EXIT_ERROR
    assert err == "error: C_600 x C_600 has 720000 edges; render draws at most 500000\n"
    assert not dst.exists()


@pytest.mark.parametrize("refusal", ["too large", "undecodable"])
def test_render_refusals_leave_an_existing_out_file(tmp_path, capsys, monkeypatch, refusal):
    text = encode(construct(9, 15))
    if refusal == "too large":
        # 9 x 15 has 270 edges
        monkeypatch.setattr(importlib.import_module("torusmagic.render"), "MAX_RENDER_EDGES", 269)
    else:
        text = text[:len(text) // 2]
    src = tmp_path / "lab.json"
    src.write_text(text)
    dst = tmp_path / "fig.svg"
    dst.write_bytes(b"an earlier figure\n")
    code, out, err = run(capsys, "render", str(src), "--format", "svg", "--out", str(dst))
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: ")
    assert dst.read_bytes() == b"an earlier figure\n"


@pytest.mark.parametrize("command,module", [(["generate", "99", "153"], "serialize"),
                                            (["render", "lab.json", "--format", "svg"], "render")],
                         ids=["generate", "render"])
def test_a_failed_write_leaves_an_existing_out_file(tmp_path, capsys, monkeypatch, command, module):
    # the pieces go to a file beside --out, which replaces it only after the last one
    (tmp_path / "lab.json").write_text(encode(construct(99, 153)))
    dst = tmp_path / "out.txt"
    dst.write_bytes(b"an earlier output\n")
    target = importlib.import_module(f"torusmagic.{module}")
    write_decimal, calls = target.write_decimal, []

    def fail_after_the_first_band(*args):
        if calls:
            raise OSError("no space left")
        calls.append(args)
        write_decimal(*args)

    monkeypatch.setattr(target, "write_decimal", fail_after_the_first_band)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *command, "--out", str(dst))
    assert (code, out, err) == (EXIT_ERROR, "", "error: no space left\n")
    assert len(calls) == 1
    assert dst.read_bytes() == b"an earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lab.json", "out.txt"]


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symbolic links")
def test_out_through_a_symbolic_link_replaces_the_file_it_names(tmp_path, capsys, monkeypatch):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"an earlier document\n")
    link.symlink_to(target)
    assert run(capsys, "generate", "3", "3", "--out", str(link))[0] == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == encode(construct(3, 3), metadata=generate_metadata(3, 3))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    # a write that fails after the first band leaves the file the link names as it was
    serialize, calls = importlib.import_module("torusmagic.serialize"), []
    write_decimal, before = serialize.write_decimal, target.read_bytes()

    def fail_after_the_first_band(*args):
        if calls:
            raise OSError("no space left")
        calls.append(args)
        write_decimal(*args)

    monkeypatch.setattr(serialize, "write_decimal", fail_after_the_first_band)
    code, out, err = run(capsys, "generate", "99", "153", "--out", str(link))
    assert (code, out, err, len(calls)) == (EXIT_ERROR, "", "error: no space left\n", 1)
    assert link.is_symlink() and target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_out_to_a_pipe_through_dev_fd_is_written_in_place(tmp_path, capsys):
    # /dev/fd/N, as bash process substitution hands it over, is a link whose
    # target for a pipe is no path; the document must go down the pipe
    r, w = os.pipe()
    received = []

    def read_all():
        with os.fdopen(r, "rb") as pipe:
            received.append(pipe.read())

    reader = threading.Thread(target=read_all)
    reader.start()
    try:
        code, out, err = run(capsys, "generate", "99", "153", "--out", f"/dev/fd/{w}")
    finally:
        os.close(w)
        reader.join()
    assert (code, out, err) == (EXIT_OK, "", "")
    document = encode(construct(99, 153), metadata=generate_metadata(99, 153))
    assert received == [document.encode()]
    assert list(tmp_path.iterdir()) == []


def test_out_is_created_with_the_mode_a_plain_open_gives(tmp_path, capsys):
    plain = tmp_path / "plain.json"
    with open(plain, "w"):
        pass
    dst = tmp_path / "lab.json"
    assert run(capsys, "generate", "9", "15", "--out", str(dst))[0] == EXIT_OK
    assert dst.stat().st_mode == plain.stat().st_mode


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_writes_a_pipe_in_place(tmp_path, capsys):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    code = main(["generate", "9", "15", "--out", str(pipe)])
    reader.join(timeout=30)
    assert code == EXIT_OK and not reader.is_alive()
    assert received == [encode(construct(9, 15), metadata=generate_metadata(9, 15)).encode()]
    assert stat.S_ISFIFO(pipe.stat().st_mode)


def test_render_to_a_directory_fails_before_any_band_is_woven(tmp_path, capsys, monkeypatch):
    src = tmp_path / "lab.json"
    src.write_text(encode(construct(9, 15)))

    def no_weave(*args):
        raise AssertionError("a band was woven before the output was opened")

    monkeypatch.setattr(importlib.import_module("torusmagic.render"), "_weave", no_weave)
    code, out, err = run(capsys, "render", str(src), "--format", "svg", "--out", str(tmp_path))
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: ")


def test_search_too_large_exits_one(capsys):
    code, out, err = run(capsys, "search", "2000", "2000")
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: C_2000 x C_2000 has 8000000 edges; search takes at most 200000\n"


def test_verify_nonpositive_label_exits_one(tmp_path, capsys):
    doc = json.loads(encode(construct(3, 3)))
    doc["horizontal"][2][1] = 0
    src = tmp_path / "lab.json"
    src.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(src))
    assert code == EXIT_ERROR
    assert "horizontal[3][2]: labels must be positive, got 0" in err


def test_verify_label_past_int64_exits_one(tmp_path, capsys):
    doc = json.loads(encode(construct(3, 3)))
    doc["horizontal"][1][1] = 2**63
    src = tmp_path / "lab.json"
    src.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(src))
    assert code == EXIT_ERROR
    assert err == "error: horizontal[2][2]: labels must be below 2**63, got 9223372036854775808\n"


def test_verify_prints_exact_weights_of_large_labels(tmp_path, capsys):
    labels = np.full((3, 3), 2**62, dtype=np.int64)
    src = tmp_path / "lab.json"
    src.write_text(encode(Labeling(dims(3, 3), labels, labels)))
    code, out, err = run(capsys, "verify", str(src))
    assert code == EXIT_VERDICT
    assert "\nuniform vertex weight: 18446744073709551616\n" in out
    assert out.endswith("supermagic: False\n")


def test_usage_errors_exit_one(capsys):
    assert main(["generate", "three", "3"]) == EXIT_ERROR
    assert main(["nonsense"]) == EXIT_ERROR
    assert main([]) == EXIT_ERROR


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["search", "--help"]) == EXIT_OK


def test_dimension_too_small_is_an_error(capsys):
    code, out, err = run(capsys, "decompose", "2", "5")
    assert code == EXIT_ERROR
    assert "error:" in err


def test_audit_transposed_shape_is_clean(tmp_path, capsys):
    # n > m: generate builds the transpose of the 9 x 15 labeling, and the
    # audit must check it in that native orientation
    doc = tmp_path / "c15x9.json"
    code, out, err = run(capsys, "generate", "15", "9", "--out", str(doc))
    assert code == EXIT_OK
    code, out, err = run(capsys, "audit", str(doc), "--plan", "odd-odd")
    assert code == EXIT_OK
    assert out.startswith("corner audit clean: all 270 corners match")


def test_search_zero_node_budget_exits_one(capsys):
    code, out, err = run(capsys, "search", "3", "4", "--node-budget", "0")
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: budgets must be positive\n"


def test_search_defaults_are_the_configs():
    cli = importlib.import_module("torusmagic.cli")
    args = cli._build_parser().parse_args(["search", "3", "4"])
    parsed = SearchConfig(node_budget=args.node_budget, time_budget=args.time_budget, seed=args.seed)
    assert parsed == SearchConfig()


def test_verify_non_utf8_file_exits_one(tmp_path, capsys):
    src = tmp_path / "lab.json"
    src.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "verify", str(src))
    assert code == EXIT_ERROR
    assert "not UTF-8 text" in err


# json.loads refuses an integer of more than 4,300 digits with a bare
# ValueError, and nesting past the recursion limit with a RecursionError
@pytest.mark.parametrize("text", [
    '{"n": ' + "9" * 5000 + "}",
    '{"n": 3, "m": 3, "horizontal": ' + "[" * 100_000 + "]" * 100_000 + ', "vertical": []}',
], ids=["oversized integer", "deep nesting"])
def test_verify_json_that_json_loads_refuses_exits_one(tmp_path, capsys, text):
    src = tmp_path / "lab.json"
    src.write_text(text)
    code, out, err = run(capsys, "verify", str(src))
    assert code == EXIT_ERROR
    assert err.startswith("error: not valid JSON:")
    assert "Traceback" not in err


def test_internal_value_error_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    # only TorusMagicError and OSError map to exit 1; anything else is a
    # defect and propagates
    import torusmagic.cli as cli_module

    def broken(lab):
        raise ValueError("defect")

    src = tmp_path / "lab.json"
    src.write_text(encode(construct(3, 3)))
    monkeypatch.setattr(cli_module, "verify", broken)
    with pytest.raises(ValueError, match="defect"):
        main(["verify", str(src)])
