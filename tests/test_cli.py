import importlib
import json
import os
import re
import sys
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
from torusmagic.construct import construct
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


def test_search_found_writes_document(tmp_path, capsys):
    out_file = tmp_path / "found.json"
    code, out, err = run(capsys, "search", "3", "3", "--out", str(out_file))
    assert code == EXIT_OK
    assert "status: found" in err  # diagnostics on stderr
    doc = json.loads(out_file.read_text())
    assert doc["n"] == doc["m"] == 3
    code, out, err = run(capsys, "verify", str(out_file))
    assert code == EXIT_OK


def test_search_summary_line_reports_propagations_and_rate(capsys):
    code, out, err = run(capsys, "search", "3", "4", "--node-budget", "5000")
    assert code == EXIT_BUDGET
    line = err.splitlines()[0]
    match = re.fullmatch(r"status: budget-exceeded \| nodes (\d+) \| propagations (\d+) \| "
                         r"restarts 0 \| max depth (\d+) \| ([\d.]+)s \| (\d+) nodes/s \| "
                         r"workers 1", line)
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
    stats = search(3, 4, SearchConfig(value_order="random", restart_policy="luby",
                                      seed=11)).stats
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


def test_figures_over_several_write_slices_match_render(tmp_path, capsys):
    # a 9 x 15 SVG is about 75,000 characters: two slices of 65,536
    src = tmp_path / "lab.json"
    src.write_text(encode(construct(9, 15)))
    flags = ["--format", "svg", "--annotate", "corners", "--highlight-diagonals"]
    figure = render(construct(9, 15), RenderSpec("svg", "corners", True))
    assert len(figure) > 65_536
    dst = tmp_path / "fig.svg"
    assert run(capsys, "render", str(src), *flags, "--out", str(dst)) == (EXIT_OK, "", "")
    assert dst.read_bytes() == figure.encode()
    assert run(capsys, "render", str(src), *flags) == (EXIT_OK, figure, "")
    assert run(capsys, "render", str(src), *flags, "--out", "-") == (EXIT_OK, figure, "")


def test_write_data_writes_utf8_across_slices(tmp_path, capsys):
    cli = importlib.import_module("torusmagic.cli")
    text = "x" * (cli._WRITE_CHARS - 1) + "\u00e9\u2192" + "y" * cli._WRITE_CHARS + "\n"
    dst = tmp_path / "out.txt"
    cli._write_data(text, str(dst))
    assert dst.read_bytes() == text.encode("utf-8")
    cli._write_data(text, None)
    assert capsys.readouterr().out == text


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
