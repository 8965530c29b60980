"""The construction's own bijection check: a defect in a label block must
raise ConstructionError, with or without `python -O`."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusmagic.construct import ConstructionError, _check_bijection, construct

# the package's `construct` function shadows the submodule as an attribute
construct_module = importlib.import_module("torusmagic.construct")

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in a subprocess under -O; asserts are gone there, the check is not.
OPTIMIZED = """
import importlib
c = importlib.import_module("torusmagic.construct")
assert False, "asserts must be stripped under -O"
"""

DUPLICATE_BLOCK = """
def duplicated_plain(j, l, q):
    h, v = plain(j, l, q)
    h[1] = h[0]
    return h, v

plain = c._plain_blocks
c._plain_blocks = duplicated_plain
try:
    c.construct(5, 15)
except c.ConstructionError as exc:
    print("ConstructionError:", exc)
else:
    print("no error")
"""


def _duplicate_first_label(blocks):
    def patched(*args):
        h, v = blocks(*args)
        h = h.copy()
        h[1] = h[0]
        return h, v

    return patched


@pytest.mark.parametrize("n,m,role", [(5, 15, "_plain_blocks"), (4, 6, "_rotated_blocks"),
                                      (9, 15, "_shifted_blocks"), (3, 9, "_interleaved_blocks")])
def test_duplicate_label_in_a_role_block_raises(monkeypatch, n, m, role):
    monkeypatch.setattr(construct_module, role, _duplicate_first_label(getattr(construct_module, role)))
    with pytest.raises(ConstructionError, match="not used exactly once"):
        construct(n, m)


def test_check_rejects_unwritten_and_out_of_range_cells():
    h = np.arange(1, 10).reshape(3, 3)
    v = h + 9
    _check_bijection(h, v, 18)
    with pytest.raises(ConstructionError, match="unlabeled"):
        _check_bijection(np.where(h == 5, 0, h), v, 18)
    with pytest.raises(ConstructionError, match="outside 1..18"):
        _check_bijection(h, np.where(v == 18, 19, v), 18)
    with pytest.raises(ConstructionError, match="outside 1..18"):
        _check_bijection(np.where(h == 1, -1, h), v, 18)


def test_check_survives_python_O():
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED + DUPLICATE_BLOCK],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ConstructionError: labels not used exactly once")
