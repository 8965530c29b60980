"""The construction's own bijection check: a defect in a label block must
raise ConstructionError, with or without `python -O`.  A block that is
still a bijection but breaks the corner weights must pass that check and
be caught by verify and the corner audit instead, whose promised weights
are not derived from the blocks."""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusmagic.construct import (
    ConstructionError,
    _check_bijection,
    construct,
    expected_corner_table,
    plan_for,
)
from torusmagic.grid import dims
from torusmagic.verify import audit_corners, verify

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
import dataclasses

plain = c._ROLES["plain"]

def duplicated_plain(k, dims):
    h, v = plain.orders(k, dims)
    h = h.copy()
    h[1] = h[0]
    return h, v

c._ROLES["plain"] = dataclasses.replace(plain, orders=duplicated_plain)
try:
    c.construct(5, 15)
except c.ConstructionError as exc:
    print("ConstructionError:", exc)
else:
    print("no error")
"""


def _duplicate_first_label(row):
    def orders(k, dims):
        h, v = row.orders(k, dims)
        h = h.copy()
        h[1] = h[0]
        return h, v

    return dataclasses.replace(row, orders=orders)


@pytest.mark.parametrize("n,m,role", [(5, 15, "plain"), (4, 6, "rotated"),
                                      (9, 15, "shifted"), (3, 9, "interleaved")])
def test_duplicate_label_in_a_role_block_raises(monkeypatch, n, m, role):
    monkeypatch.setitem(construct_module._ROLES, role,
                        _duplicate_first_label(construct_module._ROLES[role]))
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


def _turned_horizontals(row):
    # the horizontal block one step further round: still a bijection
    def orders(k, dims):
        h, v = row.orders(k, dims)
        return np.roll(h, 1), v

    return dataclasses.replace(row, orders=orders)


# every role in both orientations of an odd/odd grid, and the even/even roles
TURNED = [(role, n, m) for role in ("plain", "rotated", "shifted", "interleaved")
          for n, m in ((9, 27), (27, 9))] + [("plain", 8, 12), ("rotated", 12, 8)]


@pytest.mark.parametrize("role,n,m", TURNED)
def test_corner_weights_are_not_derived_from_the_blocks(monkeypatch, role, n, m):
    d = dims(n, m)
    rows = construct_module._role_rows(plan_for(d).variant, d.d)[role]
    role_diagonals = set(range(1, d.d + 1)[rows])
    promised = expected_corner_table(d)
    monkeypatch.setitem(construct_module._ROLES, role,
                        _turned_horizontals(construct_module._ROLES[role]))
    lab = construct(n, m)
    _check_bijection(lab.h, lab.v, lab.dims.q)
    assert not verify(lab).is_supermagic
    table = expected_corner_table(d)
    assert np.array_equal(table.hv, promised.hv) and np.array_equal(table.vh, promised.vh)
    report = audit_corners(lab)
    assert {pos.diag for pos, _, _ in report.mismatches} == role_diagonals
