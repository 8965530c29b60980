"""Direct supermagic labelings of C_n x C_m for same-parity dimensions.

Each diagonal receives labels drawn from contiguous blocks: horizontal
edges counted upward, vertical edges downward, so that every HV-corner
and VH-corner carries one of five partial weights

    2nm, 2nm+1, 2nm+2, 2nm+l, 2nm-l+2

arranged so that the HV weight of a vertex (from its diagonal) and the
VH weight (from the successor diagonal) always sum to the magic constant
4nm+2.  The "exceptional" corners carrying 2nm+l and 2nm-l+2 are aligned
across consecutive diagonals by the choice of start columns: diagonal 1
starts at column d+1 (wrapped), every other diagonal j at column j.

Odd/odd grids with gcd(n,m) > 1 additionally reroute the last two
diagonals: d-1 gets its exceptional corner shifted to step l'+2, and the
last diagonal interleaves two label blocks with stride 2 so that its
VH-corners absorb the seam back into diagonal 1.

Even/even grids need no exceptional diagonals: odd diagonals take the
plain increasing/decreasing blocks and even diagonals the one-step
rotation that moves the top label to the front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagonals import CornerPos, decompose
from .grid import GridDims, TorusMagicError, dims as make_dims, wrap
from .labeling import Labeling

ODD_ODD = "odd-odd"
EVEN_EVEN = "even-even"


class UnsupportedShape(TorusMagicError):
    """Grid shape outside what the direct constructions cover."""


class PlanShapeMismatch(TorusMagicError):
    """Construction plan inconsistent with the grid's parity."""


@dataclass(frozen=True)
class Unsupported:
    """Typed refusal: the shape needs the search module instead."""

    n: int
    m: int
    reason: str
    suggestion: str


@dataclass(frozen=True)
class ConstructionPlan:
    """Which construction ran and where each diagonal starts."""

    variant: str
    start_cols: tuple[int, ...]


def plan_for(variant: str, dims: GridDims) -> ConstructionPlan:
    """Canonical plan: diagonal 1 starts at column d+1 (wrapped into 1..m),
    diagonal j at column j otherwise.

    Both variants share the start columns: the wrap-around seam between the
    last diagonal and diagonal 1 aligns its exceptional corners only when
    diagonal 1 starts at column d+1.  (On square grids that wraps to
    column 1, so all diagonals start at their own index.)
    """
    if variant == ODD_ODD:
        if dims.n % 2 == 0 or dims.m % 2 == 0 or dims.d == 1:
            raise PlanShapeMismatch(f"{variant} needs odd n, m with gcd > 1, got {dims.n}x{dims.m}")
    elif variant == EVEN_EVEN:
        if dims.n % 2 == 1 or dims.m % 2 == 1:
            raise PlanShapeMismatch(f"{variant} needs even n and m, got {dims.n}x{dims.m}")
    else:
        raise PlanShapeMismatch(f"unknown variant {variant!r}")
    starts = [wrap(dims.d + 1, dims.m)] + list(range(2, dims.d + 1))
    return ConstructionPlan(variant=variant, start_cols=tuple(starts))


class ConstructionError(RuntimeError):
    """The label blocks failed to form a bijection onto 1..q: a defect in
    the construction itself, never a property of the input."""


def _role(variant: str, j: int, d: int) -> str:
    """Which block layout diagonal j of d takes under the variant."""
    if variant == ODD_ODD and j == d:
        return "interleaved"
    if variant == ODD_ODD and j == d - 1:
        return "shifted"
    return "plain" if j % 2 == 1 else "rotated"


def _plain_blocks(j: int, l: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # Increasing horizontals, decreasing verticals: every HV-corner sums
    # to 2nm+1, VH-corner 1 to 2nm-l+2, later VH-corners to 2nm+2.
    k = np.arange(1, l + 1)
    return (j - 1) * l + k, q - (j - 1) * l + 1 - k


def _rotated_blocks(j: int, l: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # Horizontal labels shifted one step down with jl moved to the front:
    # HV-corner 1 sums to 2nm+l (exceptional), the rest to 2nm; all
    # VH-corners to 2nm+1.
    k = np.arange(1, l + 1)
    return (j - 1) * l + np.roll(k, 1), q - (j - 1) * l + 1 - k


def _shifted_blocks(d: int, l: int, lp: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # Diagonal d-1 (odd/odd only): same label blocks as the rotated form
    # but with the exceptional HV-corner moved to step l'+2 so that it
    # faces the exceptional VH-corner of the interleaved last diagonal.
    # With l = 2l'+1 both blocks are rotations of 1..l: h starts at l',
    # v at l'+1 below the top of its block.
    k = np.arange(1, l + 1)
    return (d - 2) * l + np.roll(k, lp + 2), q - (d - 2) * l + 1 - np.roll(k, lp + 1)


def _interleaved_blocks(d: int, l: int, lp: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # Last diagonal (odd/odd only): consumes the two central label blocks
    # with stride 2.  HV-corner 1 carries 2nm+l, VH-corner l'+2 carries
    # 2nm-l+2, everything else 2nm / 2nm+2.
    k = np.arange(1, l + 1)
    offset = np.where(k <= lp + 1, (d - 1) * l, (d - 2) * l)
    h = offset + 2 * k - 2
    h[0] = d * l
    return h, q - offset - 2 * k + 2


def _blocks(role: str, j: int, dims: GridDims) -> tuple[np.ndarray, np.ndarray]:
    if role == "plain":
        return _plain_blocks(j, dims.l, dims.q)
    if role == "rotated":
        return _rotated_blocks(j, dims.l, dims.q)
    if role == "shifted":
        return _shifted_blocks(dims.d, dims.l, dims.lp, dims.q)
    return _interleaved_blocks(dims.d, dims.l, dims.lp, dims.q)


def _check_bijection(h: np.ndarray, v: np.ndarray, q: int) -> None:
    """Raise ConstructionError unless h and v hold every label 1..q once.

    There are exactly q cells, so labels in 1..q, no cell left at 0 and
    each label counted once together mean a bijection."""
    flat = np.concatenate([h.ravel(), v.ravel()])
    low, high = int(flat.min()), int(flat.max())
    if low < 0 or high > q:
        raise ConstructionError(f"labels span {low}..{high}, outside 1..{q}")
    counts = np.bincount(flat, minlength=q + 1)
    if counts[0]:
        raise ConstructionError(f"{counts[0]} edges left unlabeled")
    wrong = np.flatnonzero(counts[1:] != 1) + 1
    if wrong.size:
        raise ConstructionError(f"labels not used exactly once: {wrong[:10].tolist()}")


def _build(variant: str, dims: GridDims) -> Labeling:
    """Write every diagonal's label blocks (native orientation n <= m)."""
    if dims.n > dims.m:
        return _build(variant, make_dims(dims.m, dims.n)).transpose()
    plan = plan_for(variant, dims)
    h = np.zeros((dims.n, dims.m), dtype=np.int64)
    v = np.zeros((dims.n, dims.m), dtype=np.int64)
    for diag in decompose(dims, list(plan.start_cols)):
        rows, h_cols, v_cols = diag.indices()
        h[rows, h_cols], v[rows, v_cols] = _blocks(_role(variant, diag.index, dims.d),
                                                   diag.index, dims)
    _check_bijection(h, v, dims.q)
    return Labeling(dims, h, v)


def construct_odd_odd(dims: GridDims) -> Labeling:
    """Supermagic labeling for n, m odd with gcd(n,m) > 1.

    For n > m the transposed instance is built and flipped back."""
    if dims.n % 2 == 0 or dims.m % 2 == 0:
        raise UnsupportedShape(f"odd/odd construction needs odd n, m, got {dims.n}x{dims.m}")
    if dims.d == 1:
        raise UnsupportedShape(
            f"odd/odd construction needs gcd(n,m) > 1, got coprime {dims.n}x{dims.m}"
        )
    return _build(ODD_ODD, dims)


def construct_even_even(dims: GridDims) -> Labeling:
    """Supermagic labeling for n, m even (so d is even and no diagonal
    needs the shifted or interleaved treatment)."""
    if dims.n % 2 == 1 or dims.m % 2 == 1:
        raise UnsupportedShape(f"even/even construction needs even n, m, got {dims.n}x{dims.m}")
    return _build(EVEN_EVEN, dims)


def construct(n: int, m: int) -> Labeling | Unsupported:
    """Dispatch to the covering construction, or explain why none applies."""
    d = make_dims(n, m)
    if n % 2 == 1 and m % 2 == 1:
        if math.gcd(n, m) == 1:
            return Unsupported(n, m, reason="coprime odd",
                               suggestion=f"no direct construction; try: search {n} {m}")
        return construct_odd_odd(d)
    if n % 2 == 0 and m % 2 == 0:
        return construct_even_even(d)
    return Unsupported(n, m, reason="mixed parity",
                       suggestion=f"no direct construction; try: search {n} {m}")


@dataclass(frozen=True)
class ExpectedCornerTable:
    """Expected partial weight for every corner of every diagonal.

    Row j-1 of hv (vh) holds the HV (VH) weights of diagonal j for steps
    k = 1..l."""

    dims: GridDims
    plan: ConstructionPlan
    hv: np.ndarray = field(repr=False, compare=False)
    vh: np.ndarray = field(repr=False, compare=False)

    def __getitem__(self, c: CornerPos) -> int:
        if not (1 <= c.diag <= self.dims.d and 1 <= c.k <= self.dims.l):
            raise KeyError(c)
        return int((self.hv if c.kind == "HV" else self.vh)[c.diag - 1, c.k - 1])

    @property
    def entries(self) -> dict[CornerPos, int]:
        """Every corner's expected weight, keyed by position."""
        hv, vh = self.hv.tolist(), self.vh.tolist()
        return {CornerPos(j, k, kind): weights[j - 1][k - 1]
                for j in range(1, self.dims.d + 1)
                for k in range(1, self.dims.l + 1)
                for kind, weights in (("HV", hv), ("VH", vh))}


def expected_corner_table(plan: ConstructionPlan, dims: GridDims) -> ExpectedCornerTable:
    """Partial weights the construction promises at each (diagonal, k, kind).

    Within each diagonal at most one HV-corner carries 2nm+l and at most
    one VH-corner carries 2nm-l+2; for every vertex the HV entry of its
    diagonal plus the VH entry of the successor diagonal is 4nm+2.
    """
    if plan != plan_for(plan.variant, dims):
        raise PlanShapeMismatch(f"plan {plan} is not the canonical plan for {dims.n}x{dims.m}")
    base, l, d = dims.q, dims.l, dims.d  # base = 2nm
    hv = np.empty((d, l), dtype=np.int64)
    vh = np.empty((d, l), dtype=np.int64)
    for j in range(1, d + 1):
        hv_j, vh_j = hv[j - 1], vh[j - 1]
        role = _role(plan.variant, j, d)
        if role == "plain":
            hv_j[:] = base + 1
            vh_j[:] = base + 2
            vh_j[0] = base - l + 2
        elif role == "rotated":
            hv_j[:] = base
            hv_j[0] = base + l
            vh_j[:] = base + 1
        elif role == "shifted":
            hv_j[:] = base
            hv_j[dims.lp + 1] = base + l
            vh_j[:] = base + 1
        else:  # interleaved
            hv_j[:] = base
            hv_j[0] = base + l
            vh_j[:] = base + 2
            vh_j[dims.lp + 1] = base - l + 2
    return ExpectedCornerTable(dims=dims, plan=plan, hv=hv, vh=vh)
