"""Direct supermagic labelings of C_n x C_m for same-parity dimensions.

Diagonal j of d labels its horizontal edges from the block (j-1)l+1..jl,
counted upward, and its vertical edges from q-jl+1..q-(j-1)l, counted
downward.  Its role picks the order within each block, so that every
HV-corner and VH-corner carries one of five partial weights

    2nm, 2nm+1, 2nm+2, 2nm+l, 2nm-l+2

arranged so that the HV weight of a vertex (from its diagonal) and the
VH weight (from the successor diagonal) always sum to the magic constant
4nm+2.  The "exceptional" corners carrying 2nm+l and 2nm-l+2 are aligned
across consecutive diagonals by the choice of start columns: diagonal 1
starts at column d+1 (wrapped), every other diagonal j at column j.

Odd diagonals take the plain role (both blocks in order) and even ones
the rotated role (the top horizontal label moved to the front); even/even
grids need nothing else.  Odd/odd grids with gcd(n,m) > 1 additionally
reroute the last two diagonals: d-1 is shifted so that its exceptional
corner moves to step l'+2, and the last diagonal interleaves its blocks
with stride 2 so that its VH-corners absorb the seam back into diagonal 1.

`_uncovered` states once which grids a construction covers, and a grid
fixes its own plan: its parities pick the variant.

`_ROLES` is the one table of roles: each row gives the block orders and,
stated on their own, the corner weights the role promises.  `_build`
reads the orders, `expected_corner_table` only the weights, so the corner
audit checks the blocks against a promise that is not derived from them.
`_role_rows` assigns the roles as slices of the diagonals, so both apply
each role once, to all of its diagonals: `_build` scatters a role's
blocks through the (d, l) cell matrices of `diagonal_cells`, and the
construction costs a fixed number of numpy operations whatever d is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diagonals import CornerPos, decompose, diagonal_cells
from .grid import GridDims, TorusMagicError, dims as make_dims, wrap
from .labeling import Labeling

ODD_ODD = "odd-odd"
EVEN_EVEN = "even-even"


class PlanShapeMismatch(TorusMagicError):
    """No construction covers the grid, or a plan named for it is not its own."""


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


def _uncovered(dims: GridDims) -> str | None:
    """Why no construction covers the grid, or None when one does."""
    if dims.n % 2 != dims.m % 2:
        return "mixed parity"
    if dims.n % 2 and dims.d == 1:
        return "coprime odd"
    return None


def plan_for(dims: GridDims) -> ConstructionPlan:
    """The plan that builds the grid, stated in native orientation n <= m:
    diagonal 1 starts at column d+1 (wrapped into 1..m), diagonal j at
    column j otherwise.  PlanShapeMismatch when no construction covers it.

    Both variants share the start columns: the wrap-around seam between the
    last diagonal and diagonal 1 aligns its exceptional corners only when
    diagonal 1 starts at column d+1.  (On square grids that wraps to
    column 1, so all diagonals start at their own index.)
    """
    reason = _uncovered(dims)
    if reason is not None:
        raise PlanShapeMismatch(f"no construction covers {dims.n}x{dims.m}: {reason}")
    starts = [wrap(dims.d + 1, max(dims.n, dims.m))] + list(range(2, dims.d + 1))
    return ConstructionPlan(ODD_ODD if dims.n % 2 else EVEN_EVEN, tuple(starts))


class ConstructionError(RuntimeError):
    """The label blocks failed to form a bijection onto 1..q: a defect in
    the construction itself, never a property of the input."""


def _role_rows(variant: str, d: int) -> dict[str, slice]:
    """The diagonals that take each row of _ROLES under the variant, as
    slices of the 0-based rows j-1 of the d diagonals: odd j plain, even j
    rotated, except that odd/odd grids make d-1 shifted and d interleaved."""
    if variant == ODD_ODD:
        return {"plain": slice(0, d - 2, 2), "rotated": slice(1, d - 2, 2),
                "shifted": slice(d - 2, d - 1), "interleaved": slice(d - 1, d)}
    return {"plain": slice(0, d, 2), "rotated": slice(1, d, 2)}


@dataclass(frozen=True)
class _Corners:
    """The partial weights one corner kind carries along a diagonal:
    2nm + offset at every step, except at step `exceptional` (1-based,
    from the grid) when given, which carries the kind's exceptional
    weight: 2nm+l for HV-corners, 2nm-l+2 for VH-corners."""

    offset: int
    exceptional: Callable[[GridDims], int] | None = None


@dataclass(frozen=True)
class _Role:
    """One block layout, and the corner weights it promises.

    `orders(k, dims)` maps the steps k = 1..l to two permutations of
    1..l: the rank of h_k in the diagonal's horizontal block counted
    upward, and of v_k in its vertical block counted downward.  `hv` and
    `vh` state the promised weights on their own; the corner audit
    compares measured sums against them, so they are never computed from
    the orders."""

    orders: Callable[[np.ndarray, GridDims], tuple[np.ndarray, np.ndarray]]
    hv: _Corners
    vh: _Corners


def _odd_then_even(k: np.ndarray) -> np.ndarray:
    # 1, 3, ..., l, 2, 4, ..., l-1 for odd l: a block read with stride 2
    return np.concatenate([k[::2], k[1::2]])


_ROLES = {
    # Both blocks in order: h_k + v_k = 2nm+1, v_{k-1} + h_k = 2nm+2, and
    # VH-corner 1 closes the cycle with v_l + h_1 = 2nm-l+2.
    "plain": _Role(
        orders=lambda k, dims: (k, k),
        hv=_Corners(offset=1),
        vh=_Corners(offset=2, exceptional=lambda dims: 1),
    ),
    # The top horizontal label moved to the front: h_1 = jl meets
    # v_1 = 2nm-(j-1)l, and every later h_k is one below its plain value.
    "rotated": _Role(
        orders=lambda k, dims: (np.roll(k, 1), k),
        hv=_Corners(offset=0, exceptional=lambda dims: 1),
        vh=_Corners(offset=1),
    ),
    # Diagonal d-1 (odd/odd only): the rotated layout turned l'+1 steps
    # on, so its exceptional HV-corner faces the exceptional VH-corner of
    # the interleaved last diagonal.
    "shifted": _Role(
        orders=lambda k, dims: (np.roll(k, dims.lp + 2), np.roll(k, dims.lp + 1)),
        hv=_Corners(offset=0, exceptional=lambda dims: dims.lp + 2),
        vh=_Corners(offset=1),
    ),
    # Last diagonal (odd/odd only): both blocks read with stride 2, the
    # horizontal one starting l'+1 steps later, so that its VH-corners
    # absorb the seam back into diagonal 1.
    "interleaved": _Role(
        orders=lambda k, dims: (np.roll(_odd_then_even(k), dims.lp + 1), _odd_then_even(k)),
        hv=_Corners(offset=0, exceptional=lambda dims: 1),
        vh=_Corners(offset=2, exceptional=lambda dims: dims.lp + 2),
    ),
}


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


def _build(dims: GridDims) -> Labeling:
    """Write every diagonal's label blocks (native orientation n <= m).

    Diagonal j takes the labels (j-1)l+1..jl for its horizontal edges and
    q-jl+1..q-(j-1)l for its vertical ones, in the orders of its role.
    Each role's blocks are scattered into the raveled matrices once, for
    all the diagonals of that role."""
    if dims.n > dims.m:
        return _build(make_dims(dims.m, dims.n)).transpose()
    plan = plan_for(dims)
    h_cells, v_cells = diagonal_cells(decompose(dims, list(plan.start_cols)))
    h = np.zeros(dims.n * dims.m, dtype=np.int64)
    v = np.zeros(dims.n * dims.m, dtype=np.int64)
    k = np.arange(1, dims.l + 1)
    below = np.arange(dims.d)[:, None] * dims.l  # labels of the blocks before j
    for name, rows in _role_rows(plan.variant, dims.d).items():
        h_order, v_order = _ROLES[name].orders(k, dims)
        h[h_cells[rows]] = below[rows] + h_order
        v[v_cells[rows]] = dims.q + 1 - below[rows] - v_order
    h, v = h.reshape(dims.n, dims.m), v.reshape(dims.n, dims.m)
    _check_bijection(h, v, dims.q)
    return Labeling(dims, h, v)


def construct(n: int, m: int) -> Labeling | Unsupported:
    """Dispatch to the covering construction, or explain why none applies.

    For n > m the transposed instance is built and flipped back."""
    d = make_dims(n, m)
    reason = _uncovered(d)
    if reason is not None:
        return Unsupported(n, m, reason=reason,
                           suggestion=f"no direct construction; try: search {n} {m}")
    return _build(d)


@dataclass(frozen=True)
class ExpectedCornerTable:
    """Expected partial weight for every corner of every diagonal.

    Row j-1 of hv (vh) holds the HV (VH) weights of diagonal j for steps
    k = 1..l."""

    dims: GridDims
    plan: ConstructionPlan
    hv: np.ndarray = field(repr=False, compare=False)
    vh: np.ndarray = field(repr=False, compare=False)

    @property
    def entries(self) -> dict[CornerPos, int]:
        """Every corner's expected weight, keyed by position."""
        hv, vh = self.hv.tolist(), self.vh.tolist()
        return {CornerPos(j, k, kind): weights[j - 1][k - 1]
                for j in range(1, self.dims.d + 1)
                for k in range(1, self.dims.l + 1)
                for kind, weights in (("HV", hv), ("VH", vh))}


def expected_corner_table(dims: GridDims) -> ExpectedCornerTable:
    """Partial weights the grid's plan promises at each (diagonal, k, kind),
    in native orientation n <= m.

    Within each diagonal at most one HV-corner carries 2nm+l and at most
    one VH-corner carries 2nm-l+2; for every vertex the HV entry of its
    diagonal plus the VH entry of the successor diagonal is 4nm+2.
    """
    plan = plan_for(dims)
    base, l = dims.q, dims.l  # base = 2nm
    hv = np.empty((dims.d, l), dtype=np.int64)
    vh = np.empty((dims.d, l), dtype=np.int64)
    for name, rows in _role_rows(plan.variant, dims.d).items():
        role = _ROLES[name]
        for weights, corners, exceptional in ((hv, role.hv, base + l), (vh, role.vh, base - l + 2)):
            weights[rows] = base + corners.offset
            if corners.exceptional is not None:
                weights[rows, corners.exceptional(dims) - 1] = exceptional
    return ExpectedCornerTable(dims=dims, plan=plan, hv=hv, vh=vh)
