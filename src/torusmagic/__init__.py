"""Supermagic labelings of torus grids C_n x C_m.

A supermagic labeling assigns the numbers 1..q bijectively to the q = 2nm
edges so that the four labels at every vertex sum to the same constant,
necessarily 4nm+2.  The package provides:

  * direct constructions for odd n,m with gcd(n,m) > 1 and for even n,m,
    built diagonal by diagonal (`construct`);
  * a verifier for arbitrary labelings and a corner-level audit of the
    construction's partial weights (`verify`, `audit_corners`);
  * the diagonal cycle decomposition underlying the constructions
    (`decompose`, `diagonal_of_edge`);
  * an exact backtracking search with unit propagation for the shapes the
    constructions do not cover (`search`, `enumerate_completions`);
  * JSON/edge-list serialization, DOT/SVG figures, and a command-line
    front end (`encode`, `decode`, `render`, console script `torusmagic`).
"""

from .construct import (
    ConstructionError,
    PlanShapeMismatch,
    construct,
    expected_corner_table,
    plan_for,
)
from .diagonals import InvalidStartColumn, decompose, diagonal_of_edge
from .grid import DimensionTooSmall, EdgeRef, TorusMagicError, dims
from .labeling import DomainMismatch
from .render import RenderSpec, RenderTooLarge, render
from .search import FOUND, SearchConfig, SearchTooLarge, enumerate_completions, search
from .serialize import ParseError, ShapeError, decode, encode
from .verify import audit_corners, forced_constant, verify, weight_matrix

__version__ = "0.1.0"

# What the README, the demos and the benchmark reach as torusmagic.X, plus
# the exceptions those calls raise.  Everything else is imported from its
# submodule.
__all__ = [
    "FOUND",
    "EdgeRef",
    "RenderSpec",
    "SearchConfig",
    "audit_corners",
    "construct",
    "decode",
    "decompose",
    "diagonal_of_edge",
    "dims",
    "encode",
    "enumerate_completions",
    "expected_corner_table",
    "forced_constant",
    "plan_for",
    "render",
    "search",
    "verify",
    "weight_matrix",
    # exceptions
    "TorusMagicError",
    "ConstructionError",
    "DimensionTooSmall",
    "DomainMismatch",
    "InvalidStartColumn",
    "ParseError",
    "PlanShapeMismatch",
    "RenderTooLarge",
    "SearchTooLarge",
    "ShapeError",
]
