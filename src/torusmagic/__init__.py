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

Names load on first use (PEP 562): `import torusmagic` imports no
submodule, and `torusmagic.X` imports only the submodule that defines X
and what that submodule imports.  `torusmagic.construct`, `.render`,
`.search` and `.verify` are always the functions, never the submodules of
the same names, whatever was imported first; `importlib.import_module`
reaches a submodule.
"""

import importlib
import sys
from types import ModuleType

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

# The submodule that defines each name in __all__.
_HOME = {
    name: module
    for module, names in {
        "construct": ["ConstructionError", "PlanShapeMismatch", "construct",
                      "expected_corner_table", "plan_for"],
        "diagonals": ["InvalidStartColumn", "decompose", "diagonal_of_edge"],
        "grid": ["DimensionTooSmall", "EdgeRef", "TorusMagicError", "dims"],
        "labeling": ["DomainMismatch"],
        "render": ["RenderSpec", "RenderTooLarge", "render"],
        "search": ["FOUND", "SearchConfig", "SearchTooLarge", "enumerate_completions", "search"],
        "serialize": ["ParseError", "ShapeError", "decode", "encode"],
        "verify": ["audit_corners", "forced_constant", "verify", "weight_matrix"],
    }.items()
    for name in names
}
_SUBMODULES = {*_HOME.values(), "cli"}


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # Importing torusmagic.search binds the submodule onto the package
        # as `search`; the function of that name keeps the attribute.
        if name in _HOME and value is sys.modules.get(f"{__name__}.{name}"):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
