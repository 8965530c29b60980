"""The package's public surface against its callers.

The demos and the benchmark reach names as `torusmagic.X`; the
benchmark's tracer patches module attributes by dotted module name; the
README documents `__all__`.  Each test fails if trimming the package
breaks one of them.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import torusmagic
import torusmagic.cli  # noqa: F401  (the benchmark imports it the same way)

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def used_names(path):
    text = path.read_text(encoding="utf-8")
    names = set(re.findall(r"\b(?:tm|torusmagic)\.([A-Za-z_]\w*)", text))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.module == "torusmagic":
            names.update(alias.name for alias in node.names)
    return names


def test_callers_find_every_name_they_use():
    used = {(path.name, name) for path in CALLERS for name in used_names(path)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used |= {("README.md", name) for name in re.findall(r"\btm\.([A-Za-z_]\w*)", readme)}
    assert {"construct", "search", "decode", "EdgeRef", "FOUND"} <= {name for _, name in used}
    assert [(where, name) for where, name in sorted(used) if not hasattr(torusmagic, name)] == []


def test_tracer_patches_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for module_name, attr, _ in spans.PATCHES:
        module = importlib.import_module(module_name)
        assert module.__name__ == module_name
        assert callable(getattr(module, attr)), (module_name, attr)


def documented_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    return [name for line in bullets for name in re.findall(r"`([A-Za-z_]\w*)`", line)]


def test_all_is_the_documented_list():
    documented = documented_names()
    assert len(documented) == len(set(documented))
    assert sorted(torusmagic.__all__) == sorted(documented)
    assert all(hasattr(torusmagic, name) for name in torusmagic.__all__)


def test_every_exported_exception_is_typed():
    # every exported exception but the construction's own defect signal
    # is an input error the CLI maps to exit 1
    for name in torusmagic.__all__:
        obj = getattr(torusmagic, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            if name == "ConstructionError":
                assert issubclass(obj, RuntimeError)
                assert not issubclass(obj, ValueError)
            else:
                assert issubclass(obj, torusmagic.TorusMagicError), name


def names_in(text):
    """Every name a module reads: bare names, attributes and import aliases."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_definition_has_a_caller():
    # a function, class or method that nothing in the package, the demos,
    # the benchmark or the README reaches exists only for the tests
    package = sorted((ROOT / "src" / "torusmagic").glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = [path.read_text(encoding="utf-8") for path in package + CALLERS]
    sources += re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    used = set().union(*map(names_in, sources))
    defined = {(path.name, node.name) for path in package
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    assert sorted((where, name) for where, name in defined if name not in used) == []


def test_no_check_rests_on_assert_or_a_raised_recursion_limit():
    # python -O strips every assert, and a raised recursion limit hides a
    # walk that should not recurse; the package and the demos use neither
    paths = sorted((ROOT / "src" / "torusmagic").glob("*.py"))
    paths += sorted((ROOT / "demos").glob("*.py"))
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Call)
                    and ast.unparse(node.func).rpartition(".")[2] == "setrecursionlimit"):
                found.append((path.name, node.lineno))
    assert found == []
