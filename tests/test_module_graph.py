"""The package's import graph: imports at module level only, and no cycle.

An import inside a function hides a dependency from the module header and
can close a cycle that the header order would not allow.
"""

import ast
import graphlib
from pathlib import Path

import thetalab

PACKAGE = Path(thetalab.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_import_inside_a_function():
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in _modules().items()
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not found


def test_intra_package_imports_form_no_cycle():
    graph = {}
    for name, tree in _modules().items():
        deps = graph.setdefault(name, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # "from .x import y" depends on x, "from . import x" on x
                deps.update([node.module] if node.module else
                            [alias.name for alias in node.names])
    assert graph["polynomials"] == {"errors"}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
