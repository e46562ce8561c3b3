import ast
import graphlib
from pathlib import Path

import pytest

import engagekit


def test_package_imports_form_no_cycle():
    # Every relative import, function-local ones included: a module that
    # must defer an import to run time is a cycle the graph shows.
    graph = {}
    for path in sorted(Path(engagekit.__file__).parent.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= ({node.module.split(".")[0]} if node.module
                         else {alias.name for alias in node.names})
        graph[path.stem] = deps
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
