import ast
import graphlib
import sys
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


def test_runtime_imports_are_numpy_and_the_standard_library():
    """numpy is the only runtime dependency: every import under the package,
    function-local ones included, is relative, numpy or a standard-library
    module."""
    foreign = []
    for path in sorted(Path(engagekit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not foreign, f"imports outside numpy and the standard library: {foreign}"
