"""Guards for the benchmark tooling that reaches into ctvoter by name."""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _traced_names():
    """(module, attr) of every entry in child.py's `patches` list, read by ast."""
    tree = ast.parse(CHILD.read_text(), filename=str(CHILD))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "patches" for t in node.targets)
        ):
            return [(entry.elts[0].id, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no patches list in {CHILD}")


def test_traced_benchmark_rebinds_only_existing_names():
    names = _traced_names()
    assert ("statics", "enumerate_peels") in names
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"ctvoter.{module}"), attr)
    ]
    assert not missing, f"perfbench/child.py rebinds names ctvoter no longer has: {missing}"
