"""Guards for what reaches into ctvoter by name: the benchmark tooling and the kernel binding."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
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


def test_every_kernel_entry_point_is_typed_with_its_parameter_count():
    """_kernel.load() types each ct_* function of _kernel.c from SIGNATURES;
    a wrong argument count there corrupts memory instead of failing."""
    from ctvoter import _kernel

    found = re.findall(r"^int (ct_\w+)\(([^)]*)\)", _kernel.SOURCE.read_text(), re.M)
    counts = {name: len(params.split(",")) for name, params in found}
    assert counts and counts == {name: len(a) for name, a in _kernel.SIGNATURES.items()}
    lib = _kernel.load()
    assert {name: len(f.argtypes) for name, f in lib.items()} == counts


def test_run_batch_takes_the_two_arguments_the_benchmark_passes():
    """perfbench/child.py replaces experiments._run_batch by a timer,
    timed_batch(tasks, workers), that calls it with those two arguments in
    every benchmark run."""
    from ctvoter import experiments

    params = inspect.signature(experiments._run_batch).parameters.values()
    assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 2


def test_kernel_allocates_nothing():
    """Every buffer _kernel.c touches is the caller's: its code names no
    allocator, and the binding has no out-of-memory code to map."""
    from ctvoter import _kernel

    code = re.sub(r"/\*.*?\*/", "", _kernel.SOURCE.read_text(), flags=re.S)
    assert re.findall(r"\b(?:malloc|calloc|realloc|free)\b", code) == []
    assert not hasattr(_kernel, "NO_MEMORY")


def _is_load_call(node) -> bool:
    """True iff node is a call of _kernel.load() or, inside _kernel, load()."""
    func = node.func if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Attribute):
        return func.attr == "load" and isinstance(func.value, ast.Name) and func.value.id == "_kernel"
    return isinstance(func, ast.Name) and func.id == "load"


def test_one_event_loop_in_the_package():
    """The compiled kernel is the package's only event loop: dynamics imports
    no random and names neither expovariate nor randrange, and no function
    under src/ctvoter compares _kernel.load(), or a name bound to it, with
    None. Read by ast, so comments and docstrings do not count."""
    from ctvoter import _kernel, dynamics

    tree = ast.parse(Path(inspect.getsourcefile(dynamics)).read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "random" not in imported
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"expovariate", "randrange"}
    checks = []
    for path in sorted(Path(_kernel.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = {
                t.id
                for n in ast.walk(fn)
                if isinstance(n, ast.Assign) and _is_load_call(n.value)
                for t in n.targets
                if isinstance(t, ast.Name)
            }
            for n in ast.walk(fn):
                if not isinstance(n, ast.Compare):
                    continue
                sides = [n.left, *n.comparators]
                if any(isinstance(x, ast.Constant) and x.value is None for x in sides) and any(
                    _is_load_call(x) or isinstance(x, ast.Name) and x.id in bound for x in sides
                ):
                    checks.append(f"{path.name}:{n.lineno} in {fn.name}")
    assert checks == []


def _calls_by_function(tree):
    """{function name: the names it calls and the string literals it holds,
    f-string pieces included}, for every function of tree."""
    found = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            names = found.setdefault(fn.name, set())
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    names.add(node.func.id)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return found


def test_only_run_grid_checks_the_grid():
    """experiments._run_grid checks the grid before it builds the graph and
    checks its connectivity; no driver repeats any of it, and none checks a
    threshold itself."""
    from ctvoter import experiments

    source = Path(inspect.getsourcefile(experiments)).read_text()
    found = _calls_by_function(ast.parse(source))
    grid_checks = {"_check_grid", "duplicate threshold in ", "reps must be >= 1"}
    assert {f for f, names in found.items() if names & grid_checks} == {"_run_grid"}
    assert {f for f, names in found.items() if "is_connected" in names} == {
        "_run_grid",
        "run_replicate",
    }
    assert [f for f, names in found.items() if "check_epsilon" in names] == []


def test_statics_and_cli_state_each_rule_once():
    """statics writes the complete-graph index min(n, ceil(1/eps)) in
    complete_index alone, with no Fraction of its own (the comparison witness
    also takes ceil(1/eps) for its level spacing); in cli only simulate,
    index and consensus read a graph, as coexistence and sweep take the
    sizes their drivers build from."""
    from ctvoter import cli, statics

    tree = ast.parse(Path(inspect.getsourcefile(statics)).read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)}
    assert "Fraction" not in names
    found = _calls_by_function(tree)
    assert {f for f, calls in found.items() if "ceil_recip" in calls} == {
        "complete_index",
        "_complete_comparison_witness",
    }
    found = _calls_by_function(ast.parse(Path(inspect.getsourcefile(cli)).read_text()))
    assert {f for f, calls in found.items() if "_resolve_graph" in calls} == {
        "_cmd_simulate",
        "_cmd_index",
        "_cmd_consensus",
    }


def test_only_the_exact_chromatic_number_runs_the_colouring_search():
    """Within src/ctvoter only graphs.chromatic_number_exact calls
    _k_coloring, and no other module names it: the exact index maximises
    components over K-part maps and runs no colouring search of its own."""
    from ctvoter import graphs

    callers = set()
    for path in sorted(Path(graphs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)}
        assert path.name == "graphs.py" or "_k_coloring" not in names, path.name
        found = _calls_by_function(tree)
        callers |= {f"{path.stem}.{f}" for f, calls in found.items() if "_k_coloring" in calls}
    assert callers == {"graphs.chromatic_number_exact"}


def test_bits_are_counted_one_way_and_the_peel_size_rule_lives_in_one_place():
    """No module of src/ctvoter calls bin(), so every bit count is
    int.bit_count(); within statics only clique_upper_bound names
    PEEL_ENUM_LIMIT, so it alone picks the exact or the greedy peel."""
    from ctvoter import graphs, statics

    for path in sorted(Path(graphs.__file__).parent.glob("*.py")):
        lines = [
            n.lineno
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "bin"
        ]
        assert lines == [], path.name
    tree = ast.parse(Path(inspect.getsourcefile(statics)).read_text())
    naming = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "PEEL_ENUM_LIMIT" for n in ast.walk(fn))
    }
    assert naming == {"clique_upper_bound"}


NO_NUMPY_RANDOM = """
import sys
from ctvoter import SimParams, path_graph, random_initial, simulate_coupled

g = path_graph(50)
result = simulate_coupled(g, random_initial(g, 1), SimParams(0.3, 2))
assert result.census_trace
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


def test_compiled_run_never_imports_numpy_random():
    """random_initial draws through the kernel, so a compiled run skips
    numpy.random's import (7 to 10 ms of a large graph's set-up)."""
    from ctvoter import _kernel

    src = Path(_kernel.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
