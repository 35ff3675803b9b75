"""The compiled event loop against the Python reference loop, and its build.

Every comparison is bit for bit: the report JSON (floats written by repr),
the final opinions' and weights' bytes, and the census trace. The build tests
point the library cache at a temporary directory and break the compiler or
the loader to check the fallback and the reuse of a cached build.
"""

import json
import logging
import math
import os
import shutil
import subprocess
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

from ctvoter import (
    SimParams,
    complete_graph,
    cycle_graph,
    make_graph,
    path_graph,
    random_initial,
    simulate,
    simulate_coupled,
    spawn_seed,
    torus_graph,
)
from ctvoter import _kernel

import test_golden
from conftest import GOLDEN_CASES, golden_run, petersen_graph, small_graph_family

EPS = (
    0.0,
    0.2,
    1 / 3,
    math.nextafter(1 / 3, 0.0),
    math.nextafter(1 / 3, 1.0),
    0.5,
    math.nextafter(0.5, 0.0),
    math.nextafter(0.5, 1.0),
    0.75,
    1.0,
)
# (t_max, max_events): absorption, t_max 0 / small / inf, max_events 0, 1, 2**k - 1, 2**k
STOPS = (
    (None, None),
    (0.0, None),
    (0.3, None),
    (math.inf, None),
    (None, 0),
    (None, 1),
    (None, 7),
    (None, 8),
    (None, 63),
    (None, 64),
    (2.0, 100),
)
GRAPHS = {
    "single": make_graph(1, []),
    "path:12": path_graph(12),
    "cycle:15": cycle_graph(15),
    "torus:5x6": torus_graph(5, 6),
    "complete:9": complete_graph(9),
    "petersen": petersen_graph(),
}


@pytest.fixture
def compiled():
    if _kernel.load() is None:
        pytest.skip("compiled event kernel unavailable")


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty library cache; load() forgets its result before and after."""
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
    _kernel.load.cache_clear()
    yield tmp_path
    _kernel.load.cache_clear()


def _initial(g, seed: int) -> np.ndarray:
    """Uniform opinions, or (odd seeds) opinions on a grid of k/q, so that
    differences land on and next to round thresholds."""
    if seed % 2 == 0:
        return random_initial(g, seed)
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 7))
    return rng.integers(0, q + 1, g.n_vertices) / q


def _outputs(g, init, params) -> tuple:
    plain = simulate(g, init, params)
    coupled = simulate_coupled(g, init, params)
    return (
        json.dumps(plain.to_dict()),
        plain.final_opinions.tobytes(),
        json.dumps(coupled.report.to_dict()),
        coupled.weights.tobytes(),
        coupled.census_trace,
    )


def _assert_backends_agree(monkeypatch, g, init, params):
    compiled_out = _outputs(g, init, params)
    with monkeypatch.context() as m:
        m.setattr(_kernel, "load", lambda: None)
        python_out = _outputs(g, init, params)
    assert compiled_out == python_out, (params, list(init))


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("eps", EPS, ids=repr)
def test_named_graphs(compiled, monkeypatch, name, eps):
    g = GRAPHS[name]
    for seed in range(4):
        init = _initial(g, spawn_seed(seed, 0))
        for t_max, max_events in STOPS:
            params = SimParams(eps, spawn_seed(seed, 1), t_max=t_max, max_events=max_events)
            _assert_backends_agree(monkeypatch, g, init, params)


def test_small_graph_family(compiled, monkeypatch):
    for k, (_, g) in enumerate(small_graph_family()):
        for eps in (0.2, 1 / 3, 0.5, 0.75, 1.0):
            for seed in range(3):
                init = _initial(g, spawn_seed(k, seed))
                _assert_backends_agree(monkeypatch, g, init, SimParams(eps, seed))


def test_many_seeds_on_torus(compiled, monkeypatch):
    g = torus_graph(8, 8)
    for seed in range(40):
        init = _initial(g, seed)
        eps = (0.2, 1 / 3, 0.5, 0.6, 1.0)[seed % 5]
        _assert_backends_agree(monkeypatch, g, init, SimParams(eps, seed, t_max=5.0))


def test_golden_cases_agree(compiled, monkeypatch):
    for case in GOLDEN_CASES:
        _assert_backends_agree(monkeypatch, *golden_run(case))


def test_weights_must_match_the_graph(compiled):
    from ctvoter.dynamics import _run_events

    g = path_graph(4)
    with pytest.raises(ValueError, match="float64"):
        _run_events(g, [0.1, 0.2, 0.3, 0.4], SimParams(0.5, 1), weights=np.zeros(2))


def test_cache_name_follows_source_and_flags(tmp_path, monkeypatch):
    base = _kernel.library_path()
    assert base.parent == _kernel.CACHE_DIR and base == _kernel.library_path()
    monkeypatch.setattr(_kernel, "FLAGS", _kernel.FLAGS + ("-g",))
    assert _kernel.library_path() != base
    monkeypatch.undo()
    edited = tmp_path / "_kernel.c"
    edited.write_bytes(_kernel.SOURCE.read_bytes() + b"\n")
    monkeypatch.setattr(_kernel, "SOURCE", edited)
    assert _kernel.library_path() != base


@pytest.mark.parametrize(
    "breakage", ["source missing", "compiler missing", "compiler fails", "loader fails"]
)
def test_fallback_gives_golden_digests(fresh_cache, monkeypatch, caplog, breakage):
    if breakage == "source missing":
        monkeypatch.setattr(_kernel, "SOURCE", fresh_cache / "no-such-source.c")
    elif breakage == "compiler missing":
        monkeypatch.setattr(_kernel, "COMPILER", str(fresh_cache / "no-such-cc"))
    elif breakage == "compiler fails":
        monkeypatch.setattr(_kernel, "FLAGS", _kernel.FLAGS + ("-no-such-flag",))
    else:
        def refuse(path):
            raise OSError(f"cannot load {path}")

        monkeypatch.setattr(_kernel.ctypes, "CDLL", refuse)
    with caplog.at_level(logging.WARNING, logger=_kernel.__name__):
        for case, digests in zip(GOLDEN_CASES, test_golden.DIGESTS):
            test_golden.test_golden_digests(case, digests)
    assert _kernel.load() is None
    warnings = [r for r in caplog.records if r.name == _kernel.__name__]
    assert len(warnings) == 1 and "Python loop" in warnings[0].getMessage()


def test_cached_library_is_reused(fresh_cache, monkeypatch):
    if shutil.which(_kernel.COMPILER) is None:
        pytest.skip("no C compiler")
    assert _kernel.load() is not None
    (built,) = fresh_cache.glob("_kernel-*.so")
    stamp = built.stat().st_mtime_ns
    _kernel.load.cache_clear()
    monkeypatch.setattr(_kernel, "COMPILER", str(fresh_cache / "no-such-cc"))
    assert _kernel.load() is not None
    assert [p.name for p in fresh_cache.iterdir()] == [built.name]
    assert built.stat().st_mtime_ns == stamp


def _build_and_run(cache_dir: str) -> str:
    _kernel.CACHE_DIR = Path(cache_dir)
    if _kernel.load() is None:
        return "unavailable"
    g = torus_graph(6, 6)
    report = simulate(g, random_initial(g, 1), SimParams(0.5, 2, t_max=3.0))
    return json.dumps(report.to_dict())


def test_concurrent_builds_share_one_cache(fresh_cache):
    if shutil.which(_kernel.COMPILER) is None:
        pytest.skip("no C compiler")
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(_build_and_run, str(fresh_cache)) for _ in range(2)]
        results = [f.result(timeout=120) for f in futures]
    assert results[0] == results[1] != "unavailable"
    assert [p.name for p in fresh_cache.iterdir()] == [_kernel.library_path().name]


def test_source_compiles_without_warnings(tmp_path):
    if shutil.which(_kernel.COMPILER) is None:
        pytest.skip("no C compiler")
    out = tmp_path / "kernel.so"
    cmd = [_kernel.COMPILER, "-Wall", "-Wextra", "-Werror", *_kernel.FLAGS]
    result = subprocess.run(
        [*cmd, "-o", str(out), str(_kernel.SOURCE), *_kernel.LIBS],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert os.path.getsize(out) > 0
