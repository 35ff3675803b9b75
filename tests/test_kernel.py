"""The compiled event loop against the Python reference loop, and its build.

Every comparison is bit for bit: the report JSON (floats written by repr),
the final opinions' and weights' bytes, and the census trace, against the
loop of tests/reference_loop.py. The build tests point the library cache at
a temporary directory and break the source, the compiler or the loader to
check the refusal and the reuse of a cached build; one runs the comparisons
again on a build instrumented by AddressSanitizer.
"""

import array
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctvoter import (
    SimParams,
    complete_graph,
    cycle_graph,
    is_absorbing,
    make_graph,
    path_graph,
    random_initial,
    replay,
    simulate,
    simulate_coupled,
    spawn_seed,
    torus_graph,
)
from ctvoter import _kernel, dynamics, edge_process, experiments, graphs
from ctvoter.common import MASK64, ceil_recip
from ctvoter.dynamics import DEFAULT_MAX_EVENTS, _live

import reference_loop
from conftest import (
    GOLDEN_CASES,
    golden_run,
    petersen_graph,
    random_connected_graph,
    small_graph_family,
)

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


@pytest.fixture(scope="module")
def compiled():
    """The kernel, built and loaded; a build that fails fails the test."""
    return _kernel.load()


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
        reference_loop.use(m)
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


# Pairs whose difference rounds onto eps while the exact difference is below
# it: the two vertices must interact.
EXACT_LIVENESS_CASES = (([1.0, 2**-60], 1.0), ([0.75, 2**-58], 0.75))


@pytest.mark.parametrize("init, eps", EXACT_LIVENESS_CASES, ids=repr)
def test_exact_liveness_cases(compiled, monkeypatch, init, eps):
    for g in (path_graph(2), path_graph(3)):
        ops = (init + init)[: g.n_vertices]
        for seed in range(3):
            params = SimParams(eps, seed)
            _assert_backends_agree(monkeypatch, g, ops, params)
            assert simulate(g, ops, params).events > 0


def _exactly_live(a: float, b: float, eps: float) -> bool:
    d = Fraction(a) - Fraction(b)
    return d != 0 and abs(d) < Fraction(eps)


def _near(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


TINY = st.sampled_from([0.0, 5e-324, 3 * 5e-324, 2**-1022, 2**-60, 2**-58, 2**-54, 3 * 2**-55])
EPS_ST = st.sampled_from([1.0, 0.75, 0.5, 1 / 3, 0.2]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    eps=EPS_ST,
    b=TINY | st.floats(0.0, 2**-40) | st.floats(0.0, 1.0),
    steps=st.integers(-2, 2),
    swap=st.booleans(),
)
def test_liveness_matches_exact_oracle(compiled, eps, b, steps, swap):
    """_live, is_absorbing, replay and both event loops against Fraction arithmetic."""
    a = _near(b + eps, steps)
    if not 0.0 <= a <= 1.0:
        a = _near(b - eps, steps)
    if not 0.0 <= a <= 1.0:
        return
    u, v = (b, a) if swap else (a, b)
    live = _exactly_live(u, v, eps)
    g = path_graph(2)
    assert _live(u, v, eps) is live
    assert is_absorbing(g, [u, v], eps) is not live
    moved = replay(g, [u, v], eps, [(0, 1)]).final_opinions.tolist()
    assert moved == ([u, u] if live else [u, v])
    params = SimParams(eps, 1, max_events=1)
    assert simulate(g, [u, v], params).events == live
    with pytest.MonkeyPatch.context() as m:
        reference_loop.use(m)
        assert simulate(g, [u, v], params).events == live


@pytest.mark.parametrize("seed", [0, 1, -3, 2**32 - 1, 2**32, 2**64 - 1, 2**100])
def test_kernel_seeds_like_random(compiled, monkeypatch, seed):
    """The kernel's MT19937 state after seeding is random.Random(seed)'s; a
    seed outside [0, 2**64) is refused before any run."""
    if not 0 <= seed < 2**64:
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            SimParams(0.5, seed, max_events=0)
        return
    states = _spy_generator_words(monkeypatch)
    simulate(make_graph(1, []), [0.5], SimParams(0.5, seed, max_events=0))
    assert states == [(0, random.Random(seed).getstate()[1])]


def _spy_generator_words(monkeypatch) -> list:
    """(events, generator words) after each ct_run_events call: the run's work
    buffer ends in the generator state, 624 words and the position, after
    2 * n_edges words."""
    lib, states = _kernel.load(), []

    def spy(address):
        code = lib["ct_run_events"](address)
        run = _kernel.Run.from_address(address)
        words = (ctypes.c_uint32 * 625).from_address(run.work + 8 * run.n_edges)
        states.append((run.events, tuple(words)))
        return code

    monkeypatch.setattr(_kernel, "load", lambda: {**lib, "ct_run_events": spy})
    return states


def _spy_untils(monkeypatch) -> list:
    """The event count `until` that each ct_run_events call may run to."""
    lib, untils = _kernel.load(), []

    def spy(address):
        untils.append(_kernel.Run.from_address(address).until)
        return lib["ct_run_events"](address)

    monkeypatch.setattr(_kernel, "load", lambda: {**lib, "ct_run_events": spy})
    return untils


def test_one_kernel_call_per_replicate(compiled, monkeypatch):
    """One call without a hook, plain or coupled: the kernel keeps the census
    itself and never pauses at a trace point."""
    untils = _spy_untils(monkeypatch)
    g = path_graph(20)
    init = random_initial(g, 1)
    report = simulate(g, init, SimParams(0.75, 2))
    assert untils == [DEFAULT_MAX_EVENTS] and len(report.opinion_trace) > 5
    untils.clear()
    simulate(g, init, SimParams(0.75, 2, max_events=7))
    assert untils == [7]
    untils.clear()
    coupled = simulate_coupled(g, init, SimParams(0.75, 2))
    assert untils == [DEFAULT_MAX_EVENTS]
    points = [k for _, k, _ in coupled.census_trace]
    assert [t for t, _, _ in coupled.census_trace] == [t for t, _ in report.opinion_trace]
    assert points == [0] + [1 << j for j in range(len(points) - 2)] + [report.events]


def _unspawn(seed: int, index: int = 0) -> int:
    """The master m with spawn_seed(m, index) == seed: SplitMix64's output function undone."""

    def unshift(z: int, k: int) -> int:  # inverse of z ^ (z >> k)
        r = z
        for _ in range(64 // k):
            r = z ^ (r >> k)
        return r

    z = unshift(seed, 31) * pow(0x94D049BB133111EB, -1, 2**64) & MASK64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK64
    return (unshift(z, 30) - (index + 1) * 0x9E3779B97F4A7C15) & MASK64


def _kernel_draw(n: int, seed: int) -> bytes:
    """The kernel's initial draw from seed: the final opinions of a batch
    replicate at eps 0, where no edge is live and no event runs."""
    cell = (path_graph(n), 0.0, None, 0, [_unspawn(seed)], True)
    ((record, final),) = experiments._run_chunk(cell)
    assert record.events == 0 and record.stop_reason == "absorbed"
    return array.array("d", final).tobytes()


DRAW_SIZES = (1, 2, 20, 4097)


def _numpy_draw(n: int, seed) -> bytes:
    return np.random.default_rng(seed).random(n).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_batch_draw_is_numpys(compiled, seed):
    assert spawn_seed(_unspawn(seed), 0) == seed
    for n in DRAW_SIZES:
        assert _kernel_draw(n, seed) == _numpy_draw(n, seed)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.sampled_from(DRAW_SIZES))
def test_batch_draw_is_numpys_for_any_seed(compiled, seed, n):
    assert _kernel_draw(n, seed) == _numpy_draw(n, seed)


@pytest.mark.parametrize("n", [1, 2, 20000])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64])
def test_random_initial_is_numpys(compiled, seed, n):
    """The kernel's draw below 2**64 (one or two seed words); 2**64 is refused."""
    if seed == 2**64:
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            random_initial(path_graph(n), seed)
        return
    assert random_initial(path_graph(n), seed).tobytes() == _numpy_draw(n, seed)


def test_random_initial_rejects_a_negative_seed_as_numpy_does(compiled):
    """NumPy refuses a negative seed with ValueError, and so does
    random_initial, with the message of every seed outside [0, 2**64)."""
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\*\*64\), got -1$"):
        random_initial(path_graph(3), -1)


@pytest.mark.parametrize("seed", [2**32 - 1, 2**32, 2**64 - 1])
def test_seed_word_edges_agree(compiled, monkeypatch, seed):
    """simulate gives the same report on both backends, initial draw
    included, at the ends of one and of two seed words."""
    g = GRAPHS["torus:5x6"]

    def report() -> str:
        return json.dumps(simulate(g, random_initial(g, seed), SimParams(0.75, seed)).to_dict())

    kernel = report()
    reference_loop.use(monkeypatch)
    assert report() == kernel


BATCH_EPS = (0.0, 0.3, 1 / 3, 0.5, 0.75, 1.0)
BATCH_T_MAX = (None, 0.0, 20.0)
# ct_run_replicates seeds replicates in blocks of 4 lanes: 8 fills two
# blocks, and 1, 2, 9 and 37 end in a partial one
BATCH_REPS = (1, 2, 8, 9, 37)


def _worker_tasks(g, grid, t_max, reps, master=5):
    """The _replicate_worker task of each replicate of
    _run_grid(lambda: g, grid, reps, master, ...)."""
    return [
        (g, eps, k * reps + r, spawn_seed(master, k * reps + r), t_max, r == 0)
        for k, eps in enumerate(grid)
        for r in range(reps)
    ]


def _comparable(results):
    """Records without their wall times, and the finals' bytes."""
    return [
        (dataclasses.replace(rec, wall_time=0.0), None if fin is None else array.array("d", fin))
        for rec, fin in results
    ]


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("eps", BATCH_EPS, ids=repr)
def test_batch_matches_replicate_worker(compiled, name, eps):
    """One kernel call per threshold gives the records and the first final
    of one run_replicate per replicate."""
    g = GRAPHS[name]
    for t_max in BATCH_T_MAX:
        for reps in BATCH_REPS:
            batch = _comparable(experiments._run_grid(lambda: g, (eps,), reps, 5, 1, t_max))
            tasks = _worker_tasks(g, (eps,), t_max, reps)
            assert batch == _comparable(map(experiments._replicate_worker, tasks))
            assert batch[0][1] is not None and all(fin is None for _, fin in batch[1:])


# event seeds of one and of two 32-bit words, at the ends of each length
KEY_SEEDS = (2**32, 0, 2**64 - 1, 1, 2**32 - 1)


@pytest.mark.parametrize("name", ["path:12", "torus:5x6"])
def test_batch_key_lengths_in_one_lane_block(compiled, name):
    """Replicates whose event seeds spawn_seed(seed, 1) have one and two key
    words, mixed within each block of lanes, against _replicate_worker."""
    g = GRAPHS[name]
    seeds = [_unspawn(s, 1) for s in KEY_SEEDS + KEY_SEEDS[::-1]]
    assert [spawn_seed(s, 1) for s in seeds[:5]] == list(KEY_SEEDS)
    for eps in (0.3, 0.75):
        for t_max in (None, 20.0):
            batch = _comparable(experiments._run_chunk((g, eps, t_max, 0, seeds, True)))
            tasks = [(g, eps, r, s, t_max, r == 0) for r, s in enumerate(seeds)]
            assert batch == _comparable(map(experiments._replicate_worker, tasks))
            assert sum(rec.events for rec, _ in batch) > 0


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_clock_free_batch_matches_clocked(compiled, name):
    """A batch to absorption skips the clock (t_max None); with a t_max that
    never binds it keeps the clock, and the records are the same."""
    g = GRAPHS[name]
    for eps in (0.3, 0.75):
        free, clocked = (
            _comparable(experiments._run_grid(lambda: g, (eps,), 9, 5, 1, t_max))
            for t_max in (None, 1e300)
        )
        assert free == clocked


def test_pooled_batch_matches_serial(compiled):
    """Pooled, each threshold's 37 replicates run in cells of 27 and 10."""
    for name in sorted(GRAPHS):
        for t_max in BATCH_T_MAX:
            g = GRAPHS[name]
            serial, pooled = (
                _comparable(experiments._run_grid(lambda: g, BATCH_EPS, 37, 5, workers, t_max))
                for workers in (1, 2)
            )
            assert pooled == serial
            tasks = _worker_tasks(g, BATCH_EPS, t_max, 37)
            assert serial == _comparable(map(experiments._replicate_worker, tasks))


@pytest.mark.parametrize("backend", ["kernel", "python_loop"])
def test_pooled_batch_pickles_no_graph(compiled, monkeypatch, request, backend):
    """The workers share the caller's graph: with pickling a Graph made to
    fail, a grid asked for three workers, which the pool caps at the CPU
    count, each graph built afresh, still gives the serial records."""
    if backend == "python_loop":
        request.getfixturevalue(backend)

    def no_pickle(self):
        raise AssertionError("a Graph was pickled")

    monkeypatch.setattr(graphs.Graph, "__reduce__", no_pickle)
    pooled, serial = (
        _comparable(experiments._run_grid(lambda: torus_graph(5, 4), BATCH_EPS, 9, 5, w, 3.0))
        for w in (3, 1)
    )
    assert pooled == serial


@pytest.mark.parametrize("cores", [2, None])
def test_pool_is_capped_at_the_cpu_count(compiled, monkeypatch, cores):
    """A million workers make a pool of at most the CPU count (one thread
    when the count is unknown), whose cells give the serial records."""
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    pool, sizes = experiments.ThreadPoolExecutor, []

    def spy(max_workers):
        assert max_workers <= (cores or 1), "the pool was not capped"
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", spy)
    g = GRAPHS["torus:5x6"]
    capped, serial = (
        _comparable(experiments._run_grid(lambda: g, (0.3, 0.75), 9, 5, w, 3.0)) for w in (10**6, 1)
    )
    assert capped == serial and sizes == [cores or 1, 1]


def _spy_batches(monkeypatch) -> list:
    lib, calls = _kernel.load(), []

    def spy(address, seeds, reps, out, final):
        calls.append(reps)
        return lib["ct_run_replicates"](address, seeds, reps, out, final)

    monkeypatch.setattr(_kernel, "load", lambda: {**lib, "ct_run_replicates": spy})
    return calls


def test_one_kernel_call_per_threshold(compiled, monkeypatch):
    calls = _spy_batches(monkeypatch)
    experiments.consensus_experiment(path_graph(20), 0.75, 50, 1)
    assert calls == [50]
    calls.clear()
    experiments.sweep_experiment(3, 4, (0.2, 0.5, 1.0), 5.0, 7, 1)
    assert calls == [7, 7, 7]


def _spy_compute(monkeypatch, request, backend) -> list:
    """The batch kernel's and the replicate worker's calls on `backend`; a
    worker pool, which every batch starts, serial or not, fails the test as
    it starts."""
    calls = _spy_batches(monkeypatch)
    if backend == "python_loop":
        request.getfixturevalue(backend)
    monkeypatch.setattr(experiments, "_replicate_worker", calls.append)

    def no_pool(*args, **kwargs):
        pytest.fail("a worker pool started before the grid was checked")

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
    return calls


@pytest.mark.parametrize("backend", ["kernel", "python_loop"])
def test_batch_rejects_before_any_compute(compiled, monkeypatch, request, backend):
    """A bad threshold anywhere in the grid, the last one included, raises
    before the first replicate runs or a pool starts, serial and pooled."""
    calls = _spy_compute(monkeypatch, request, backend)
    g = path_graph(3)
    cases = {
        "connected graph": (make_graph(4, [(0, 1), (2, 3)]), (0.5, 0.75), None),
        "t_max": (g, (0.5, 0.75), -1.0),
        "epsilon": (g, (0.5, 0.75, 1.5), None),
    }
    for workers in (1, 2):
        for message, (graph, grid, t_max) in cases.items():
            with pytest.raises(ValueError, match=message):
                experiments._run_grid(lambda: graph, grid, 3, 1, workers, t_max)
        with pytest.raises(ValueError, match="epsilon"):
            experiments.sweep_experiment(8, 8, (0.2, 1.5), 5.0, 3, 1, workers)
    assert calls == []


@pytest.mark.parametrize("backend", ["kernel", "python_loop"])
def test_drivers_reject_bad_reps_and_workers(compiled, monkeypatch, request, backend):
    """Every driver refuses reps < 1 and workers < 1 before any replicate runs."""
    calls = _spy_compute(monkeypatch, request, backend)
    g = path_graph(5)
    drivers = (
        lambda reps, workers: experiments.consensus_experiment(g, 0.75, reps, 1, workers),
        lambda reps, workers: experiments.coexistence_experiment(5, 0.1, reps, 1, workers),
        lambda reps, workers: experiments.degree_bound_check(g, 0.1, reps, 1, workers),
        lambda reps, workers: experiments.sweep_experiment(3, 3, (0.5,), 1.0, reps, 1, workers),
    )
    bad = (("reps", 0, 1), ("reps", -2, 1), ("reps", 0, 2), ("workers", 3, 0), ("workers", 3, -4))
    for driver in drivers:
        for message, reps, workers in bad:
            with pytest.raises(ValueError, match=f"{message} must be >= 1"):
                driver(reps, workers)
    assert calls == []


@pytest.mark.parametrize("backend", ["kernel", "python_loop"])
def test_drivers_reject_before_building_the_graph(compiled, monkeypatch, request, backend):
    """Every driver refuses eps 1.5, reps 0 and workers 0, serial and pooled,
    before it builds a graph or searches one for connectivity; sweep also a
    bad t_max, a repeated threshold and an empty grid."""
    calls = _spy_compute(monkeypatch, request, backend)
    g = path_graph(5)

    def no_graph(*args):
        pytest.fail("a graph was built or searched before the arguments were checked")

    for name in ("path_graph", "torus_graph", "is_connected"):
        monkeypatch.setattr(experiments, name, no_graph)
    drivers = (
        lambda eps, reps, workers: experiments.consensus_experiment(g, eps, reps, 1, workers),
        lambda eps, reps, workers: experiments.coexistence_experiment(5, eps, reps, 1, workers),
        lambda eps, reps, workers: experiments.degree_bound_check(g, eps, reps, 1, workers),
        lambda eps, reps, workers: experiments.sweep_experiment(
            3, 3, (0.5, eps), 1.0, reps, 1, workers
        ),
    )
    for workers in (1, 2):
        bad = (("epsilon", 1.5, 3, workers), ("reps", 0.75, 0, workers), ("workers", 0.75, 3, 0))
        for driver in drivers:
            for message, eps, reps, w in bad:
                with pytest.raises(ValueError, match=message):
                    driver(eps, reps, w)
        sweeps = (
            ("t_max", (0.5,), -1.0),
            ("t_max", (0.5,), math.nan),
            ("duplicate", (0.5, 0.5), 1.0),
            ("empty", (), 1.0),
        )
        for message, grid, t_max in sweeps:
            with pytest.raises(ValueError, match=message):
                experiments.sweep_experiment(3, 3, grid, t_max, 3, 1, workers)
    assert calls == []


@pytest.mark.parametrize("backend", ["kernel", "python_loop"])
def test_stop_reasons(compiled, monkeypatch, request, backend):
    if backend == "python_loop":
        request.getfixturevalue(backend)
    for module in (dynamics, experiments):
        monkeypatch.setattr(module, "DEFAULT_MAX_EVENTS", 5)
    g = torus_graph(5, 6)
    cells = {"absorbed": (0.0, None), "t_max": (1.0, 0.0), "max_events": (1.0, None)}
    for reason, (eps, t_max) in cells.items():
        results = experiments._run_grid(lambda: g, (eps,), 3, 5, 1, t_max)
        assert [rec.stop_reason for rec, _ in results] == [reason] * 3
        assert all(rec.events == (5 if reason == "max_events" else 0) for rec, _ in results)


# path:n where 2n is at, just past or just short of a power of two, the sizes
# at which count_opinions' table of the least power of two >= 2n words grows
TABLE_EDGES = (2, 3, 4, 5, 8, 9, 16, 17)


@pytest.mark.parametrize("n", TABLE_EDGES, ids=lambda n: f"path{n}")
def test_table_edges(compiled, monkeypatch, n):
    """Both entry points on n distinct opinions at those sizes: traced plain
    and coupled runs against the Python loop, and a batch cell against
    _replicate_worker."""
    g = path_graph(n)
    for seed in range(3):
        init = random_initial(g, seed)
        for eps in (0.3, 0.75):
            _assert_backends_agree(monkeypatch, g, init, SimParams(eps, seed))
    for eps in (0.0, 0.3, 0.75):
        batch = _comparable(experiments._run_grid(lambda: g, (eps,), 5, 5, 1))
        tasks = _worker_tasks(g, (eps,), None, 5)
        assert batch == _comparable(map(experiments._replicate_worker, tasks))


LOG_CHUNK = _kernel.LOG_CHUNK
# max_events around the log's chunk boundaries; the chunks fill at events 2**12
# and 2**13, which are trace points, and at 3 * 2**12, which is not
CHUNK_STOPS = {
    "under_one_chunk": LOG_CHUNK - 1,
    "one_chunk": LOG_CHUNK,
    "over_one_chunk": LOG_CHUNK + 1,
    "two_chunks": 2 * LOG_CHUNK,
    "over_three_chunks": 3 * LOG_CHUNK + 1,
}
# torus:12x12 at eps 0.75 from random_initial(g, 0) absorbs after 12485 events
HOOK_GRAPH = torus_graph(12, 12)
HOOK_INIT = random_initial(HOOK_GRAPH, 0)


def _hooked_run(params, coupled: bool) -> tuple:
    """Per-event (t, k, digest of the opinion and weight bytes) seen by an
    on_event hook, then the run's report JSON, final weights and census trace."""
    records = []

    def hook(t, k, ops, weights=()):
        data = array.array("d", ops).tobytes() + array.array("d", weights).tobytes()
        records.append((t, k, hashlib.blake2b(data).digest()))

    if coupled:
        res = simulate_coupled(HOOK_GRAPH, HOOK_INIT, params, on_event=hook)
        return records, json.dumps(res.report.to_dict()), res.weights.tobytes(), res.census_trace
    report = simulate(HOOK_GRAPH, HOOK_INIT, params, on_event=hook)
    return records, json.dumps(report.to_dict())


@pytest.mark.parametrize("coupled", [False, True], ids=["plain", "coupled"])
@pytest.mark.parametrize("max_events", CHUNK_STOPS.values(), ids=CHUNK_STOPS.keys())
def test_hook_log_matches_python_loop(compiled, request, coupled, max_events):
    params = SimParams(0.75, 0, max_events=max_events)
    kernel = _hooked_run(params, coupled)
    request.getfixturevalue("python_loop")
    assert kernel == _hooked_run(params, coupled)
    records = kernel[0]
    assert [k for _, k, _ in records] == list(range(1, max_events + 1))
    if coupled and max_events >= LOG_CHUNK:
        # LOG_CHUNK is a power of two, so a chunk end is also a census trace point
        assert LOG_CHUNK in [k for _, k, _ in kernel[3]]


def test_hook_log_stops_at_t_max_after_a_log_pause(compiled, request):
    """t_max between events 3 * LOG_CHUNK and the next: the run resumes after
    its third log pause, at that chunk's last clock, and stops at t_max."""
    last = 3 * LOG_CHUNK
    records = _hooked_run(SimParams(0.75, 0, max_events=last + 1), coupled=False)[0]
    t_max = (records[last - 1][0] + records[last][0]) / 2
    kernel = [_hooked_run(SimParams(0.75, 0, t_max=t_max), coupled) for coupled in (False, True)]
    assert len(kernel[0][0]) == last and json.loads(kernel[0][1])["time"] == t_max
    request.getfixturevalue("python_loop")
    assert kernel == [_hooked_run(SimParams(0.75, 0, t_max=t_max), c) for c in (False, True)]


def test_hooked_run_calls_the_kernel(compiled, monkeypatch):
    """A hook is replayed from the kernel's log: each call runs to the end of
    a log chunk or to max_events, with the census too."""
    untils = _spy_untils(monkeypatch)
    seen = []
    last = 3 * LOG_CHUNK + 1
    params = SimParams(0.75, 0, max_events=last)
    simulate(HOOK_GRAPH, HOOK_INIT, params, on_event=lambda t, k, ops: seen.append(k))
    assert untils == [LOG_CHUNK, 2 * LOG_CHUNK, 3 * LOG_CHUNK, last]
    assert seen == list(range(1, last + 1))
    untils.clear()
    seen.clear()
    coupled = simulate_coupled(HOOK_GRAPH, HOOK_INIT, params, on_event=lambda *a: seen.append(a[1]))
    assert untils == [LOG_CHUNK, 2 * LOG_CHUNK, 3 * LOG_CHUNK, last]
    points = [0] + [1 << j for j in range((2 * LOG_CHUNK).bit_length())]
    assert [k for _, k, _ in coupled.census_trace] == points + [last]
    assert seen == list(range(1, last + 1))


WORD_GRAPH = torus_graph(8, 8)
WORD_INIT = random_initial(WORD_GRAPH, 3)
# (graph, init, params, on_event) per case; from seed 0 at eps 0.75 the
# events 116, 225 and 580 end on the words 624 + 1, 2 * 624 and 5 * 624 - 1
WORD_CASES = {
    "after_block_end": (WORD_GRAPH, WORD_INIT, SimParams(0.75, 0, max_events=116), None),
    "on_block_end": (WORD_GRAPH, WORD_INIT, SimParams(0.75, 0, max_events=225), None),
    "before_block_end": (WORD_GRAPH, WORD_INIT, SimParams(0.75, 0, max_events=580), None),
    "t_max": (WORD_GRAPH, WORD_INIT, SimParams(0.75, 0, t_max=5.0), None),
    "absorbed": (WORD_GRAPH, WORD_INIT, SimParams(0.75, 0), None),
    # three log pauses, each within a block, then the end
    "hooked": (
        HOOK_GRAPH, HOOK_INIT, SimParams(0.75, 0, max_events=3 * LOG_CHUNK + 1), lambda *a: None
    ),
}
WORD_POSITIONS = {"after_block_end": 1, "on_block_end": 624, "before_block_end": 623}


@pytest.mark.parametrize("case", WORD_CASES)
def test_kernel_leaves_the_loops_generator_words(compiled, monkeypatch, case):
    """After each ct_run_events call the generator's 625 words in `work`
    (the state and the position) are those of the Python loop's
    random.Random after as many events: a run uses the words the loop draws,
    and a call that pauses within a block (the hook's log chunks) resumes
    on them."""
    g, init, params, hook = WORD_CASES[case]
    kernel = _spy_generator_words(monkeypatch)
    report = simulate(g, init, params, on_event=hook)
    generators, loop = [], {}

    class Captured(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            generators.append(self)

    def record(t, k, ops):
        loop[k] = generators[0].getstate()[1]

    with monkeypatch.context() as m:
        reference_loop.use(m)
        m.setattr(reference_loop.random, "Random", Captured)
        assert simulate(g, init, params, on_event=record).events == report.events
    loop[report.events] = generators[0].getstate()[1]
    assert len(generators) == 1
    assert kernel == [(k, loop[k]) for k, _ in kernel]
    assert report.stop_reason == {"t_max": "t_max", "absorbed": "absorbed"}.get(case, "max_events")
    if case in WORD_POSITIONS:
        assert kernel[-1][1][-1] == WORD_POSITIONS[case]
    if hook is not None:
        assert [k for k, _ in kernel] == [LOG_CHUNK, 2 * LOG_CHUNK, 3 * LOG_CHUNK, report.events]
        assert all(0 < words[-1] < 624 for _, words in kernel[:-1])


def test_replay_that_diverges_from_the_kernel_raises(compiled, monkeypatch):
    from ctvoter import dynamics

    monkeypatch.setattr(dynamics, "_live", lambda a, b, eps: False)
    with pytest.raises(RuntimeError, match="replayed event log"):
        simulate(HOOK_GRAPH, HOOK_INIT, SimParams(0.75, 0, max_events=10), on_event=print)


def _search_cases() -> list:
    """Connected and disconnected graphs: the small family, the named graphs,
    n = 1, an isolated vertex first, last or alone, and random subgraphs."""
    cases = [g for _, g in small_graph_family()] + list(GRAPHS.values())
    cases += [
        make_graph(1, []),
        make_graph(2, []),
        make_graph(4, [(0, 1), (2, 3)]),
        make_graph(4, [(1, 2), (2, 3), (1, 3)]),
        make_graph(5, [(0, 1), (1, 2), (2, 3)]),
    ]
    rng = random.Random(3)
    for n in (2, 5, 12, 40):
        for p in (0.0, 0.05, 0.2):
            g = random_connected_graph(n, rng.randrange(2**32), p)
            cases.append(make_graph(n, [e for e in g.edges if rng.random() < 0.8]))
    return cases


@pytest.mark.parametrize("backend", ["kernel", "python_loop"])
def test_reaches_all_matches_the_python_search(compiled, request, backend):
    """is_connected, by ct_reaches_all or on the reference by its Python
    search, and ct_reaches_all itself, against the Python search, each on a
    graph that has not been searched."""
    if backend == "python_loop":
        request.getfixturevalue(backend)
    cases = _search_cases()
    expected = [reference_loop.reaches_all(g) for g in cases]
    assert set(expected) == {True, False}
    fresh = [make_graph(g.n_vertices, g.edges) for g in cases]
    assert [graphs.is_connected(g) for g in fresh] == expected
    assert [_kernel.reaches_all(g) for g in cases] == expected


def _coupled_bytes(g, seed: int, max_events=None) -> tuple:
    res = simulate_coupled(g, random_initial(g, seed), SimParams(0.75, seed, max_events=max_events))
    return json.dumps(res.report.to_dict()), res.weights.tobytes(), res.census_trace


def test_hook_nests_a_run_with_the_same_sizes(compiled):
    """An on_event hook that runs simulate and simulate_coupled on the same
    graph and sizes while the outer run holds its buffers, after runs alone
    have left a kept set of those sizes: every report is the one the run
    gives alone."""
    g, init, params = HOOK_GRAPH, HOOK_INIT, SimParams(0.75, 0, max_events=2 * LOG_CHUNK + 5)

    def plain(seed):
        return json.dumps(simulate(g, random_initial(g, seed), params).to_dict())

    def coupled(seed):
        return _coupled_bytes(g, seed, params.max_events)

    alone = {seed: (plain(seed), coupled(seed)) for seed in range(7)}
    inner = []

    def hook(t, k, ops, weights=None):
        if k % 1500 == 1:
            inner.append((k % 7, (plain(k % 7), coupled(k % 7))))

    nested = json.dumps(simulate(g, init, params, on_event=hook).to_dict())
    nested_coupled = simulate_coupled(g, init, params, on_event=hook)
    assert nested == alone[0][0]
    assert (
        json.dumps(nested_coupled.report.to_dict()),
        nested_coupled.weights.tobytes(),
        nested_coupled.census_trace,
    ) == alone[0][1]
    assert len(inner) == 12 and all(got == alone[seed] for seed, got in inner)


def test_threads_running_coupled_runs_match_serial(compiled):
    """Four threads, more than the cores, run coupled replicates at once,
    each on its own buffers (the kernel call releases the GIL), switching
    often; their results are the serial ones byte for byte."""
    g, limit = torus_graph(40, 40), 40000
    jobs = [[k, k + 4] for k in range(4)]
    serial = {seed: _coupled_bytes(g, seed, limit) for seeds in jobs for seed in seeds}
    start = threading.Barrier(len(jobs))
    found, errors = {}, []

    def run(seeds):
        try:
            start.wait(timeout=60)
            for seed in seeds:
                found[seed] = _coupled_bytes(g, seed, limit)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(seeds,)) for seeds in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and found == serial


def test_kept_buffers_are_written_before_read(compiled):
    """A thread's kept scratch set is handed out again, uncleared, to the
    next call with its sizes: filled with junk bytes between runs, it gives
    the same plain, coupled and batch runs."""
    g = torus_graph(7, 5)
    init = random_initial(g, 3)
    params = SimParams(0.75, 3, max_events=500)
    runs = {
        "plain": lambda: json.dumps(simulate(g, init, params).to_dict()),
        "coupled": lambda: _coupled_bytes(g, 3),
        "batch": lambda: _comparable(experiments._run_chunk((g, 0.3, None, 0, [11, 12], True))),
    }
    for name, run in runs.items():
        clean = run()
        kept = _kernel._kept.set[1]
        for junk in (0x00, 0xFF, 0xA5):
            for buffer in kept:
                if buffer is not None:
                    buffer.view(np.uint8).fill(junk)
            assert run() == clean, (name, junk)
            assert _kernel._kept.set[1] is kept


def test_kept_set_of_other_sizes_is_freed_before_allocating():
    """Between calls a thread holds at most one scratch set: a call with
    other sizes drops the kept set before it allocates its own."""
    with _kernel.scratch(50, 60, 4, 2) as (buffers, _):
        gone = [weakref.ref(b) for b in buffers]
    del buffers
    with _kernel.scratch(40, 60) as (buffers, _):
        assert all(ref() is None for ref in gone)
    assert _kernel._kept.set[0] == (40, 60, 0, 0) and _kernel._kept.set[1] is buffers


def test_ctypes_signature_matches_the_c_prototype(compiled):
    """Each entry point's argtypes has one entry of the matching kind per
    parameter in _kernel.c; a mismatch would corrupt memory, not fail."""
    found = re.findall(r"^int (ct_\w+)\(([^)]*)\)", _kernel.SOURCE.read_text(), re.M)
    lib = _kernel.load()
    assert sorted(name for name, _ in found) == sorted(lib)
    kinds = {
        "int32_t": ctypes.c_int32,
        "int64_t": ctypes.c_int64,
        "uint64_t": ctypes.c_uint64,
        "double": ctypes.c_double,
    }
    for name, text in found:
        params = [" ".join(p.split()) for p in text.split(",")]
        expected = [ctypes.c_void_p if "*" in p else kinds[p.split()[0]] for p in params]
        assert list(lib[name].argtypes) == expected, (name, params)
        assert lib[name].restype is ctypes.c_int


# ctypes type of each C type that struct ct_run declares, pointers aside
C_TYPES = {
    "int32_t": ctypes.c_int32,
    "int64_t": ctypes.c_int64,
    "uint64_t": ctypes.c_uint64,
    "double": ctypes.c_double,
}


def _c_struct_fields(source: str, name: str) -> list[tuple[str, type]]:
    """(name, ctypes type) of each field of `struct name` in C source, in
    order; a declaration may list several declarators of one base type."""
    (body,) = re.findall(rf"^struct {name} \{{(.*?)^\}};", source, re.M | re.S)
    fields = []
    for declaration in body.split(";")[:-1]:
        base, _, declarators = declaration.replace("const ", "").strip().partition(" ")
        for declarator in declarators.split(","):
            kind = ctypes.c_void_p if "*" in declarator else C_TYPES[base]
            fields.append((declarator.strip(" *"), kind))
    return fields


def test_run_record_matches_the_c_struct():
    """_kernel.Run lists struct ct_run's fields in _kernel.c by name,
    position and type; a mismatch would corrupt memory, not fail."""
    fields = _c_struct_fields(_kernel.SOURCE.read_text(), "ct_run")
    assert fields and fields == list(_kernel.Run._fields_)


VALUES = st.sampled_from([-0.0, 0.0, 1.0, 5e-324, 2**-1022, 0.25, 0.5, 0.75]) | st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(VALUES, min_size=1, max_size=10).map(lambda v: v + v[: len(v) // 2]),
    eps=st.sampled_from([0.0, 0.25, 0.5, math.nextafter(0.5, 1.0), 0.75, 1.0])
    | st.sampled_from([5e-324, 1e-7, math.nextafter(2**-16, 0.0), 2**-16, 2e-5])
    | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
)
@example(ops=[0.5], eps=0.5, seed=2**64)
def test_mixed_values_agree(compiled, ops, eps, seed):
    """Signed zeros, subnormals and repeated values, on both sides of eps = 1/2,
    down to the census's limit eps = 2**-16; below it the coupled run is refused.
    A seed of 2**64 is refused."""
    if seed == 2**64:
        with pytest.raises(ValueError, match="seed must lie in"):
            SimParams(eps, seed, max_events=300)
        return
    g = path_graph(len(ops))
    params = SimParams(eps, seed, max_events=300)
    if 0.0 < eps < 2**-16:
        with pytest.raises(ValueError, match="census"):
            simulate_coupled(g, ops, params)
        return
    with pytest.MonkeyPatch.context() as m:
        _assert_backends_agree(m, g, ops, params)


CENSUS_EPS = (1.0, 0.75, 0.5, 0.3, 0.25, 1 / 3, math.nextafter(1 / 3, 1.0), 0.2, 0.1, 2**-4)


@st.composite
def census_case(draw) -> tuple[float, list[float]]:
    """eps and opinions on a path, each at k*eps (0 <= k <= ceil(1/eps)) or
    one float either side of it, so that the gaps and weights fall on
    multiples of eps and next to them; now and then a uniform opinion."""
    eps = draw(st.sampled_from(CENSUS_EPS))
    on_grid = st.builds(
        lambda k, steps: min(max(_near(k * eps, steps), 0.0), 1.0),
        st.integers(0, ceil_recip(eps)),
        st.integers(-1, 1),
    )
    return eps, draw(st.lists(on_grid | st.floats(0.0, 1.0), min_size=2, max_size=9))


def _coupled_outcome(g, ops, params) -> tuple | str:
    """The coupled run's census trace and final weights, or its ValueError."""
    try:
        res = simulate_coupled(g, ops, params)
    except ValueError as exc:
        return str(exc)
    return res.census_trace, res.weights.tobytes()


@settings(max_examples=120, deadline=None)
@given(case=census_case(), seed=st.integers(0, 2**32))
def test_census_matches_numpy(compiled, case, seed):
    """The kernel's census trace is the Python loop's, and each of its rows is
    edge_process.census of the weights after that trace point's events."""
    eps, ops = case
    g = path_graph(len(ops))
    params = SimParams(eps, seed, max_events=200)
    with pytest.MonkeyPatch.context() as m:
        _assert_backends_agree(m, g, ops, params)
    for t, k, row in simulate_coupled(g, ops, params).census_trace:
        weights = simulate_coupled(g, ops, dataclasses.replace(params, max_events=k)).weights
        assert row == edge_process.census(weights, eps), (t, k)


@settings(max_examples=120, deadline=None)
@given(
    case=census_case(),
    edge=st.integers(0, 7),
    steps=st.integers(-1, 2),
    sign=st.sampled_from([1.0, -1.0]),
    seed=st.integers(0, 2**32),
)
def test_census_type_above_the_limit(compiled, case, edge, steps, sign, seed):
    """One weight set at or next to J*eps, the top of type J = ceil(1/eps):
    both backends give the same census, or the same ValueError for a weight
    of a type above J, which one step above J*eps is from the start."""
    eps, ops = case
    g = path_graph(len(ops))
    j_cap = ceil_recip(eps)
    make_weights = edge_process.weights_from_opinions

    def weights_from_opinions(g, x):
        weights = make_weights(g, x)
        weights[edge % g.n_edges] = sign * _near(j_cap * eps, steps)
        return weights

    params = SimParams(eps, seed, max_events=200)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(edge_process, "weights_from_opinions", weights_from_opinions)
        kernel = _coupled_outcome(g, ops, params)
        reference_loop.use(m)
        assert _coupled_outcome(g, ops, params) == kernel
    if steps > 0:
        assert kernel == f"weight of type above {j_cap} for eps={eps!r}"


@pytest.mark.parametrize("n", TABLE_EDGES, ids=lambda n: f"path{n}")
def test_census_at_the_type_limit(compiled, monkeypatch, n):
    """eps = 2**-16, the most census types (65 536): close opinions run many
    events, and the jump between the path's halves weighs 1 - 2**-18 (type
    65 536, the row's last) or 1 - 2**-16 (the boundary after it), at the
    sizes where the opinion table grows."""
    g = path_graph(n)
    ops = [(i % 3) * 2**-18 + (0.0 if i < n // 2 else 1.0 - 2**-17) for i in range(n)]
    for seed in range(3):
        params = SimParams(2**-16, seed)
        _assert_backends_agree(monkeypatch, g, ops, params)
    trace = simulate_coupled(g, ops, params).census_trace
    assert all(cen.n_types == edge_process.MAX_CENSUS_TYPES for _, _, cen in trace)
    assert trace[0][2].counts[-1] + trace[0][2].boundary_count == 1


def test_default_limit_run_fills_many_trace_points(compiled, monkeypatch):
    g = torus_graph(24, 24)
    params = SimParams(1.0, 7)
    _assert_backends_agree(monkeypatch, g, random_initial(g, 7), params)
    report = simulate(g, random_initial(g, 7), params)
    assert report.events >= 2**16 and len(report.opinion_trace) >= 18
    assert len(report.opinion_trace) <= DEFAULT_MAX_EVENTS.bit_length() + 2


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


BREAKAGES = {
    # breakage: the step and the cause that the OSError names
    "source missing": r"cannot read the event kernel source: .*no-such-source\.c",
    "compiler missing": r"cannot compile the event kernel with .*no-such-cc: .*no-such-cc",
    "compiler fails": r"(?s)cannot compile the event kernel with cc \(exit \d+\):\n.*no-such-flag",
    "loader fails": r"cannot load the event kernel: cannot load .*_kernel-",
}


def _break(m, breakage: str, cache: Path) -> None:
    if breakage == "source missing":
        m.setattr(_kernel, "SOURCE", cache / "no-such-source.c")
    elif breakage == "compiler missing":
        m.setattr(_kernel, "COMPILER", str(cache / "no-such-cc"))
    elif breakage == "compiler fails":
        m.setattr(_kernel, "FLAGS", _kernel.FLAGS + ("-no-such-flag",))
    else:
        def refuse(path):
            raise OSError(f"cannot load {path}")

        m.setattr(_kernel.ctypes, "CDLL", refuse)


@pytest.mark.parametrize("breakage", BREAKAGES)
def test_broken_build_refuses(fresh_cache, monkeypatch, breakage):
    """Each breakage makes load() raise one OSError that names its cause, and
    a load after the repair succeeds, so a failure is not cached."""
    with monkeypatch.context() as m:
        _break(m, breakage, fresh_cache)
        for _ in range(2):
            with pytest.raises(OSError, match=BREAKAGES[breakage]):
                _kernel.load()
    assert sorted(_kernel.load()) == sorted(_kernel.SIGNATURES)


@pytest.mark.parametrize("breakage", BREAKAGES)
def test_cli_exits_2_on_a_broken_build(fresh_cache, monkeypatch, capsys, breakage):
    """simulate exits 2 with one i/o error line and writes no report; index
    and urn never load the kernel and still exit 0."""
    from ctvoter import cli

    out = fresh_cache / "out"
    _break(monkeypatch, breakage, fresh_cache)
    argv = ["simulate", "--graph", "path:10", "--eps", "0.5", "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("i/o error:")]) == 1
    assert re.search(BREAKAGES[breakage], err)
    assert not (out / "report.json").exists()
    assert cli.main(["index", "--graph", "cycle:5", "--eps", "0.6"]) == 0
    assert cli.main(["urn", "--balls", "5", "--boxes", "6"]) == 0
    assert capsys.readouterr().err == ""


def test_cached_library_is_reused(fresh_cache, monkeypatch):
    _kernel.load()
    (built,) = fresh_cache.glob("_kernel-*.so")
    stamp = built.stat().st_mtime_ns
    _kernel.load.cache_clear()
    monkeypatch.setattr(_kernel, "COMPILER", str(fresh_cache / "no-such-cc"))
    _kernel.load()
    assert [p.name for p in fresh_cache.iterdir()] == [built.name]
    assert built.stat().st_mtime_ns == stamp


def _build_and_run(cache_dir: str) -> str:
    _kernel.CACHE_DIR = Path(cache_dir)
    # importing this module drew HOOK_INIT, which loaded the default cache's build
    _kernel.load.cache_clear()
    g = torus_graph(6, 6)
    report = simulate(g, random_initial(g, 1), SimParams(0.5, 2, t_max=3.0))
    return json.dumps(report.to_dict())


def test_concurrent_builds_share_one_cache(fresh_cache):
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(_build_and_run, str(fresh_cache)) for _ in range(2)]
        results = [f.result(timeout=120) for f in futures]
    assert results[0] == results[1]
    assert [p.name for p in fresh_cache.iterdir()] == [_kernel.library_path().name]


def test_source_compiles_without_warnings(tmp_path):
    out = tmp_path / "kernel.so"
    cmd = [_kernel.COMPILER, "-Wall", "-Wextra", "-Werror", *_kernel.FLAGS]
    result = subprocess.run(
        [*cmd, "-o", str(out), str(_kernel.SOURCE), *_kernel.LIBS],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert os.path.getsize(out) > 0


# comparisons run again on the build instrumented by AddressSanitizer; the
# named graphs' stops include runs that fill every trace slot, the hook cases
# every way a call pauses and resumes, the generator words a call that
# resumes within a block, the table edges every size step of
# the opinion table and its slots, traced plain and coupled, and the type
# limit the largest census rows
ASAN_CASES = (
    "named_graphs and (single or torus) or many_seeds or golden_cases or table_edges"
    " or census_at_the_type_limit or census_type_above"
    " or exact_liveness or seeds_like_random or mixed_values or default_limit"
    " or hook_log or hooked_run or one_kernel_call or random_initial_is_numpys"
    " or batch_draw or batch_matches and (single or torus or petersen) or stop_reasons"
    " or key_lengths or reaches_all or hook_nests or threads_running or kept_buffers"
    " or seed_word_edges or run_record or pooled or generator_words"
)
ASAN_PLUGIN = """
from pathlib import Path
from ctvoter import _kernel

_kernel.FLAGS = _kernel.FLAGS + ("-fsanitize=address", "-fno-omit-frame-pointer")
_kernel.CACHE_DIR = Path({cache!r})
_kernel.load()
"""


def test_kernel_is_memory_safe_under_asan(tmp_path):
    found = subprocess.run(
        [_kernel.COMPILER, "-print-file-name=libasan.so"], capture_output=True, text=True
    )
    libasan = found.stdout.strip()
    if found.returncode != 0 or not os.path.isabs(libasan) or not os.path.exists(libasan):
        pytest.skip("no libasan")
    (tmp_path / "asan_kernel.py").write_text(ASAN_PLUGIN.format(cache=str(tmp_path)))
    tests = Path(__file__).resolve().parent
    src = Path(_kernel.__file__).resolve().parents[1]
    env = dict(
        os.environ,
        LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=0",
        # Python's buffers from malloc, where the sanitizer can see their bounds
        PYTHONMALLOC="malloc",
        PYTHONPATH=os.pathsep.join(map(str, (tmp_path, src, tests))),
    )
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "asan_kernel", "-p", "no:cacheprovider"]
    result = subprocess.run(
        [*cmd, str(Path(__file__).resolve()), "-k", ASAN_CASES],
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
    assert " passed" in result.stdout and "skipped" not in result.stdout
    assert len(list(tmp_path.glob("_kernel-*.so"))) == 1
