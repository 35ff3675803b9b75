"""Monte Carlo drivers: replicate management, aggregation, snapshot export.

Replicate seeds derive from the master seed via spawn_seed(master, i), with
i = grid_index * reps + replicate (the replicate itself when the grid is a
single threshold), and each replicate splits its seed once more into an
initial-configuration stream and an event stream. Every driver runs its
whole threshold grid in one _run_grid call and aggregates each threshold's
block of records (_grid_report). Records are keyed by replicate index, so
serial and parallel execution produce identical reports. One call of the
compiled kernel runs all the replicates of a cell (a threshold, or a piece
of one with several workers), initial draws included.
"""

from __future__ import annotations

import array
import ctypes
import itertools
import numbers
import os
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernel
from .common import check_seed, spawn_seed, spawn_seeds, strict_json
from .dynamics import (
    DEFAULT_MAX_EVENTS,
    SimParams,
    _event_limit,
    _kernel_run,
    count_opinions,
    extremist_count,
    random_initial,
    simulate,
)
from .graphs import Graph, is_connected, path_graph, torus_graph

COEXISTENCE_FRACTION_COEFF = 12  # loss fraction per unit threshold, path bound
COEXISTENCE_PREFACTOR = 3  # multiplies exp(-eps*N) in the path bound


@dataclass(frozen=True)
class ExperimentSpec:
    graph: str
    epsilon_grid: tuple[float, ...]
    reps: int
    master_seed: int
    stop: dict
    outputs: tuple[str, ...] = ()


@dataclass
class ReplicateRecord:
    replicate: int
    seed: int
    nu: int
    absorbed: bool
    consensus: bool
    theta_inf_zero: bool | None
    events: int
    # informational fields, excluded from serialized reports (wall time is not
    # reproducible; the extremist count and the stop reason are recomputable
    # from the seed)
    wall_time: float = 0.0
    theta_inf_count: int | None = None
    stop_reason: str | None = None  # "absorbed", "t_max" or "max_events"


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    records: list[ReplicateRecord]
    aggregates: dict


def mean_and_radius(values) -> tuple[float, float]:
    """Sample mean and the 3 * sample-sigma / sqrt(R) confidence radius."""
    arr = np.asarray(values, dtype=float)
    if arr.size <= 1:
        return float(arr.mean()) if arr.size else float("nan"), float("inf")
    return float(arr.mean()), float(3.0 * arr.std(ddof=1) / np.sqrt(arr.size))


def run_replicate(
    g: Graph,
    eps: float,
    rep_seed: int,
    t_max: float | None = None,
    max_events: int | None = None,
):
    """One seeded replicate: random initial opinions, then simulate.

    The replicate seed splits into spawn_seed(rep_seed, 0) for the initial
    configuration and spawn_seed(rep_seed, 1) for the event stream. The
    seed, which must lie in [0, 2**64), the parameters and the graph are
    checked before the initial draw.
    """
    params = SimParams(eps, spawn_seed(check_seed(rep_seed), 1), t_max=t_max, max_events=max_events)
    if not is_connected(g):
        raise ValueError("dynamics require a connected graph")
    init = random_initial(g, spawn_seed(rep_seed, 0))
    return init, simulate(g, init, params)


def _records(eps, first, seeds, events, stops, nus, extremists, wall) -> list[ReplicateRecord]:
    """The ReplicateRecords of replicates first, first + 1, ... at eps, from
    their columns: seeds, event counts, stop reasons, final opinion counts and
    extremist counts, and the wall time of each.

    A record is absorbed iff its run stopped absorbed, and consensus iff one
    opinion is left. Only an absorbed run at eps > 1/2 keeps its extremist
    count, as theta; the count of any other run is not read.
    """
    absorbed = [stop == "absorbed" for stop in stops]
    if eps > 0.5:
        theta = [ext if done else None for done, ext in zip(absorbed, extremists)]
    else:
        theta = [None] * len(absorbed)
    return list(map(
        ReplicateRecord,
        range(first, first + len(absorbed)),
        seeds,
        nus,
        absorbed,
        [nu == 1 for nu in nus],
        [None if count is None else count == 0 for count in theta],
        events,
        itertools.repeat(wall),
        theta,
        stops,
    ))


def _replicate_worker(args) -> tuple[ReplicateRecord, np.ndarray | None]:
    """(record, final) of one replicate through run_replicate, as _run_chunk
    gives it for a cell of that replicate alone; args is (g, eps, index,
    rep_seed, t_max, want_final). The tests' reference runs cells by it."""
    g, eps, index, rep_seed, t_max, want_final = args
    start = time.perf_counter()
    _, report = run_replicate(g, eps, rep_seed, t_max=t_max)
    final = report.final_opinions
    nu = count_opinions(final)
    extremists = extremist_count(final, eps) if eps > 0.5 and report.absorbed else 0
    wall = time.perf_counter() - start
    (record,) = _records(
        eps, index, [rep_seed], [report.events], [report.stop_reason], [nu], [extremists], wall
    )
    return record, final if want_final else None


def _run_chunk(cell) -> list[tuple[ReplicateRecord, np.ndarray | None]]:
    """(record, final) of the replicates of a cell, in order.

    A cell (g, eps, t_max, first, seeds, keep_final) is the replicates first,
    first + 1, ... with seeds `seeds` (a sequence of ints in [0, 2**64), or a
    uint64 array, which goes to the kernel as it is) on one graph at one
    threshold and t_max, which _run_grid has checked; keep_final asks for the
    first replicate's final opinions, which the kernel copies into a float64
    array. One call of the compiled ct_run_replicates runs them all, initial
    draws included, and _records reads its columns. Each record's wall time
    is the call's over the cell's length.
    """
    g, eps, t_max, first, seeds, keep_final = cell
    run_replicates = _kernel.load()["ct_run_replicates"]
    start = time.perf_counter()
    n = g.n_vertices
    seed_words = np.ascontiguousarray(seeds, dtype=np.uint64)
    reps = len(seed_words)
    ops = array.array("d", [0.0]) * n
    out = np.empty((reps, 4), dtype=np.int64)  # events, stop code, nu, extremists
    final = np.empty(n) if keep_final else None
    with _kernel.scratch(n, g.n_edges) as (_, (work, table, _, _)):
        limit = _event_limit(DEFAULT_MAX_EVENTS)
        run = _kernel_run(g, eps, t_max, limit, ops=ops.buffer_info()[0], work=work, table=table)
        run_replicates(
            ctypes.addressof(run), seed_words.ctypes.data, reps, out.ctypes.data,
            None if final is None else final.ctypes.data,
        )
    wall = (time.perf_counter() - start) / reps
    events, stops, nus, extremists = out.T.tolist()
    stops = [_kernel.STOP_REASONS[stop] for stop in stops]
    records = _records(eps, first, seed_words.tolist(), events, stops, nus, extremists, wall)
    return [(records[0], final)] + [(record, None) for record in records[1:]]


def _run_batch(cells, workers: int):
    """(record, final) of every replicate of the cells, in order, run on a
    pool of `workers` threads. The kernel call releases the GIL, so the
    threads run cells at once in one address space."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [r for results in pool.map(_run_chunk, cells) for r in results]


def _run_grid(graph, grid, reps: int, master_seed: int, workers: int, t_max=None):
    """(record, final) of reps replicates per threshold, to t_max or absorption.

    graph is a zero-argument builder of the graph. Replicate index =
    grid_index * reps + r with seed spawn_seed(master_seed, index), all
    spawned in one pass by spawn_seeds; final is the float64 array of final
    opinions for r == 0, None otherwise. grid must be non-empty, its
    thresholds valid and distinct (0.0 and -0.0 are one), and t_max, reps,
    workers and master_seed (in [0, 2**64)) valid; all of that is checked
    before graph() is called, and the graph's connectivity, which also loads
    the kernel, before any replicate runs. workers is capped at the CPU
    count, as a cell's kernel call keeps one core busy and each thread keeps
    its own scratch set. The grid is cut into cells (_run_chunk): one per
    threshold, or, with workers > 1, pieces of each threshold of about
    len(grid) * reps / (4 * workers) replicates, so that the threads' load
    stays even.
    """
    if not grid:
        raise ValueError("empty threshold grid")
    if len(set(grid)) != len(grid):
        raise ValueError(f"duplicate threshold in {tuple(grid)!r}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, os.cpu_count() or 1)
    for eps in grid:
        SimParams(eps, master_seed, t_max=t_max)
    g = graph()
    if not is_connected(g):
        raise ValueError("dynamics require a connected graph")
    size = max(1, reps if workers <= 1 else len(grid) * reps // (workers * 4))
    seeds = spawn_seeds(master_seed, 0, len(grid) * reps)
    cells = [
        (g, eps, t_max, k * reps + r, seeds[k * reps + r : k * reps + min(r + size, reps)], r == 0)
        for k, eps in enumerate(grid)
        for r in range(0, reps, size)
    ]
    return _run_batch(cells, workers)


def _thresholds(eps) -> tuple:
    """eps as a grid: (eps,) for one threshold, else a tuple of its floats."""
    return (eps,) if isinstance(eps, numbers.Real) else tuple(float(e) for e in eps)


def _grid_report(graph, label, eps, reps, master_seed, workers, aggregate, t_max=None, outputs=()):
    """The report of reps runs per threshold of eps on graph() (a builder, as
    for _run_grid), to t_max or absorption, all in one _run_grid call, and
    the final opinions of each threshold's first replicate.

    aggregate(eps, records) gives the aggregates of one threshold from its
    block of records. One threshold (a number) reports them as they are; a
    sequence of thresholds, one block each, reports them under per_epsilon,
    keyed by repr(eps).
    """
    grid = _thresholds(eps)
    results = _run_grid(graph, grid, reps, master_seed, workers, t_max)
    records = [rec for rec, _ in results]
    if isinstance(eps, numbers.Real):
        aggregates = aggregate(eps, records)
    else:
        aggregates = {"per_epsilon": {
            repr(e): aggregate(e, records[k * reps : (k + 1) * reps]) for k, e in enumerate(grid)
        }}
    spec = ExperimentSpec(
        graph=label,
        epsilon_grid=grid,
        reps=reps,
        master_seed=master_seed,
        stop={"to_absorption": True} if t_max is None else {"t_max": t_max},
        outputs=outputs,
    )
    return ExperimentReport(spec, records, aggregates), [final for _, final in results[::reps]]


def consensus_experiment(
    g: Graph, eps: float | Sequence[float], reps: int, master_seed: int, workers: int = 1
) -> ExperimentReport:
    """Absorbing runs at eps > 1/2 (one threshold or a sequence of them, as
    for _grid_report): consensus frequency and extremist outcomes.

    Also counts the replicates whose absorbed extremist count is 0 or N
    (theta_in_0N_count); any other value would leave an active
    centrist-extremist edge, so on a connected graph that is every absorbed
    replicate.
    """
    if any(e <= 0.5 for e in _thresholds(eps)):
        raise ValueError("consensus experiment requires epsilon > 1/2")
    n = g.n_vertices

    def aggregate(eps, records):
        consensus_freq, consensus_radius = mean_and_radius([rec.consensus for rec in records])
        theta_freq, theta_radius = mean_and_radius([bool(rec.theta_inf_zero) for rec in records])
        return {
            "consensus_freq": consensus_freq,
            "consensus_radius": consensus_radius,
            "theta_zero_freq": theta_freq,
            "theta_zero_radius": theta_radius,
            "theta_in_0N_count": sum(rec.theta_inf_count in (0, n) for rec in records),
            "theorem_lower_bound": 2 * eps - 1,
        }

    label = f"n={n},m={g.n_edges}"
    return _grid_report(lambda: g, label, eps, reps, master_seed, workers, aggregate)[0]


def coexistence_experiment(
    n: int, eps: float | Sequence[float], reps: int, master_seed: int, workers: int = 1
) -> ExperimentReport:
    """Absorbing runs on the n-vertex path at eps (one threshold or a
    sequence of them, as for _grid_report); opinion-retention statistics."""

    def aggregate(eps, records):
        nus = [rec.nu for rec in records]
        threshold = max(0.0, (1 - COEXISTENCE_FRACTION_COEFF * eps) * n)
        mean_nu, mean_radius = mean_and_radius(nus)
        violation_freq, violation_radius = mean_and_radius([nu < threshold for nu in nus])
        return {
            "min_nu": min(nus),
            "mean_nu": mean_nu,
            "mean_nu_radius": mean_radius,
            "violation_threshold": threshold,
            "violation_freq": violation_freq,
            "violation_radius": violation_radius,
            "violation_bound": min(1.0, COEXISTENCE_PREFACTOR * float(np.exp(-eps * n))),
        }

    label = f"path:{n}"
    return _grid_report(lambda: path_graph(n), label, eps, reps, master_seed, workers, aggregate)[0]


def sweep_experiment(
    width: int,
    height: int,
    eps_grid,
    t_max: float,
    reps: int,
    master_seed: int,
    workers: int = 1,
) -> tuple[ExperimentReport, dict[float, np.ndarray]]:
    """Torus runs to model time t_max across a threshold grid.

    Returns the combined report (replicate index = grid_index * reps + r),
    with per_epsilon aggregates whatever the grid's length, and one snapshot
    configuration per epsilon (the first replicate's final state, the
    kernel's float64 array), ready for write_snapshot. Each threshold may
    appear once in the grid (0.0 and -0.0 are one threshold).
    """

    def aggregate(eps, records):
        mean_nu, radius = mean_and_radius([rec.nu for rec in records])
        return {
            "mean_nu": mean_nu,
            "mean_nu_radius": radius,
            "absorbed_count": sum(rec.absorbed for rec in records),
        }

    report, finals = _grid_report(
        lambda: torus_graph(width, height), f"torus:{width}x{height}", tuple(eps_grid), reps,
        master_seed, workers, aggregate, t_max, ("snapshots",),
    )
    return report, dict(zip(report.spec.epsilon_grid, finals))


def degree_bound_check(
    g: Graph, eps: float | Sequence[float], reps: int, master_seed: int, workers: int = 1
) -> ExperimentReport:
    """Frequency of non-absorbing initial states against the 2*eps*|E| bound,
    at eps (one threshold or a sequence of them, as for _grid_report).

    Also records the retained fraction nu/N per absorbing run, exploratory
    output for the bounded-degree retention conjecture (no pass/fail).
    """

    def aggregate(eps, records):
        # a replicate whose initial state was already absorbing runs zero events
        freq, radius = mean_and_radius([rec.events != 0 for rec in records])
        frac_mean, frac_radius = mean_and_radius([rec.nu / g.n_vertices for rec in records])
        return {
            "initial_nonabsorbing_freq": freq,
            "initial_nonabsorbing_radius": radius,
            "union_bound": min(1.0, 2 * eps * g.n_edges),
            "nu_fraction_mean": frac_mean,
            "nu_fraction_radius": frac_radius,
        }

    label = f"n={g.n_vertices},m={g.n_edges}"
    return _grid_report(lambda: g, label, eps, reps, master_seed, workers, aggregate)[0]


def write_snapshot(config, width: int, height: int, path) -> None:
    """Binary PGM (P5), pixel = round-half-up(opinion * 255), row-major.

    A pixel is opinion * 255 + 0.5 in float64, truncated toward zero, so an
    opinion just outside [0, 1] still writes 0 or 255; ValueError if the
    size does not match or a pixel falls outside 0..255, NaN included.
    """
    pixels = np.trunc(np.asarray(config, dtype=np.float64) * 255 + 0.5)
    if width * height != pixels.size:
        raise ValueError(f"{width}x{height} does not match {pixels.size} opinions")
    if not np.all((pixels >= 0) & (pixels <= 255)):
        raise ValueError("an opinion gives a pixel outside 0..255")
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + pixels.astype(np.uint8).tobytes())


def report_to_doc(report: ExperimentReport) -> dict:
    """JSON-style document: spec, records (without wall time), aggregates."""
    # built directly: asdict would deep-copy every field of every record
    records = [
        {
            "replicate": rec.replicate,
            "seed": rec.seed,
            "nu": rec.nu,
            "absorbed": rec.absorbed,
            "consensus": rec.consensus,
            "theta_inf_zero": rec.theta_inf_zero,
            "events": rec.events,
        }
        for rec in report.records
    ]
    return {"spec": asdict(report.spec), "records": records, "aggregates": report.aggregates}


# the JSON literals of a record's bools and None
_LITERALS = {True: "true", False: "false", None: "null"}


def report_to_json(report: ExperimentReport) -> str:
    """strict_json(report_to_doc(report)), byte for byte: an infinite radius is null.

    json.dumps with an indent runs the pure-Python encoder, about 10 us per
    record, so each record, the bulk of a consensus report, is written
    through one template (keys sorted, at its depth under indent 2) and
    spliced into the rest of the document. Only a top-level key sits at
    indent 2, and a JSON string holds no raw newline, so the splice point is
    unique.
    """
    text = strict_json(report_to_doc(ExperimentReport(report.spec, [], report.aggregates)))
    if not report.records:
        return text
    lit = _LITERALS
    records = ",\n".join([
        f'    {{\n      "absorbed": {lit[rec.absorbed]},\n'
        f'      "consensus": {lit[rec.consensus]},\n      "events": {rec.events},\n'
        f'      "nu": {rec.nu},\n      "replicate": {rec.replicate},\n      "seed": {rec.seed},\n'
        f'      "theta_inf_zero": {lit[rec.theta_inf_zero]}\n    }}'
        for rec in report.records
    ])
    return text.replace('\n  "records": []', f'\n  "records": [\n{records}\n  ]', 1)


def records_to_csv(records) -> str:
    """CSV with header replicate,seed,nu,absorbed,consensus,theta_inf_zero,events."""
    rows = ["replicate,seed,nu,absorbed,consensus,theta_inf_zero,events"]
    for rec in records:
        theta = "" if rec.theta_inf_zero is None else int(rec.theta_inf_zero)
        rows.append(
            f"{rec.replicate},{rec.seed},{rec.nu},{int(rec.absorbed)},"
            f"{int(rec.consensus)},{theta},{rec.events}"
        )
    return "\n".join(rows) + "\n"
