"""Monte Carlo drivers: replicate management, aggregation, snapshot export.

Replicate seeds derive from the master seed via spawn_seed(master, i) (for
sweeps, i = grid_index * reps + replicate), and each replicate splits its
seed once more into an initial-configuration stream and an event stream.
Records are keyed by replicate index, so serial and parallel execution
produce identical reports.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .common import spawn_seed
from .dynamics import (
    SimParams,
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
    # reproducible; the extremist count is recomputable from the seed)
    wall_time: float = 0.0
    theta_inf_count: int | None = None


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
    configuration and spawn_seed(rep_seed, 1) for the event stream.
    """
    init = random_initial(g, spawn_seed(rep_seed, 0))
    params = SimParams(eps, spawn_seed(rep_seed, 1), t_max=t_max, max_events=max_events)
    return init, simulate(g, init, params)


def _replicate_worker(args) -> tuple[ReplicateRecord, list | None]:
    g, eps, index, rep_seed, t_max, max_events, want_final = args
    start = time.perf_counter()
    _, report = run_replicate(g, eps, rep_seed, t_max=t_max, max_events=max_events)
    nu = count_opinions(report.final_opinions)
    theta_zero = None
    theta_count = None
    if eps > 0.5 and report.absorbed:
        theta_count = extremist_count(report.final_opinions, eps)
        theta_zero = theta_count == 0
    record = ReplicateRecord(
        replicate=index,
        seed=rep_seed,
        nu=nu,
        absorbed=report.absorbed,
        consensus=nu == 1,
        theta_inf_zero=theta_zero,
        events=report.events,
        wall_time=time.perf_counter() - start,
        theta_inf_count=theta_count,
    )
    final = [float(v) for v in report.final_opinions] if want_final else None
    return record, final


def _run_batch(tasks, workers: int):
    if workers <= 1:
        return [_replicate_worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 4))
        return list(pool.map(_replicate_worker, tasks, chunksize=chunk))


def _run_to_absorption(g: Graph, eps: float, reps: int, master_seed: int, workers: int):
    """Records of replicates 0..reps-1 run to absorption, seeds spawn_seed(master_seed, i)."""
    tasks = [(g, eps, i, spawn_seed(master_seed, i), None, None, False) for i in range(reps)]
    return [rec for rec, _ in _run_batch(tasks, workers)]


def consensus_experiment(
    g: Graph, eps: float, reps: int, master_seed: int, workers: int = 1
) -> ExperimentReport:
    """Absorbing runs at eps > 1/2: consensus frequency and extremist outcomes.

    Also verifies, per replicate, that the absorbed extremist count is 0 or N
    (any other value would leave an active centrist-extremist edge).
    """
    if eps <= 0.5:
        raise ValueError("consensus experiment requires epsilon > 1/2")
    if not is_connected(g):
        raise ValueError("consensus experiment requires a connected graph")
    records = _run_to_absorption(g, eps, reps, master_seed, workers)

    n = g.n_vertices
    valid_count = 0
    theta_zero_flags = []
    consensus_flags = []
    for rec in records:
        theta_zero_flags.append(1.0 if rec.theta_inf_zero else 0.0)
        consensus_flags.append(1.0 if rec.consensus else 0.0)
        if rec.theta_inf_count in (0, n):
            valid_count += 1
    consensus_freq, consensus_radius = mean_and_radius(consensus_flags)
    theta_freq, theta_radius = mean_and_radius(theta_zero_flags)
    spec = ExperimentSpec(
        graph=f"n={g.n_vertices},m={g.n_edges}",
        epsilon_grid=(eps,),
        reps=reps,
        master_seed=master_seed,
        stop={"to_absorption": True},
    )
    aggregates = {
        "consensus_freq": consensus_freq,
        "consensus_radius": consensus_radius,
        "theta_zero_freq": theta_freq,
        "theta_zero_radius": theta_radius,
        "theta_in_0N_count": valid_count,
        "theorem_lower_bound": 2 * eps - 1,
    }
    return ExperimentReport(spec, records, aggregates)


def coexistence_experiment(
    n: int, eps: float, reps: int, master_seed: int, workers: int = 1
) -> ExperimentReport:
    """Absorbing runs on the n-vertex path; opinion-retention statistics."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("epsilon out of range [0, 1]")
    g = path_graph(n)
    records = _run_to_absorption(g, eps, reps, master_seed, workers)
    nus = [rec.nu for rec in records]
    threshold = (1 - COEXISTENCE_FRACTION_COEFF * eps) * n
    violations = [1.0 if nu < threshold else 0.0 for nu in nus]
    mean_nu, mean_radius = mean_and_radius(nus)
    violation_freq, violation_radius = mean_and_radius(violations)
    spec = ExperimentSpec(
        graph=f"path:{n}",
        epsilon_grid=(eps,),
        reps=reps,
        master_seed=master_seed,
        stop={"to_absorption": True},
    )
    aggregates = {
        "min_nu": min(nus),
        "mean_nu": mean_nu,
        "mean_nu_radius": mean_radius,
        "violation_threshold": threshold,
        "violation_freq": violation_freq,
        "violation_radius": violation_radius,
        "violation_bound": COEXISTENCE_PREFACTOR * float(np.exp(-eps * n)),
    }
    return ExperimentReport(spec, records, aggregates)


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

    Returns the combined report (replicate index = grid_index * reps + r) and
    one snapshot configuration per epsilon (the first replicate's final
    state), ready for write_snapshot.
    """
    g = torus_graph(width, height)
    grid = tuple(float(e) for e in eps_grid)
    tasks = []
    for k, eps in enumerate(grid):
        for r in range(reps):
            index = k * reps + r
            tasks.append(
                (g, eps, index, spawn_seed(master_seed, index), t_max, None, r == 0)
            )
    results = _run_batch(tasks, workers)
    records = [rec for rec, _ in results]
    snapshots: dict[float, np.ndarray] = {}
    per_eps = {}
    for k, eps in enumerate(grid):
        block = results[k * reps : (k + 1) * reps]
        snapshots[eps] = np.array(block[0][1])
        mean_nu, radius = mean_and_radius([rec.nu for rec, _ in block])
        per_eps[repr(eps)] = {
            "mean_nu": mean_nu,
            "mean_nu_radius": radius,
            "absorbed_count": sum(1 for rec, _ in block if rec.absorbed),
        }
    spec = ExperimentSpec(
        graph=f"torus:{width}x{height}",
        epsilon_grid=grid,
        reps=reps,
        master_seed=master_seed,
        stop={"t_max": t_max},
        outputs=("snapshots",),
    )
    return ExperimentReport(spec, records, {"per_epsilon": per_eps}), snapshots


def degree_bound_check(
    g: Graph, eps: float, reps: int, master_seed: int, workers: int = 1
) -> ExperimentReport:
    """Frequency of non-absorbing initial states against the 2*eps*|E| bound.

    Also records the retained fraction nu/N per absorbing run, exploratory
    output for the bounded-degree retention conjecture (no pass/fail).
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("epsilon out of range [0, 1]")
    records = _run_to_absorption(g, eps, reps, master_seed, workers)
    # a replicate whose initial state was already absorbing runs zero events
    nonabsorbing = [0.0 if rec.events == 0 else 1.0 for rec in records]
    freq, radius = mean_and_radius(nonabsorbing)
    fractions = [rec.nu / g.n_vertices for rec in records]
    frac_mean, frac_radius = mean_and_radius(fractions)
    spec = ExperimentSpec(
        graph=f"n={g.n_vertices},m={g.n_edges}",
        epsilon_grid=(eps,),
        reps=reps,
        master_seed=master_seed,
        stop={"to_absorption": True},
    )
    aggregates = {
        "initial_nonabsorbing_freq": freq,
        "initial_nonabsorbing_radius": radius,
        "union_bound": min(1.0, 2 * eps * g.n_edges),
        "nu_fraction_mean": frac_mean,
        "nu_fraction_radius": frac_radius,
    }
    return ExperimentReport(spec, records, aggregates)


def write_snapshot(config, width: int, height: int, path) -> None:
    """Binary PGM (P5), pixel = round-half-up(opinion * 255), row-major."""
    values = [float(v) for v in config]
    if width * height != len(values):
        raise ValueError(f"{width}x{height} does not match {len(values)} opinions")
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    pixels = bytes(int(v * 255 + 0.5) for v in values)
    with open(path, "wb") as fh:
        fh.write(header + pixels)


def report_to_doc(report: ExperimentReport) -> dict:
    """JSON-style document: spec, records (without wall time), aggregates."""
    records = []
    for rec in report.records:
        d = asdict(rec)
        d.pop("wall_time")
        d.pop("theta_inf_count")
        records.append(d)
    return {"spec": asdict(report.spec), "records": records, "aggregates": report.aggregates}


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report_to_doc(report), sort_keys=True, indent=2) + "\n"


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
