"""Edge-weight process coupled to the opinion dynamics.

Each oriented edge (i, j), i < j, carries the signed weight opinion(j) -
opinion(i). When an event fires on an active edge (absolute weight strictly
below eps), that edge's weight is set to exactly zero and every other edge
incident to the updated vertex has the fired weight added or subtracted
according to orientation. On a path this is weight displacement onto the
adjacent edge; weight pushed past an endpoint is discarded (the virtual-edge
convention).

The weights are a coupling, not a second process: simulate_coupled runs the
event kernel of dynamics.simulate and keeps the weights and their census as
observers of its events, so both share one event stream and drawing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .common import ceil_recip
from .dynamics import SimParams, SimReport, _run_events, _validate_initial
# unused here, but the benchmark's tracer (perfbench/child.py) rebinds this name
from .dynamics import extremist_count  # noqa: F401
from .graphs import Graph, is_connected

EMPTY = 0
BOUNDARY = -1


def weights_from_opinions(g: Graph, config) -> np.ndarray:
    """Per-edge signed difference under the canonical i < j orientation."""
    return np.array([config[j] - config[i] for i, j in g.edges])


def classify_edge(weight: float, eps: float) -> int:
    """Classify one weight: EMPTY (0), type j >= 1, or BOUNDARY (-1).

    Type j means (j-1)*eps < |weight| < j*eps. Nonzero exact multiples of eps
    occur with probability zero under random initial data but are reported as
    BOUNDARY rather than silently binned, keeping census totals conserved.
    """
    if eps <= 0:
        raise ValueError("classification requires eps > 0")
    if weight == 0.0:
        return EMPTY
    a = abs(weight)
    k = math.floor(a / eps)
    if k >= 1 and a == k * eps:
        return BOUNDARY
    if a == (k + 1) * eps:
        return BOUNDARY
    return k + 1


@dataclass(frozen=True)
class EdgeCensus:
    """Edge counts per type: counts[0] = empty, counts[j] = type j, j = 1..J."""

    counts: tuple[int, ...]
    boundary_count: int

    @property
    def n_types(self) -> int:
        return len(self.counts) - 1

    def total(self) -> int:
        return sum(self.counts) + self.boundary_count


def census(weights, eps: float) -> EdgeCensus:
    """Count weights per type with the binning of classify_edge, vectorised.

    Every step is one correctly rounded IEEE-754 operation per weight, the
    same as in classify_edge, so both agree on every input. Rejects eps <= 0,
    a non-finite weight, and a type above ceil_recip(eps).
    """
    j_cap = ceil_recip(eps)
    a = np.abs(np.asarray(weights, dtype=np.float64))
    if not np.isfinite(a).all():
        raise ValueError("census requires finite weights")
    k = np.floor(a / eps)
    boundary = ((k >= 1) & (a == k * eps)) | (a == (k + 1) * eps)
    types = np.where(a == 0.0, 0.0, k + 1)[~boundary]
    if not (types <= j_cap).all():
        raise ValueError(f"weight of type above {j_cap} for eps={eps!r}")
    counts = np.bincount(types.astype(np.intp), minlength=j_cap + 1)
    return EdgeCensus(tuple(counts.tolist()), int(np.count_nonzero(boundary)))


@dataclass
class CoupledResult:
    report: SimReport
    weights: np.ndarray
    census_trace: list[tuple[float, int, EdgeCensus]] = field(default_factory=list)


def simulate_coupled(g: Graph, init, params: SimParams, on_event=None) -> CoupledResult:
    """Evolve opinions and edge weights under one shared event stream.

    The events come from the kernel behind dynamics.simulate, so the opinion
    trajectory and report equal simulate's for the same seed; the weights
    and the census are observers on it. Weights evolve by the signed-update
    rule (the fired edge is zeroed exactly, never by subtraction). on_event,
    if given, is called after each event as on_event(time, n_events,
    opinions, weights) with live lists. The census trace is sampled at the
    opinion trace's points (event indices 1, 2, 4, ... plus the initial and
    final states); the census needs eps > 0 and is skipped for frozen
    dynamics. Only the final weights are returned.
    """
    if not is_connected(g):
        raise ValueError("dynamics require a connected graph")
    ops = _validate_initial(g, init)
    eps = params.epsilon
    edges = g.edges
    weights = [ops[j] - ops[i] for i, j in edges]
    census_trace = []

    def on_weights(t, k, eidx, tgt, old, tgt_edges) -> None:
        delta = ops[tgt] - old
        for f in tgt_edges:
            if f == eidx:
                weights[f] = 0.0
            elif edges[f][1] == tgt:
                weights[f] += delta
            else:
                weights[f] -= delta
        if on_event is not None:
            on_event(t, k, ops, weights)

    def on_sample(t, k) -> None:
        census_trace.append((t, k, census(weights, eps)))

    report = _run_events(g, ops, params, on_weights, on_sample if eps > 0.0 else None)
    return CoupledResult(report, np.array(weights), census_trace)


def census_trace_to_csv(census_trace) -> str:
    """CSV with columns time, event_index, X0..XJ, boundary."""
    if not census_trace:
        return "time,event_index,boundary\n"
    j_cap = census_trace[0][2].n_types
    header = "time,event_index," + ",".join(f"X{j}" for j in range(j_cap + 1)) + ",boundary"
    rows = [header]
    for t, idx, cen in census_trace:
        rows.append(
            f"{t:.17g},{idx}," + ",".join(str(c) for c in cen.counts) + f",{cen.boundary_count}"
        )
    return "\n".join(rows) + "\n"
