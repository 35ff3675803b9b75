"""Edge-weight process coupled to the opinion dynamics.

Each oriented edge (i, j), i < j, carries the signed weight opinion(j) -
opinion(i). When an event fires on an active edge (absolute weight strictly
below eps), that edge's weight is set to exactly zero and every other edge
incident to the updated vertex has the fired weight added or subtracted
according to orientation. On a path this is weight displacement onto the
adjacent edge; weight pushed past an endpoint is discarded (the virtual-edge
convention).

The weights are a coupling, not a second process: simulate_coupled runs the
event kernel of dynamics.simulate, which applies the weight rule to the
weights it is handed and keeps their census up to date on each event,
copying it at the opinion trace's points, so both share one event stream
and drawing order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .common import ceil_recip, check_epsilon
from .dynamics import SimParams, SimReport, _run_events, _validate_initial
# unused here, but the benchmark's tracer (perfbench/child.py) rebinds this name
from .dynamics import extremist_count  # noqa: F401
from .graphs import Graph, is_connected

EMPTY = 0
BOUNDARY = -1
# most nonempty edge types a census counts, so eps >= 2**-16: a census row
# holds ceil_recip(eps) + 1 counts, and a tinier eps would make rows of
# millions of columns (or overflow) for a handful of edges
MAX_CENSUS_TYPES = 2**16


def weights_from_opinions(g: Graph, config) -> np.ndarray:
    """Per-edge signed difference config[j] - config[i] under the canonical i < j orientation.

    One float64 subtraction per edge, as in Python arithmetic, so the
    weights are bit for bit those of the scalar expression. Only the length
    of config is checked: one opinion per vertex.
    """
    x = np.asarray(config, dtype=np.float64)
    if x.shape != (g.n_vertices,):
        raise ValueError("configuration length != vertex count")
    # take gathers by the int32 indices without first converting them to intp
    return x.take(g.e2) - x.take(g.e1)


def classify_edge(weight: float, eps: float) -> int:
    """Classify one weight: EMPTY (0), type j >= 1, or BOUNDARY (-1).

    Type j means (j-1)*eps < |weight| < j*eps, with the products j*eps
    rounded as floats. Nonzero exact multiples of eps occur with probability
    zero under random initial data but are reported as BOUNDARY rather than
    silently binned, keeping census totals conserved.
    """
    check_epsilon(eps)
    if eps <= 0:
        raise ValueError("classification requires eps > 0")
    if not math.isfinite(weight):
        raise ValueError("classification requires a finite weight")
    if weight == 0.0:
        return EMPTY
    a = abs(weight)
    # a / eps can round onto the next integer (0.9999999999999999 / (1/3) is
    # 3.0), so settle k on the largest integer with k*eps <= a. Both the
    # quotient and the products are within an ulp, so one step suffices.
    k = math.floor(a / eps)
    if k * eps > a:
        k -= 1
    elif (k + 1) * eps <= a:
        k += 1
    if k >= 1 and a == k * eps:
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


@functools.lru_cache(maxsize=256)
def _census_types(eps: float) -> int:
    """ceil_recip(eps), the number of nonempty types in a census at eps.

    Rejects eps <= 0 and an eps with more than MAX_CENSUS_TYPES types, that
    is eps < 2**-16. Cached per eps, so the exact rational arithmetic runs
    once per threshold, not at every trace point.
    """
    j_cap = ceil_recip(eps)
    if j_cap > MAX_CENSUS_TYPES:
        raise ValueError(
            f"the census needs eps >= 2**-16 (at most {MAX_CENSUS_TYPES} edge types), "
            f"got eps={eps!r}"
        )
    return j_cap


def census(weights, eps: float) -> EdgeCensus:
    """Count weights per type with the binning of classify_edge, vectorised.

    Every step is one correctly rounded IEEE-754 operation per weight, the
    same as in classify_edge, so both agree on every input. The census has
    ceil_recip(eps) + 1 counts. Before reading the weights it rejects an eps
    outside [0, 1] (check_epsilon), eps <= 0 and eps < 2**-16 (more than
    MAX_CENSUS_TYPES types); then a non-finite weight and a type above
    ceil_recip(eps).
    """
    check_epsilon(eps)
    j_cap = _census_types(eps)
    a = np.abs(np.asarray(weights, dtype=np.float64))
    if not np.isfinite(a).all():
        raise ValueError("census requires finite weights")
    # tally() in _kernel.c repeats these operations one for one, but floors
    # a / eps >= 0 by truncation below 2**52, which gives the same value
    k = np.floor(a / eps)
    k -= k * eps > a
    k += (k + 1) * eps <= a
    boundary = (k >= 1) & (a == k * eps)
    types = np.where(a == 0.0, 0.0, k + 1)[~boundary]
    if not (types <= j_cap).all():
        raise _type_above(j_cap, eps)
    counts = np.bincount(types.astype(np.intp), minlength=j_cap + 1)
    return EdgeCensus(tuple(counts.tolist()), int(np.count_nonzero(boundary)))


def _type_above(j_cap: int, eps: float) -> ValueError:
    return ValueError(f"weight of type above {j_cap} for eps={eps!r}")


@dataclass
class CoupledResult:
    report: SimReport
    weights: np.ndarray
    census_trace: list[tuple[float, int, EdgeCensus]] = field(default_factory=list)


def simulate_coupled(g: Graph, init, params: SimParams, on_event=None) -> CoupledResult:
    """Evolve opinions and edge weights under one shared event stream.

    The events come from the kernel behind dynamics.simulate, so the opinion
    trajectory and report equal simulate's for the same seed; the kernel
    also applies the weight rule (the fired edge is zeroed exactly, never by
    subtraction) and keeps the census of the weights, which it copies at the
    opinion trace's points (event indices 1, 2, 4, ... plus the initial and
    final states), so a run is one kernel call. on_event, if given, is
    called after each event as on_event(time, n_events, opinions, weights)
    with live lists, replayed from the kernel's event log. The census is
    skipped for frozen dynamics (eps = 0); an eps in (0, 2**-16), whose
    census would exceed MAX_CENSUS_TYPES types, is rejected with ValueError
    before any compute, and a weight of a type above ceil_recip(eps) at a
    trace point with ValueError as census does. Only the final weights are
    returned.
    """
    eps = params.epsilon
    j_cap = _census_types(eps) if eps > 0.0 else 0
    if not is_connected(g):
        raise ValueError("dynamics require a connected graph")
    ops = _validate_initial(g, init)
    weights = weights_from_opinions(g, ops)
    report, rows = _run_events(g, ops, params, on_event, weights, j_cap)
    # the kernel counts a weight of a type above j_cap nowhere
    if any(sum(row) != g.n_edges for _, _, row in rows):
        raise _type_above(j_cap, eps)
    census_trace = [(t, k, EdgeCensus(row[:-1], row[-1])) for t, k, row in rows]
    return CoupledResult(report, weights, census_trace)


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
