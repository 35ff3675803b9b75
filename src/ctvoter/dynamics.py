"""Event-driven simulation of the threshold voter process on a finite graph.

Opinions live in [0, 1]; an edge is active iff its endpoint opinions are
unequal and strictly closer than the confidence threshold epsilon. Each event
picks one active edge uniformly, advances model time by an exponential
holding time with rate 2 * (number of active edges), flips a fair coin for
direction, and copies the source opinion onto the target vertex bit-exactly.
This thinned jump chain is distributionally identical to the construction in
which every edge carries an independent rate-2 Poisson clock and rings on
inactive edges are no-ops.
"""

from __future__ import annotations

import array
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .graphs import Graph, is_connected

DEFAULT_MAX_EVENTS = 10**10  # safety valve when only absorption is requested


@dataclass(frozen=True)
class SimParams:
    """Threshold, stop condition and event-stream seed for one run.

    Stop conditions compose: the run halts at the first of absorption, t_max,
    or max_events. Leaving both t_max and max_events as None means run to
    absorption (with the default event-count safety valve); t_max = inf does
    the same.
    """

    epsilon: float
    seed: int
    t_max: float | None = None
    max_events: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon out of range [0, 1]")
        # written so that NaN fails too; inf is allowed and means no limit
        if self.t_max is not None and not self.t_max >= 0:
            raise ValueError("t_max must be >= 0")
        if self.max_events is not None and self.max_events < 0:
            raise ValueError("max_events must be >= 0")


@dataclass
class SimReport:
    final_opinions: np.ndarray
    time: float
    events: int
    absorbed: bool
    opinion_trace: list[tuple[float, int]] = field(default_factory=list)
    extremist_trace: list[tuple[float, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "final_opinions": [float(v) for v in self.final_opinions],
            "time": self.time,
            "events": self.events,
            "absorbed": self.absorbed,
            "opinion_trace": [[t, c] for t, c in self.opinion_trace],
            "extremist_trace": [[t, c] for t, c in self.extremist_trace],
        }


def random_initial(g: Graph, seed: int) -> np.ndarray:
    """N independent uniform [0, 1) opinions from the seeded generator."""
    return np.random.default_rng(seed).random(g.n_vertices)


def count_opinions(config) -> int:
    """Distinct opinions under exact bit equality (dynamics only copy values)."""
    vals = config.tolist() if isinstance(config, np.ndarray) else list(config)
    return len(set(vals))


def is_absorbing(g: Graph, config, epsilon: float) -> bool:
    """True iff every edge has equal endpoints or separation at least epsilon."""
    for i, j in g.edges:
        d = config[i] - config[j]
        if d != 0.0 and -epsilon < d < epsilon:
            return False
    return True


def extremist_count(config, epsilon: float) -> int:
    """Number of vertices with opinion outside the open interval (1-eps, eps).

    Meaningful only for epsilon > 1/2, where centrists can interact with every
    extremist; rejected otherwise.
    """
    if epsilon <= 0.5:
        raise ValueError("extremist_count requires epsilon > 1/2")
    lo = 1.0 - epsilon
    return sum(1 for v in config if v <= lo or v >= epsilon)


def _validate_initial(g: Graph, init) -> list[float]:
    ops = [float(v) for v in init]
    if len(ops) != g.n_vertices:
        raise ValueError("initial configuration length != vertex count")
    if any(not 0.0 <= v <= 1.0 for v in ops):
        raise ValueError("opinions must lie in [0, 1]")
    return ops


def simulate(g: Graph, init, params: SimParams, on_event=None) -> SimReport:
    """Run the process from `init` until absorption or a stop condition.

    on_event, if given, is called after each applied event as
    on_event(time, n_events, opinions) with the live opinion list (read-only).
    A per-event hook runs the Python event loop; without one the compiled
    loop runs when it is available, with identical results.
    """
    if not is_connected(g):
        raise ValueError("dynamics require a connected graph")
    ops = _validate_initial(g, init)
    hook = None if on_event is None else lambda t, k, ops, _: on_event(t, k, ops)
    return _run_events(g, ops, params, hook)


def _run_events(
    g: Graph, ops: list[float], params: SimParams, on_event=None, on_sample=None, weights=None
) -> SimReport:
    """The event loop behind simulate and simulate_coupled.

    All draws come from random.Random(params.seed) in a fixed order per
    event: the holding time, then the edge index among the currently active
    edges, then the direction coin (below 1/2 copies the lower-index endpoint
    onto the higher, otherwise the reverse). Identical seeds give identical
    runs. Liveness is decided from opinion differences. If weights (a
    float64 array, one entry per edge) is given, it is evolved in place by
    the coupled rule: the fired edge is set to exactly 0.0 and every other
    edge at the updated vertex gains (if the vertex is its higher endpoint)
    or loses the vertex's change of opinion. After each event,
    on_event(t, n_events, opinions, weights) is called with the live lists.
    The opinion and extremist traces are sampled at event indices 1, 2, 4,
    ... plus the initial and final states, and on_sample(t, n_events,
    weights) is called at each of those points after the traces, with the
    live weights (a list or an array) or None.

    Without on_event the compiled loop of _kernel.c runs when it can be
    built; it is bit-exact with the Python loop, which is the reference and
    the fallback.
    """
    eps = params.epsilon
    track_extremists = eps > 0.5
    opinion_trace = []
    extremist_trace = []

    def sample(t: float, k: int, ops: list[float], weights) -> None:
        opinion_trace.append((t, len(set(ops))))
        if track_extremists:
            extremist_trace.append((t, extremist_count(ops, eps)))
        if on_sample is not None:
            on_sample(t, k, weights)

    run = _kernel.load() if on_event is None else None
    if run is not None:
        t, events, absorbed, ops, live = _compiled_events(run, g, ops, params, sample, weights)
    else:
        t, events, absorbed, live = _python_events(g, ops, params, on_event, sample, weights)
    if opinion_trace[-1][0] != t:
        sample(t, events, ops, live)
    return SimReport(np.array(ops), t, events, absorbed, opinion_trace, extremist_trace)


def _compiled_events(run, g: Graph, ops: list[float], params: SimParams, sample, weights):
    """Run the compiled loop in chunks that end at the trace points.

    Returns (t, events, absorbed, the final opinions as a list, weights).
    """
    e1, e2, graph_pointers = _kernel.graph_arrays(g)
    m = g.n_edges
    if weights is not None and not (
        weights.dtype == np.float64 and weights.shape == (m,) and weights.flags.c_contiguous
    ):
        raise ValueError("weights must be a contiguous float64 array, one entry per edge")
    eps = params.epsilon
    x = np.array(ops, dtype=np.float64)
    d = x[e1] - x[e2]
    live = np.flatnonzero((d != 0.0) & (-eps < d) & (d < eps))
    active = np.empty(m, dtype=np.int32)
    active[: len(live)] = live
    pos = np.full(m, -1, dtype=np.int32)
    pos[live] = np.arange(len(live), dtype=np.int32)
    state = np.array([0, len(live)], dtype=np.int64)  # events, active edges
    clock = np.zeros(1)
    mt = array.array("I", random.Random(params.seed).getstate()[1])  # 624 words + position
    # the buffers stay referenced here for as long as the kernel uses them
    pointers = graph_pointers + (
        x.ctypes.data,
        None if weights is None else weights.ctypes.data,
        active.ctypes.data,
        pos.ctypes.data,
        state.ctypes.data,
        clock.ctypes.data,
        mt.buffer_info()[0],
    )
    t_max = math.inf if params.t_max is None else params.t_max
    max_events = params.max_events if params.max_events is not None else DEFAULT_MAX_EVENTS

    sample(0.0, 0, ops, weights)
    next_trace = 1
    code = _kernel.LIMIT
    while code == _kernel.LIMIT and state[0] < max_events:
        code = run(*pointers, eps, t_max, min(next_trace, max_events))
        if state[0] == next_trace:
            sample(float(clock[0]), next_trace, x.tolist(), weights)
            next_trace *= 2
    return float(clock[0]), int(state[0]), bool(state[1] == 0), x.tolist(), weights


def _weight_rule(g: Graph, ops: list[float], weights: list[float] | None, on_event):
    """Per-event observer of the Python loop: the coupled weight rule, then on_event."""
    edges = g.edges

    def observe(t, k, eidx, tgt, old, tgt_edges) -> None:
        if weights is not None:
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

    return observe


def _python_events(g: Graph, ops: list[float], params: SimParams, on_event, sample, weights):
    """The reference loop; evolves ops and weights in place.

    Returns (t, events, absorbed, the weights as a list or None).
    """
    w = None if weights is None else weights.tolist()
    observe = None
    if w is not None or on_event is not None:
        observe = _weight_rule(g, ops, w, on_event)
    eps = params.epsilon
    rng = random.Random(params.seed)
    expo = rng.expovariate
    randrange = rng.randrange
    rand = rng.random

    m = g.n_edges
    e1 = [i for i, _ in g.edges]
    e2 = [j for _, j in g.edges]
    incident = [[] for _ in range(g.n_vertices)]
    for idx in range(m):
        incident[e1[idx]].append(idx)
        incident[e2[idx]].append(idx)

    active: list[int] = []
    pos = [-1] * m
    for idx in range(m):
        d = ops[e1[idx]] - ops[e2[idx]]
        if d != 0.0 and -eps < d < eps:
            pos[idx] = len(active)
            active.append(idx)

    t = 0.0
    events = 0
    t_max = params.t_max
    max_events = params.max_events if params.max_events is not None else DEFAULT_MAX_EVENTS

    sample(t, events, ops, w)
    next_trace = 1
    while active and events < max_events:
        n = len(active)
        dt = expo(2.0 * n)
        if t_max is not None and t + dt > t_max:
            t = t_max
            break
        t += dt
        eidx = active[randrange(n)]
        if rand() < 0.5:
            src, tgt = e1[eidx], e2[eidx]
        else:
            src, tgt = e2[eidx], e1[eidx]
        old = ops[tgt]
        ops[tgt] = ops[src]
        events += 1
        tgt_edges = incident[tgt]
        for f in tgt_edges:
            d = ops[e1[f]] - ops[e2[f]]
            live = d != 0.0 and -eps < d < eps
            p = pos[f]
            if live and p < 0:
                pos[f] = len(active)
                active.append(f)
            elif not live and p >= 0:
                last = active[-1]
                active[p] = last
                pos[last] = p
                active.pop()
                pos[f] = -1
        if observe is not None:
            observe(t, events, eidx, tgt, old, tgt_edges)
        if events == next_trace:
            sample(t, events, ops, w)
            next_trace *= 2

    if w is not None:
        weights[:] = w
    return t, events, not active, w


def replay(g: Graph, init, epsilon: float, script, on_event=None) -> SimReport:
    """Apply an explicit (edge_index, direction) event list; no randomness.

    Inactive edges are no-ops, exactly as in simulate. Scripted events carry
    no clock, so report.time counts processed events.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon out of range [0, 1]")
    ops = _validate_initial(g, init)
    processed = 0
    for eidx, direction in script:
        if not 0 <= eidx < g.n_edges:
            raise ValueError(f"invalid edge index {eidx}")
        if direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {direction!r}")
        i, j = g.edges[eidx]
        d = ops[i] - ops[j]
        if d != 0.0 and -epsilon < d < epsilon:
            if direction == 1:
                ops[j] = ops[i]
            else:
                ops[i] = ops[j]
        processed += 1
        if on_event is not None:
            on_event(float(processed), processed, ops)
    final = np.array(ops)
    return SimReport(
        final_opinions=final,
        time=float(processed),
        events=processed,
        absorbed=is_absorbing(g, ops, epsilon),
        opinion_trace=[(float(processed), count_opinions(ops))],
        extremist_trace=[],
    )


def opinions_to_csv(config) -> str:
    """One value per line, 17 significant digits (decimal round-trip exact)."""
    return "\n".join(f"{float(v):.17g}" for v in config) + "\n"


def opinions_from_csv(text: str) -> np.ndarray:
    return np.array([float(line) for line in text.split() if line.strip()])
