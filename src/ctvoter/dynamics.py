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

import random
from dataclasses import dataclass, field

import numpy as np

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
    """
    if not is_connected(g):
        raise ValueError("dynamics require a connected graph")
    ops = _validate_initial(g, init)
    hook = None if on_event is None else lambda t, k, *_: on_event(t, k, ops)
    return _run_events(g, ops, params, hook)


def _run_events(
    g: Graph, ops: list[float], params: SimParams, on_event=None, on_sample=None
) -> SimReport:
    """The event loop behind simulate and simulate_coupled; evolves ops in place.

    All draws come from random.Random(params.seed) in a fixed order per
    event: the holding time, then the edge index among the currently active
    edges, then the direction coin (below 1/2 copies the lower-index endpoint
    onto the higher, otherwise the reverse). Identical seeds give identical
    runs. Liveness is decided from opinion differences. After each event,
    on_event(t, n_events, edge_index, target, old_opinion, target_edges) is
    called, where target_edges lists the indices of the edges incident to the
    updated vertex. The opinion and extremist traces are sampled at event
    indices 1, 2, 4, ... plus the initial and final states, and on_sample(t,
    n_events) is called at each of those points after the traces.
    """
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
    track_extremists = eps > 0.5
    opinion_trace = []
    extremist_trace = []

    # the loop state comes in as arguments: closing over it would turn the
    # loop's hottest locals into slower cell variables
    def sample(t: float, k: int, ops: list[float]) -> None:
        opinion_trace.append((t, len(set(ops))))
        if track_extremists:
            extremist_trace.append((t, extremist_count(ops, params.epsilon)))
        if on_sample is not None:
            on_sample(t, k)

    sample(t, events, ops)
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
        if on_event is not None:
            on_event(t, events, eidx, tgt, old, tgt_edges)
        if events == next_trace:
            sample(t, events, ops)
            next_trace *= 2

    if opinion_trace[-1][0] != t:
        sample(t, events, ops)
    return SimReport(np.array(ops), t, events, not active, opinion_trace, extremist_trace)


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
