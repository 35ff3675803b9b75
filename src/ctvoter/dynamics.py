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
        # random.Random hashes any other object, and the kernel seeds from int keys only
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TypeError(f"seed must be an int, got {type(self.seed).__name__}")
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


def _live(a: float, b: float, eps: float) -> bool:
    """True iff the exact difference a - b is nonzero and strictly within eps.

    The rounded difference d decides every case but |d| == eps, where the
    exact difference may lie on either side of eps. There TwoSum (Knuth,
    TAOCP vol. 2, 4.2.2) recovers the rounding error err, with a - b == d +
    err exactly, and the edge is live iff err pulls d inside. The compiled
    kernel's live() states the same rule.
    """
    d = a - b
    if -eps < d < eps:
        return d != 0.0
    if d == 0.0 or (d != eps and d != -eps):
        return False
    a1 = d + b
    err = (a - a1) + (-b - (d - a1))
    return err < 0.0 if d > 0.0 else err > 0.0


def is_absorbing(g: Graph, config, epsilon: float) -> bool:
    """True iff every edge has equal endpoints or separation at least epsilon."""
    return not any(_live(config[i], config[j], epsilon) for i, j in g.edges)


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
    runs. An edge is live iff its endpoints' exact difference is nonzero and
    below eps (_live). If weights (a float64 array, one entry per edge) is
    given, it is evolved in place by the coupled rule: the fired edge is set
    to exactly 0.0 and every other edge at the updated vertex gains (if the
    vertex is its higher endpoint) or loses the vertex's change of opinion.
    After each event, on_event(t, n_events, opinions, weights) is called
    with the live lists. The opinion and extremist traces are sampled at
    event indices 1, 2, 4, ... plus the initial and final states, and
    on_sample(t, n_events, weights) is called at each of those points after
    the traces, with the live weights (a list or an array) or None.

    Without on_event the compiled kernel of _kernel.c runs when it can be
    built: one C call seeds the generator, runs the whole replicate and takes
    the trace samples, or one call per trace point when on_sample observes
    them. It is bit-exact with the Python loop, which is the reference and
    the fallback.
    """
    run = _kernel.load() if on_event is None else None
    if run is not None:
        return _compiled_events(run, g, ops, params, on_sample, weights)

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

    t, events, absorbed, live = _python_events(g, ops, params, on_event, sample, weights)
    if opinion_trace[-1][0] != t:
        sample(t, events, ops, live)
    return SimReport(np.array(ops), t, events, absorbed, opinion_trace, extremist_trace)


def _compiled_events(run, g: Graph, ops: list[float], params: SimParams, on_sample, weights):
    """Run the compiled kernel over one replicate; returns its SimReport.

    The kernel's buffers are array.array objects: buffer_info() gives an
    address in about 0.1 us, where numpy's .ctypes.data takes about 3 us, as
    long as a short run's whole loop.
    """
    m = g.n_edges
    if weights is not None and not (
        weights.dtype == np.float64 and weights.shape == (m,) and weights.flags.c_contiguous
    ):
        raise ValueError("weights must be a contiguous float64 array, one entry per edge")
    eps = params.epsilon
    t_max = math.inf if params.t_max is None else params.t_max
    max_events = params.max_events if params.max_events is not None else DEFAULT_MAX_EVENTS
    max_events = min(max_events, _kernel.MAX_EVENTS)
    cap = max_events.bit_length() + 2  # samples at 0, 1, 2, 4, ... <= max_events, and the end
    seed = abs(params.seed)
    # the 32-bit little-endian words of abs(seed), which random.seed hands to init_by_array
    key = array.array("I", [seed >> s & 0xFFFFFFFF for s in range(0, seed.bit_length() or 1, 32)])
    x = array.array("d", ops)
    work = array.array("i", [0]) * (2 * m + 625)  # active, pos, generator state
    state = array.array("q", [0, 0, 0])  # events, active edges, samples
    sample_events, counts, extremists = (array.array("q", [0]) * cap for _ in range(3))
    times = array.array("d", [0.0]) * cap
    w = work.buffer_info()[0]
    # the buffers stay referenced here for as long as the kernel uses them
    args = (
        *_kernel.graph_pointers(g),
        g.n_vertices,
        m,
        key.buffer_info()[0],
        len(key),
        x.buffer_info()[0],
        None if weights is None else weights.ctypes.data,
        w,
        w + 4 * m,
        w + 8 * m,
        state.buffer_info()[0],
        times.buffer_info()[0],
        sample_events.buffer_info()[0],
        counts.buffer_info()[0],
        extremists.buffer_info()[0],
        eps,
        t_max,
        max_events,
        on_sample is not None,
    )
    code = run(*args)
    if on_sample is not None:
        seen = 0
        while True:
            for s in range(seen, state[2]):
                on_sample(times[s], sample_events[s], weights)
            seen = state[2]
            if code != _kernel.SAMPLE:
                break
            code = run(*args)
    if code == _kernel.NO_MEMORY:
        raise MemoryError("event kernel could not allocate its scratch table")
    events, active_edges, samples = state
    t = times[samples - 1]
    opinion_trace = list(zip(times[:samples], counts[:samples]))
    extremist_trace = list(zip(times[:samples], extremists[:samples])) if eps > 0.5 else []
    return SimReport(
        np.frombuffer(x), t, events, active_edges == 0, opinion_trace, extremist_trace
    )


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
        if _live(ops[e1[idx]], ops[e2[idx]], eps):
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
            # the plain test is exact unless |d| == eps; _live settles that case
            if -eps < d < eps:
                live = d != 0.0
            else:
                live = (d == eps or d == -eps) and _live(ops[e1[f]], ops[e2[f]], eps)
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
        if _live(ops[i], ops[j], epsilon):
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
