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
import ctypes
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .common import check_epsilon, check_seed
from .graphs import Graph, edge_arrays, is_connected

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
        check_seed(self.seed)
        if self.max_events is not None and (
            not isinstance(self.max_events, int) or isinstance(self.max_events, bool)
        ):
            raise TypeError(f"max_events must be an int, got {type(self.max_events).__name__}")
        check_epsilon(self.epsilon)
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
    # "absorbed", "t_max" or "max_events" (_kernel.STOP_REASONS); not serialized
    stop_reason: str | None = None

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
    """N independent uniform [0, 1) opinions: np.random.default_rng(seed).random(N).

    seed must be an int in [0, 2**64) (common.check_seed). The compiled
    kernel's ct_draw_uniform draws them bit for bit as NumPy does, without
    importing numpy.random (7 to 10 ms, once per process).
    """
    check_seed(seed)
    ops = np.empty(g.n_vertices)
    _kernel.load()["ct_draw_uniform"](ops.ctypes.data, g.n_vertices, seed)
    return ops


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
    """True iff every edge has equal endpoints or separation at least epsilon.

    _live decides each edge whose rounded difference d is nonzero with |d| <=
    epsilon, found over the endpoint arrays; every other edge is not live,
    since a nonzero exact difference rounds to a nonzero d, and rounding
    keeps |d| <= epsilon for an exact difference of at most epsilon. config
    must hold one opinion in [0, 1] per vertex, and epsilon lie in [0, 1].
    """
    check_epsilon(epsilon)
    x = _validate_initial(g, config)
    d = x[g.e1] - x[g.e2]
    edges = np.flatnonzero((d != 0.0) & (np.abs(d) <= epsilon))
    pairs = zip(x[g.e1[edges]].tolist(), x[g.e2[edges]].tolist())
    return not any(_live(a, b, epsilon) for a, b in pairs)


def extremist_count(config, epsilon: float) -> int:
    """Number of vertices with opinion outside the open interval (1-eps, eps).

    Meaningful only for epsilon > 1/2, where centrists can interact with every
    extremist; rejected otherwise.
    """
    check_epsilon(epsilon)
    if epsilon <= 0.5:
        raise ValueError("extremist_count requires epsilon > 1/2")
    lo = 1.0 - epsilon
    return sum(1 for v in config if v <= lo or v >= epsilon)


def _validate_initial(g: Graph, init) -> np.ndarray:
    """init as a C-contiguous float64 array of one opinion per vertex, each in [0, 1].

    The range is checked on the array's min and max, so NaN fails too. The
    result may share memory with init, so it is never written to.
    """
    ops = np.asarray(init, dtype=np.float64, order="C")
    if ops.shape != (g.n_vertices,):
        raise ValueError("initial configuration length != vertex count")
    if not (0.0 <= ops.min() and ops.max() <= 1.0):
        raise ValueError("opinions must lie in [0, 1]")
    return ops


def simulate(g: Graph, init, params: SimParams, on_event=None) -> SimReport:
    """Run the process from `init` until absorption or a stop condition.

    on_event, if given, is called after each applied event as
    on_event(time, n_events, opinions) with the live opinion list (read-only).
    The hook does not change the run: it is replayed from the kernel's event
    log.
    """
    if not is_connected(g):
        raise ValueError("dynamics require a connected graph")
    ops = _validate_initial(g, init)
    hook = None if on_event is None else lambda t, k, ops, _: on_event(t, k, ops)
    return _run_events(g, ops, params, hook)[0]


def _event_limit(max_events: int | None) -> int:
    """A run's event limit: max_events, DEFAULT_MAX_EVENTS for None, and at
    most _kernel.MAX_EVENTS."""
    return min(DEFAULT_MAX_EVENTS if max_events is None else max_events, _kernel.MAX_EVENTS)


def _kernel_run(
    g: Graph, eps: float, t_max: float | None, max_events: int, **fields
) -> _kernel.Run:
    """The record of a kernel run on g at eps, to t_max (None for no limit)
    and max_events (an _event_limit), which is also its until; `fields` are
    the others the run uses (its seed, buffer addresses and census types).
    Its active count -1 makes the kernel start the run."""
    t_max = math.inf if t_max is None else t_max
    return _kernel.Run(
        *_kernel.graph_pointers(g), g.n_vertices, g.n_edges, eps, t_max, max_events, max_events,
        active=-1, **fields,
    )


def _run_events(
    g: Graph, ops: np.ndarray, params: SimParams, on_event=None, weights=None, census_types=0
) -> tuple[SimReport, list[tuple[float, int, tuple[int, ...]]]]:
    """The event loop behind simulate and simulate_coupled, run by the kernel.

    ops is the array returned by _validate_initial; it is copied, never
    written to. All draws come from random.Random(params.seed)'s generator,
    which the kernel reproduces word for word, in a fixed order per event:
    the holding time, then the edge index among the currently active edges,
    then the direction coin (below 1/2 copies the lower-index endpoint onto
    the higher, otherwise the reverse). Identical seeds give identical runs.
    An edge is live iff its endpoints' exact difference is nonzero and below
    eps (_live). If weights (a contiguous float64 array, one entry per edge)
    is given, it is evolved in place by the coupled rule (_apply_event).
    After each event, on_event(t, n_events, opinions, weights) is called
    with the live lists. The opinion and extremist traces are sampled at
    event indices 1, 2, 4, ... plus the initial and final states. With
    census_types J > 0 (weights given, eps > 0) the weights' census is taken
    at the same points. Returns the report and the census trace: one (t,
    n_events, row) per trace point, the row holding the J + 2 counts of
    edge_process.census (types 0..J, then the boundary), or [] without
    census_types. The kernel counts a weight of a type above J nowhere, so
    its row sums to less than the edge count, and edge_process raises.

    One C call seeds the generator, runs the whole replicate and keeps every
    trace, census included, up to date on each event. The buffers made per
    call are array.array objects: buffer_info() gives an address in about
    0.1 us, where numpy's .ctypes.data takes about 3 us, as long as a short
    run's whole loop. The scratch buffers are this thread's kept set
    (_kernel.scratch), whose addresses are taken once, when it is allocated.
    With on_event each call runs to the end of a log chunk
    (_kernel.LOG_CHUNK events), the kernel logs each event, and the hook is
    driven by replaying the log on lists with _apply_event; at the end the
    lists must equal the kernel's opinions and weights bit for bit. The
    Python loop in tests/reference_loop.py is the reference the kernel is
    held to.
    """
    run_events = _kernel.load()["ct_run_events"]
    n, m = g.n_vertices, g.n_edges
    if weights is not None and not (
        weights.dtype == np.float64 and weights.shape == (m,) and weights.flags.c_contiguous
    ):
        raise ValueError("weights must be a contiguous float64 array, one entry per edge")
    eps = params.epsilon
    max_events = _event_limit(params.max_events)
    cap = max_events.bit_length() + 2  # samples at 0, 1, 2, 4, ... <= max_events, and the end
    # one copy of the validated opinions, into a buffer of exactly n entries
    x = array.array("d", [0.0]) * n
    memoryview(x).cast("B")[:] = memoryview(ops).cast("B")
    times = array.array("d", [0.0]) * cap
    rows = array.array("q", [0]) * (3 * cap)  # events, distinct, extremists per sample
    log = {}
    if on_event is not None:  # the event log, and the lists it is replayed on
        log_t = array.array("d", [0.0]) * _kernel.LOG_CHUNK
        log_edge = array.array("i", [0]) * _kernel.LOG_CHUNK
        log = {"log_t": log_t.buffer_info()[0], "log_edge": log_edge.buffer_info()[0]}
        lists = (ops.tolist(), None if weights is None else weights.tolist(), _edge_lists(g))
    with _kernel.scratch(n, m, cap, census_types) as (buffers, (work, table, slots, census)):
        # the buffers stay referenced here for as long as the kernel uses them
        run = _kernel_run(
            g, eps, params.t_max, max_events, seed=params.seed, ops=x.buffer_info()[0],
            weights=None if weights is None else weights.ctypes.data, work=work, table=table,
            slots=slots, trace_t=times.buffer_info()[0], trace=rows.buffer_info()[0],
            census=census, types=census_types, **log,
        )
        address = ctypes.addressof(run)
        code = _kernel.PAUSE
        while code == _kernel.PAUSE:
            first = run.events
            if on_event is not None:
                run.until = min(max_events, first + _kernel.LOG_CHUNK)
            code = run_events(address)
            if on_event is not None:
                for j in range(run.events - first):
                    _apply_event(*lists, eps, log_edge[j], log_t[j], first + j + 1, on_event)
        width = census_types + 2
        # the samples' census rows, copied out before the set is handed on
        samples = run.samples
        census = None if buffers[3] is None else buffers[3][width : (samples + 1) * width].tolist()
    if on_event is not None and any(
        a is not None and array.array("d", a).tobytes() != b.tobytes()
        for a, b in zip(lists, (x, weights))
    ):
        raise RuntimeError("the replayed event log does not match the kernel's final state")
    opinion_trace = list(zip(times[:samples], rows[1 : 3 * samples : 3]))
    extremist_trace = list(zip(times[:samples], rows[2 : 3 * samples : 3])) if eps > 0.5 else []
    report = SimReport(
        np.frombuffer(x), run.clock, run.events, run.active == 0, opinion_trace, extremist_trace,
        _kernel.STOP_REASONS[code],
    )
    census_trace = [] if census is None else [
        (times[s], rows[3 * s], tuple(census[s * width : (s + 1) * width])) for s in range(samples)
    ]
    return report, census_trace


def _edge_lists(g: Graph) -> tuple[list[int], ...]:
    """graphs.edge_arrays(g) as lists, which Python indexes fastest."""
    return tuple(a.tolist() for a in edge_arrays(g))


def _apply_event(ops, weights, edges, eps, code, t, k, on_event):
    """Apply one event to the lists ops and weights, then call on_event; returns the target.

    code is the fired edge f, or ~f when its lower endpoint edges[0][f] is
    the target; edges is _edge_lists(g). If f is live the target takes the
    source's opinion, and the coupled weight rule updates weights unless it
    is None: f's weight is set to exactly 0.0 and every other edge at the
    target gains (if the target is its higher endpoint) or loses the
    target's change of opinion. The compiled kernel states the same rule.
    """
    e1, e2, inc_start, inc_edge = edges
    f = code if code >= 0 else ~code
    src, tgt = (e1[f], e2[f]) if code >= 0 else (e2[f], e1[f])
    if _live(ops[e1[f]], ops[e2[f]], eps):
        old = ops[tgt]
        ops[tgt] = ops[src]
        if weights is not None:
            delta = ops[tgt] - old
            for h in inc_edge[inc_start[tgt] : inc_start[tgt + 1]]:
                if h == f:
                    weights[h] = 0.0
                elif e2[h] == tgt:
                    weights[h] += delta
                else:
                    weights[h] -= delta
    if on_event is not None:
        on_event(t, k, ops, weights)
    return tgt


def replay(g: Graph, init, epsilon: float, script, on_event=None) -> SimReport:
    """Apply an explicit (edge_index, direction) event list; no randomness.

    Direction 1 copies the lower-index endpoint onto the higher, -1 the
    reverse. Inactive edges are no-ops, exactly as in simulate. Scripted
    events carry no clock, so report.time counts processed events.
    """
    check_epsilon(epsilon)
    ops = _validate_initial(g, init).tolist()
    edges = _edge_lists(g)
    hook = None if on_event is None else lambda t, k, ops, _: on_event(t, k, ops)
    processed = 0
    for eidx, direction in script:
        try:
            eidx = operator.index(eidx)
        except TypeError:
            raise ValueError(f"invalid edge index {eidx!r}") from None
        if not 0 <= eidx < g.n_edges:
            raise ValueError(f"invalid edge index {eidx}")
        if direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {direction!r}")
        processed += 1
        code = eidx if direction == 1 else ~eidx
        _apply_event(ops, None, edges, epsilon, code, float(processed), processed, hook)
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
