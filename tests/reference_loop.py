"""The Python event loop and connectivity search: the reference for the kernel.

run_events is the event loop of dynamics._run_events written in Python, and
reaches_all the depth-first search of graphs.is_connected; the compiled
kernel (src/ctvoter/_kernel.c) must agree with both bit for bit. use()
rebinds the package's kernel entry points to them, so a test runs any
public entry point on the reference: dynamics._run_events and the name
edge_process imports, experiments._run_chunk (one _replicate_worker per
replicate) and graphs._search. The initial draw (random_initial) stays the
kernel's, which tests/test_kernel.py holds to NumPy's.
"""

import random

import numpy as np

from ctvoter import _kernel, dynamics, edge_process, experiments, graphs
from ctvoter.dynamics import SimReport, _apply_event, _edge_lists, _event_limit, extremist_count


def run_events(g, ops, params, on_event=None, weights=None, census_types=0):
    """What dynamics._run_events returns, from the Python loop.

    ops is the array returned by _validate_initial; the loop evolves a list
    made from it. All draws come from random.Random(params.seed) in a fixed
    order per event: the holding time, then the edge index among the
    currently active edges, then the direction coin (below 1/2 copies the
    lower-index endpoint onto the higher, otherwise the reverse). The weights
    evolve on a list, copied back at the end. The samples count the opinions
    and bin the weights with edge_process.census, which raises on a weight of
    a type above census_types.
    """
    live_edge = dynamics._live
    ops = ops.tolist()
    w = None if weights is None else weights.tolist()
    edges = _edge_lists(g)
    e1, e2, inc_start, inc_edge = edges
    eps = params.epsilon
    track_extremists = eps > 0.5
    opinion_trace = []
    extremist_trace = []
    census_trace = []

    def sample(t: float, k: int) -> None:
        opinion_trace.append((t, len(set(ops))))
        if track_extremists:
            extremist_trace.append((t, extremist_count(ops, eps)))
        if census_types:
            cen = edge_process.census(w, eps)
            census_trace.append((t, k, (*cen.counts, cen.boundary_count)))

    rng = random.Random(params.seed)
    expo = rng.expovariate
    randrange = rng.randrange
    rand = rng.random
    active = [f for f in range(g.n_edges) if live_edge(ops[e1[f]], ops[e2[f]], eps)]
    pos = [-1] * g.n_edges
    for p, f in enumerate(active):
        pos[f] = p

    t = 0.0
    events = 0
    t_max = params.t_max
    max_events = _event_limit(params.max_events)

    sample(t, events)
    next_trace = 1
    stop = _kernel.LIMIT
    while active and events < max_events:
        n = len(active)
        dt = expo(2.0 * n)
        if t_max is not None and t + dt > t_max:
            t = t_max
            stop = _kernel.T_MAX
            break
        t += dt
        f = active[randrange(n)]
        events += 1
        tgt = _apply_event(ops, w, edges, eps, f if rand() < 0.5 else ~f, t, events, on_event)
        for h in inc_edge[inc_start[tgt] : inc_start[tgt + 1]]:
            live = live_edge(ops[e1[h]], ops[e2[h]], eps)
            p = pos[h]
            if live and p < 0:
                pos[h] = len(active)
                active.append(h)
            elif not live and p >= 0:
                last = active[-1]
                active[p] = last
                pos[last] = p
                active.pop()
                pos[h] = -1
        if events == next_trace:
            sample(t, events)
            next_trace *= 2

    if opinion_trace[-1][0] != t:
        sample(t, events)
    if weights is not None:
        weights[:] = w
    # the loop breaks at t_max only while an edge is active
    reason = _kernel.STOP_REASONS[stop if active else _kernel.ABSORBED]
    report = SimReport(np.array(ops), t, events, not active, opinion_trace, extremist_trace, reason)
    return report, census_trace


def reaches_all(g) -> bool:
    """True iff every vertex is reachable from vertex 0, by a search over
    the adjacency tuples."""
    seen = [False] * g.n_vertices
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for u in g.adjacency[v]:
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == g.n_vertices


def run_chunk(cell):
    """What experiments._run_chunk returns, one _replicate_worker per replicate;
    the seeds may be a uint64 array, as _run_grid's are."""
    g, eps, t_max, first, seeds, keep_final = cell
    return [
        experiments._replicate_worker((g, eps, first + r, seed, t_max, keep_final and r == 0))
        for r, seed in enumerate(np.asarray(seeds, dtype=np.uint64).tolist())
    ]


def use(monkeypatch) -> None:
    """Rebind the kernel's entry points to the reference for monkeypatch's scope."""
    monkeypatch.setattr(dynamics, "_run_events", run_events)
    monkeypatch.setattr(edge_process, "_run_events", run_events)
    monkeypatch.setattr(experiments, "_run_chunk", run_chunk)
    monkeypatch.setattr(graphs, "_search", reaches_all)
