"""The law of the process against an exact oracle on tiny graphs.

Every other dynamics test holds one event loop to the other bit for bit, or
to digests of its own output, so a modelling error both loops share (a rate
of 1 per live edge, a biased edge pick or coin) would pass them all. Here
the jump chain of the process is solved exactly on the configurations
reachable from a fixed start: from a configuration with L live edges it
moves to each of the 2L (live edge, direction) copies with probability
1/(2L) after a holding time Exp(2L), and it absorbs when L = 0. With Q the
transient-to-transient and R the transient-to-absorbing probabilities,
N = (I - Q)^-1 gives the law of the final configuration B = NR, the
expected number of events N1 and the expected absorption time N(1/(2L)).
Seeded `simulate` runs are held to these by gates fixed before the first
run: a chi-square statistic of the final configurations below its
1 - 1e-6 quantile, and the mean events and mean absorption time within 5
standard errors of the exact values.
"""

import math
import statistics

import numpy as np
import pytest

from ctvoter import (
    SimParams,
    complete_graph,
    cycle_graph,
    extremist_count,
    path_graph,
    random_initial,
    simulate,
    spawn_seed,
    torus_graph,
)
from ctvoter.dynamics import _live

RUNS = 20_000
# the gates, fixed before the first run
CHI2_LEVEL = 1e-6
STANDARD_ERRORS = 5.0
# the two least expected cells are merged while the least is expected fewer
# times than this
MIN_EXPECTED = 5.0

CASES = {
    "path:4": (path_graph(4), 0.5, (0.1, 0.45, 0.8, 0.3)),
    "cycle:5": (cycle_graph(5), 0.4, (0.05, 0.3, 0.6, 0.9, 0.7)),
    "complete:4": (complete_graph(4), 0.6, (0.0, 0.35, 0.7, 0.95)),
}


def exact_law(g, eps: float, init, live=_live):
    """(law, events, time) of the process from init, exactly: law maps each
    final configuration to its probability, events and time are the expected
    number of events and absorption time. live(a, b, eps) is the liveness
    rule of an edge whose endpoints hold a and b."""
    edges = list(zip(g.e1.tolist(), g.e2.tolist()))

    def moves(state):
        out = []
        for u, v in edges:
            if live(state[u], state[v], eps):
                for src, tgt in ((u, v), (v, u)):
                    nxt = list(state)
                    nxt[tgt] = state[src]
                    out.append(tuple(nxt))
        return out

    start = tuple(init)
    reach, frontier = {start: moves(start)}, [start]
    if not reach[start]:
        return {start: 1.0}, 0.0, 0.0
    while frontier:
        for nxt in reach[frontier.pop()]:
            if nxt not in reach:
                reach[nxt] = moves(nxt)
                frontier.append(nxt)
    transient = [s for s, m in reach.items() if m]
    final = [s for s, m in reach.items() if not m]
    t_index = {s: i for i, s in enumerate(transient)}
    f_index = {s: i for i, s in enumerate(final)}
    q = np.zeros((len(transient), len(transient)))
    r = np.zeros((len(transient), len(final)))
    for s in transient:
        out = reach[s]
        for nxt in out:
            if nxt in t_index:
                q[t_index[s], t_index[nxt]] += 1 / len(out)
            else:
                r[t_index[s], f_index[nxt]] += 1 / len(out)
    n = np.linalg.solve(np.eye(len(transient)) - q, np.eye(len(transient)))
    row = n[t_index[start]]
    law = dict(zip(final, (row @ r).tolist()))
    hold = np.array([1 / len(reach[s]) for s in transient])  # 1 / (2L): len(out) is 2L
    return law, float(row.sum()), float(row @ hold)


def chi2_quantile(df: int, level: float) -> float:
    """Upper `level` quantile of the chi-square law with df degrees of freedom
    (Wilson-Hilferty)."""
    z = statistics.NormalDist().inv_cdf(1 - level)
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def test_chi2_quantile_matches_known_values():
    # chi-square upper quantiles from tables: 0.05 at df 10, 0.001 at df 30
    assert chi2_quantile(10, 0.05) == pytest.approx(18.307, rel=2e-3)
    assert chi2_quantile(30, 0.001) == pytest.approx(59.703, rel=2e-3)


def test_exact_law_of_a_single_edge():
    """path:2 with a live edge: one event, each endpoint's opinion wins with
    probability 1/2, after Exp(2) time; a dead rule leaves the start final."""
    law, events, time = exact_law(path_graph(2), 0.5, (0.2, 0.4))
    assert law == {(0.2, 0.2): 0.5, (0.4, 0.4): 0.5}
    assert (events, time) == (1.0, 0.5)
    assert exact_law(path_graph(2), 0.5, (0.2, 0.4), lambda a, b, eps: False) == (
        {(0.2, 0.4): 1.0}, 0.0, 0.0
    )


@pytest.mark.parametrize("case", CASES)
def test_simulate_follows_the_exact_law(case):
    g, eps, init = CASES[case]
    law, mean_events, mean_time = exact_law(g, eps, init)
    counts, events, times = {}, [], []
    for r in range(RUNS):
        report = simulate(g, init, SimParams(eps, spawn_seed(7, r)))
        assert report.absorbed
        final = tuple(report.final_opinions.tolist())
        assert final in law, final
        counts[final] = counts.get(final, 0) + 1
        events.append(report.events)
        times.append(report.time)
    cells = sorted((RUNS * p, counts.get(state, 0)) for state, p in law.items())
    while len(cells) > 1 and cells[0][0] < MIN_EXPECTED:
        (e0, c0), (e1, c1), *rest = cells
        cells = sorted([(e0 + e1, c0 + c1), *rest])
    chi2 = sum((seen - expected) ** 2 / expected for expected, seen in cells)
    assert len(cells) >= 2
    assert chi2 < chi2_quantile(len(cells) - 1, CHI2_LEVEL), (chi2, len(cells) - 1)
    for values, exact in ((events, mean_events), (times, mean_time)):
        se = statistics.stdev(values) / math.sqrt(RUNS)
        assert abs(statistics.fmean(values) - exact) < STANDARD_ERRORS * se, (exact, se)


# ε > 1/2 and at least two fixed states per graph, each holding centrists and
# extremists on both sides; few distinct opinions keep the reachable sets small
IDENTITY_CASES = {
    "path:4": (path_graph(4), 0.6, [(0.1, 0.5, 0.95, 0.3), (0.45, 0.2, 0.7, 0.55)]),
    "cycle:5": (cycle_graph(5), 0.75, [(0.1, 0.5, 0.9, 0.5, 0.1), (0.3, 0.9, 0.3, 0.6, 0.6)]),
    "complete:4": (complete_graph(4), 0.55, [(0.0, 0.5, 0.9, 0.48), (0.2, 0.2, 0.47, 1.0)]),
}


@pytest.mark.parametrize("case", IDENTITY_CASES)
def test_extremists_die_out_with_the_centrist_fraction(case):
    """P(θ∞ = 0 | x) = c(x)/N exactly, on any connected graph at ε > 1/2.

    Call a vertex centrist if its opinion lies in (1 − ε, ε), the complement
    of what extremist_count counts, and let c be the number of centrists.
    A centrist is live with every extremist neighbour: their opinions differ
    by less than ε, as ε > 1/2. A jump across a centrist–extremist edge
    copies one endpoint's opinion onto the other, so it moves c by +1 or −1,
    each with probability 1/2 on the direction coin; every other jump leaves
    c alone (two centrists or two extremists stay so). So c is a bounded
    martingale of the jump chain. At absorption no centrist–extremist edge
    is left, so on a connected graph c∞ ∈ {0, N}, that is θ∞ = N − c∞ ∈
    {N, 0}, and optional stopping gives N · P(θ∞ = 0 | x) = E[c∞] = c(x).
    Averaged over uniform initial opinions this is 2ε − 1, the
    theorem_lower_bound of the consensus report, and consensus contains
    {θ∞ = 0}. exact_law solves the chain, so the identity holds to solver
    precision.
    """
    g, eps, states = IDENTITY_CASES[case]
    for init in states:
        n = len(init)
        centrists = n - extremist_count(init, eps)
        assert 0 < centrists < n
        law, _, _ = exact_law(g, eps, init)
        thetas = {final: extremist_count(final, eps) for final in law}
        assert set(thetas.values()) <= {0, n}
        p_zero = sum(p for final, p in law.items() if thetas[final] == 0)
        assert abs(p_zero - centrists / n) < 1e-12, (init, p_zero, centrists / n)


IDENTITY_RUNS = 4_000
# one fixed state per graph, random_initial(g, IDENTITY_STATE_SEED), and run r
# seeded spawn_seed(IDENTITY_RUN_SEED, r); seeds and gate fixed before the first run
IDENTITY_STATE_SEED = 2026
IDENTITY_RUN_SEED = 2027
SEEDED_IDENTITY_CASES = {
    "complete:6": (complete_graph(6), 0.7),
    "torus:4x4": (torus_graph(4, 4), 0.6),
    "cycle:9": (cycle_graph(9), 0.8),
    "path:12": (path_graph(12), 0.65),
}


@pytest.mark.parametrize("case", SEEDED_IDENTITY_CASES)
def test_seeded_runs_reach_consensus_with_the_centrist_fraction(case):
    """Seeded simulate runs from one fixed state x hit θ∞ = 0 with frequency
    c(x)/N within 5 standard errors of the binomial at c(x)/N, on graphs too
    large for exact_law; the identity is derived in
    test_extremists_die_out_with_the_centrist_fraction."""
    g, eps = SEEDED_IDENTITY_CASES[case]
    init = random_initial(g, IDENTITY_STATE_SEED)
    n = g.n_vertices
    centrists = n - extremist_count(init, eps)
    assert 0 < centrists < n
    hits = 0
    for r in range(IDENTITY_RUNS):
        report = simulate(g, init, SimParams(eps, spawn_seed(IDENTITY_RUN_SEED, r)))
        assert report.absorbed
        theta = extremist_count(report.final_opinions, eps)
        assert theta in (0, n), theta
        hits += theta == 0
    p = centrists / n
    se = math.sqrt(p * (1 - p) / IDENTITY_RUNS)
    assert abs(hits / IDENTITY_RUNS - p) < STANDARD_ERRORS * se, (hits / IDENTITY_RUNS, p, se)
