"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live). All
randomness is seeded, so outcomes are reproducible bit for bit.
"""

import math
from contextlib import contextmanager

import numpy as np

from ctvoter import (
    SimParams,
    brute_force_index,
    chromatic_number_exact,
    clique_upper_bound,
    coexistence_experiment,
    coloring_construction,
    complete_graph,
    complete_index,
    consensus_experiment,
    count_opinions,
    cycle_graph,
    index_lower_bound,
    is_absorbing,
    is_bipartite,
    path_graph,
    play_random,
    play_strategy_S,
    closed_form_Y,
    random_initial,
    simulate,
    simulate_coupled,
    spawn_seed,
    sweep_experiment,
    torus_graph,
    uniform_start,
)
from ctvoter.common import ceil_recip

from conftest import EPS_GRID, petersen_graph, small_graph_family


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL — {label}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS — {label}")


def test_01_complete_graph_exactness():
    with criterion(1, "complete-graph index matches min(n, ceil(1/eps)) exactly"):
        for n in range(2, 7):
            g = complete_graph(n)
            for eps in EPS_GRID:
                expected = min(n, ceil_recip(eps))
                assert brute_force_index(g, eps) == expected == complete_index(n, eps)


def test_02_bound_sandwich():
    with criterion(2, "lower <= exact <= upper on all small connected graphs"):
        for name, g in small_graph_family(max_n=7, n_random=20, seed=2024):
            for eps in EPS_GRID:
                lower, witness = index_lower_bound(g, eps)
                exact = brute_force_index(g, eps)
                upper = clique_upper_bound(g, eps)
                assert lower <= exact <= upper, (name, eps, lower, exact, upper)
                assert is_absorbing(g, witness, eps)
                assert count_opinions(witness) == lower


def test_03_bipartite_characterization():
    with criterion(3, "full retention iff bipartite for 1/2 < eps < 1"):
        for name, g in small_graph_family(max_n=7, n_random=20, seed=2024):
            for eps in (0.55, 0.6, 0.75, 0.95):
                full = brute_force_index(g, eps) == g.n_vertices
                assert full == is_bipartite(g), (name, eps)


def test_04_coloring_witnesses():
    with criterion(4, "coloring constructions are absorbing with claimed counts"):
        cases = [
            (cycle_graph(5), 0.4), (cycle_graph(5), 0.6),
            (complete_graph(4), 0.3), (complete_graph(4), 0.5),
            (path_graph(10), 0.5), (path_graph(10), 0.95),
            (petersen_graph(), 0.4), (petersen_graph(), 0.6),
        ]
        for g, eps in cases:
            col = chromatic_number_exact(g)
            c = col.n_colors
            config = coloring_construction(g, col, eps)
            if eps < 1.0 / (c - 1):
                claimed = g.n_vertices
            else:
                sizes = [col.colors.count(j) for j in range(c)]
                claimed = max(sizes) + 1
            assert is_absorbing(g, config, eps)
            assert count_opinions(config) == claimed


def test_05_consensus_probability():
    with criterion(5, "path N=20 eps=0.75: extremists die with frequency 1/2"):
        reps = 2000
        report = consensus_experiment(path_graph(20), 0.75, reps, master_seed=20240801)
        agg = report.aggregates
        assert agg["theta_in_0N_count"] == reps
        assert abs(agg["theta_zero_freq"] - 0.5) <= 0.034
        assert agg["consensus_freq"] >= 0.5 - 0.034


def test_06_martingale():
    with criterion(6, "mean opinion-follower count stays at 1 (martingale)"):
        n, eps, t, reps = 10, 0.5, 1.0, 5000
        g = path_graph(n)
        vertices = (0, 4, 9)
        counts = {x: [] for x in vertices}
        for i in range(reps):
            init = random_initial(g, spawn_seed(61, 2 * i))
            assert count_opinions(init) == n  # pairwise-distinct initials
            r = simulate(g, init, SimParams(eps, spawn_seed(61, 2 * i + 1), t_max=t))
            vals = np.asarray(init)
            finals = r.final_opinions
            for x in vertices:
                counts[x].append(int(np.sum(finals == vals[x])))
        for x in vertices:
            mean = float(np.mean(counts[x]))
            margin = 3 * float(np.std(counts[x], ddof=1)) / math.sqrt(reps)
            assert abs(mean - 1.0) <= margin, (x, mean, margin)


def test_07_path_counting_identity():
    with criterion(7, "opinions + empty edges = N at every event on P50"):
        n = 50
        g = path_graph(n)
        for rep in range(200):
            init = random_initial(g, spawn_seed(71, 2 * rep))
            bad = []

            def hook(t, k, ops, weights):
                empties = sum(1 for w in weights if w == 0.0)
                if len(set(ops)) + empties != n:
                    bad.append(k)

            res = simulate_coupled(
                g, init, SimParams(0.5, spawn_seed(71, 2 * rep + 1)), on_event=hook
            )
            assert res.report.absorbed
            assert not bad


def test_08_coupling_consistency():
    with criterion(8, "evolved weights match opinion differences within 1e-9"):
        total_checked = 0
        worst = 0.0
        for g, eps, tag in (
            (path_graph(200), 0.4, 83),
            (torus_graph(10, 10), 1.0, 89),
        ):
            e1 = np.array([i for i, _ in g.edges])
            e2 = np.array([j for _, j in g.edges])
            checked = 0
            seed_idx = 0
            while checked < 50_000:
                init = random_initial(g, spawn_seed(tag, 2 * seed_idx))
                errs = []

                def hook(t, k, ops, weights):
                    vals = np.array(ops)
                    fresh = vals[e2] - vals[e1]
                    errs.append(float(np.max(np.abs(fresh - np.array(weights)))))

                res = simulate_coupled(
                    g,
                    init,
                    SimParams(eps, spawn_seed(tag, 2 * seed_idx + 1), max_events=60_000),
                    on_event=hook,
                )
                checked += res.report.events
                if errs:
                    worst = max(worst, max(errs))
                seed_idx += 1
            total_checked += checked
        assert total_checked >= 100_000
        assert worst <= 1e-9, worst


def test_09_coexistence():
    with criterion(9, "path N=1000 eps=0.01 keeps at least 880 opinions"):
        report = coexistence_experiment(1000, 0.01, 100, master_seed=91)
        agg = report.aggregates
        assert agg["min_nu"] >= (1 - 12 * 0.01) * 1000
        assert agg["violation_freq"] == 0.0


def test_10_urn_game():
    with criterion(10, "strategy halts at 3M matching closed form; random play <= 3M"):
        for m in range(21):
            steps, traj = play_strategy_S(m, 5)
            assert steps == 3 * m
            for n in range(steps + 1):
                assert traj[n] == closed_form_Y(m, n, 5)
        for seed in range(10_000):
            m = seed % 10 + 1
            j = 3 + seed % 8
            _, steps = play_random(uniform_start(m, j + 1), seed=spawn_seed(101, seed))
            assert steps <= 3 * m


def test_11_threshold_sweep_trend():
    with criterion(11, "mean opinion count strictly decreases along the sweep"):
        grid = [0.0, 0.2, 1 / 3, 0.5, 1.0]
        report, snapshots = sweep_experiment(
            64, 64, grid, t_max=1000.0, reps=5, master_seed=111
        )
        per = report.aggregates["per_epsilon"]
        means = [per[repr(float(eps))]["mean_nu"] for eps in grid]
        assert means[0] == 4096.0
        trend = means[1:]
        assert all(a > b for a, b in zip(trend, trend[1:])), trend
        assert set(snapshots) == set(float(e) for e in grid)


def test_12_frozen_and_voter_endpoints():
    with criterion(12, "eps=0 freezes instantly; eps=1 reaches consensus"):
        family = [
            path_graph(20),
            cycle_graph(17),
            complete_graph(9),
            torus_graph(4, 5),
            petersen_graph(),
        ]
        family += [g for _, g in small_graph_family(max_n=7, n_random=5, seed=7)[:5]]
        for g in family:
            r = simulate(g, random_initial(g, 5), SimParams(0.0, seed=5))
            assert r.absorbed and r.events == 0
        for g in family:
            assert g.n_vertices <= 20
            for s in range(100):
                r = simulate(
                    g, random_initial(g, spawn_seed(121, 2 * s)),
                    SimParams(1.0, spawn_seed(121, 2 * s + 1)),
                )
                assert r.absorbed
                assert count_opinions(r.final_opinions) == 1
