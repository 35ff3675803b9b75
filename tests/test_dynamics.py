import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctvoter import (
    SimParams,
    count_opinions,
    extremist_count,
    is_absorbing,
    make_graph,
    path_graph,
    random_initial,
    replay,
    simulate,
    spawn_seed,
)
from ctvoter.dynamics import opinions_from_csv, opinions_to_csv

from conftest import random_connected_graph


class TestRandomInitial:
    def test_range_and_distinct(self):
        vals = random_initial(path_graph(1000), seed=7)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert count_opinions(vals) == 1000

    def test_deterministic(self):
        g = path_graph(50)
        assert np.array_equal(random_initial(g, 5), random_initial(g, 5))
        assert not np.array_equal(random_initial(g, 5), random_initial(g, 6))

    def test_mean_near_half(self):
        # CLT: 3 * (1/sqrt(12)) / sqrt(1000) ~ 0.027, use the looser 0.05
        vals = random_initial(path_graph(1000), seed=20240)
        assert abs(vals.mean() - 0.5) < 0.05


class TestAbsorbingAndCounts:
    def test_absorbing_wide_gaps(self):
        assert is_absorbing(path_graph(3), [0.0, 1.0, 0.0], 0.5)

    def test_not_absorbing_close_pair(self):
        assert not is_absorbing(path_graph(3), [0.0, 0.3, 1.0], 0.5)

    def test_constant_is_absorbing(self):
        for eps in (0.0, 0.25, 1.0):
            assert is_absorbing(path_graph(4), [0.42] * 4, eps)

    def test_eps_zero_everything_absorbing(self):
        assert is_absorbing(path_graph(3), [0.1, 0.11, 0.12], 0.0)

    def test_count_opinions(self):
        assert count_opinions(np.array([0.2, 0.2, 0.7])) == 2
        assert count_opinions([0.5] * 9) == 1
        assert count_opinions(np.linspace(0, 1, 8)) == 8

    def test_extremist_count(self):
        assert extremist_count([0.1, 0.3, 0.9], 0.75) == 2
        assert extremist_count([0.5] * 5, 0.75) == 0
        with pytest.raises(ValueError):
            extremist_count([0.1], 0.5)

    def test_extremist_initial_mean(self):
        # mean over seeds of theta_0 should sit near 2*(1-eps)*N
        n, eps, reps = 100, 0.75, 400
        g = path_graph(n)
        counts = [extremist_count(random_initial(g, spawn_seed(77, i)), eps) for i in range(reps)]
        expected = 2 * (1 - eps) * n
        margin = 3 * np.std(counts, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(counts) - expected) < margin + 1e-9


class TestSimulate:
    def test_eps_zero_freezes(self):
        g = path_graph(10)
        init = random_initial(g, 3)
        r = simulate(g, init, SimParams(0.0, seed=1))
        assert r.absorbed and r.events == 0 and r.time == 0.0
        assert np.array_equal(r.final_opinions, np.asarray(init))

    def test_frozen_when_all_gaps_large(self):
        r = simulate(path_graph(3), [0.1, 0.9, 0.5], SimParams(0.3, seed=2))
        assert r.absorbed and r.events == 0

    def test_eps_one_reaches_consensus(self):
        g = random_connected_graph(12, seed=99)
        for seed in range(5):
            r = simulate(g, random_initial(g, seed), SimParams(1.0, seed=seed))
            assert r.absorbed
            assert count_opinions(r.final_opinions) == 1

    def test_determinism_bit_identical(self):
        g = random_connected_graph(15, seed=4)
        init = random_initial(g, 8)
        a = simulate(g, init, SimParams(0.6, seed=123))
        b = simulate(g, init, SimParams(0.6, seed=123))
        assert np.array_equal(a.final_opinions, b.final_opinions)
        assert a.time == b.time and a.events == b.events
        assert a.opinion_trace == b.opinion_trace
        assert a.extremist_trace == b.extremist_trace

    def test_rejects_disconnected(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            simulate(g, [0.1, 0.2, 0.3, 0.4], SimParams(0.5, seed=1))

    def test_rejects_bad_init(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            simulate(g, [0.1, 0.2], SimParams(0.5, seed=1))
        with pytest.raises(ValueError):
            simulate(g, [0.1, 0.2, 1.5], SimParams(0.5, seed=1))

    def test_stop_by_max_events(self):
        g = path_graph(50)
        r = simulate(g, random_initial(g, 1), SimParams(1.0, seed=1, max_events=10))
        assert r.events == 10 and not r.absorbed

    def test_t_max_nan_rejected_inf_means_no_limit(self):
        with pytest.raises(ValueError, match="t_max"):
            SimParams(0.5, seed=1, t_max=float("nan"))
        g = path_graph(20)
        init = random_initial(g, 1)
        r = simulate(g, init, SimParams(0.6, seed=1, t_max=float("inf")))
        assert r.absorbed
        assert r.events == simulate(g, init, SimParams(0.6, seed=1)).events

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", None, True, np.int64(1)], ids=repr)
    def test_rejects_non_int_seed(self, seed):
        with pytest.raises(TypeError, match="seed must be an int"):
            SimParams(0.5, seed=seed)

    def test_stop_by_t_max(self):
        g = path_graph(200)
        r = simulate(g, random_initial(g, 1), SimParams(1.0, seed=1, t_max=0.05))
        assert r.time == 0.05 and not r.absorbed

    def test_absorbing_only_at_end(self):
        g = path_graph(12)
        init = random_initial(g, 17)
        eps = 0.6
        flags = []

        def hook(t, k, ops):
            flags.append(is_absorbing(g, ops, eps))

        r = simulate(g, init, SimParams(eps, seed=5), on_event=hook)
        assert r.absorbed
        assert is_absorbing(g, r.final_opinions, eps)
        assert all(not f for f in flags[:-1])
        assert flags[-1]

    def test_opinion_trace_nonincreasing(self):
        g = random_connected_graph(14, seed=31)
        r = simulate(g, random_initial(g, 9), SimParams(0.8, seed=7))
        counts = [c for _, c in r.opinion_trace]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        times = [t for t, _ in r.opinion_trace]
        assert times == sorted(times)

    def test_extremist_trace_only_above_half(self):
        g = path_graph(10)
        init = random_initial(g, 2)
        assert simulate(g, init, SimParams(0.4, seed=3)).extremist_trace == []
        r = simulate(g, init, SimParams(0.9, seed=3))
        assert r.extremist_trace and r.extremist_trace[0][0] == 0.0

    @given(st.integers(3, 10), st.integers(0, 10**6), st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_values_are_copies_of_initial(self, n, seed, eps):
        g = random_connected_graph(n, seed)
        init = random_initial(g, seed ^ 0xABCD)
        r = simulate(g, init, SimParams(eps, seed=seed, max_events=500))
        initial = set(np.asarray(init).tolist())
        assert set(r.final_opinions.tolist()) <= initial
        assert count_opinions(r.final_opinions) <= n


class TestMartingale:
    def test_opinion_follower_count_is_martingale(self):
        # theta_t(x) = #{y : eta_t(y) = eta_0(x)} has constant mean 1 from
        # pairwise-distinct initial opinions; light version of the full check
        n, eps, t, reps = 10, 0.5, 1.0, 800
        g = path_graph(n)
        x = 4
        counts = []
        for i in range(reps):
            init = random_initial(g, spawn_seed(909, 2 * i))
            r = simulate(g, init, SimParams(eps, spawn_seed(909, 2 * i + 1), t_max=t))
            target = float(np.asarray(init)[x])
            counts.append(sum(1 for v in r.final_opinions if v == target))
        mean = float(np.mean(counts))
        margin = 3 * np.std(counts, ddof=1) / math.sqrt(reps)
        assert abs(mean - 1.0) < margin


class TestReplay:
    def test_copy_left_onto_right(self):
        r = replay(path_graph(2), [0.1, 0.2], 0.5, [(0, 1)])
        assert r.final_opinions.tolist() == [0.1, 0.1]

    def test_inactive_edge_is_noop(self):
        r = replay(path_graph(2), [0.1, 0.9], 0.5, [(0, 1)])
        assert r.final_opinions.tolist() == [0.1, 0.9]

    def test_direction_minus_copies_right_onto_left(self):
        r = replay(path_graph(2), [0.1, 0.2], 0.5, [(0, -1)])
        assert r.final_opinions.tolist() == [0.2, 0.2]

    def test_invalid_edge_rejected(self):
        with pytest.raises(ValueError, match="edge"):
            replay(path_graph(2), [0.1, 0.2], 0.5, [(3, 1)])

    def test_matches_is_absorbing(self):
        # after the first copy the second edge gap is 0.6 >= eps: a no-op
        r = replay(path_graph(3), [0.2, 0.5, 0.8], 0.4, [(0, 1), (1, 1)])
        assert r.final_opinions.tolist() == [0.2, 0.2, 0.8]
        assert r.absorbed and r.events == 2


class TestSerialization:
    def test_opinions_csv_round_trip(self):
        vals = random_initial(path_graph(40), seed=11)
        back = opinions_from_csv(opinions_to_csv(vals))
        assert np.array_equal(vals, back)

    def test_report_dict_fields(self):
        g = path_graph(5)
        r = simulate(g, random_initial(g, 1), SimParams(0.75, seed=2))
        doc = r.to_dict()
        assert set(doc) == {
            "final_opinions",
            "time",
            "events",
            "absorbed",
            "opinion_trace",
            "extremist_trace",
        }
        assert len(doc["final_opinions"]) == 5
