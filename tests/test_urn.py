import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctvoter import UrnState, closed_form_Y, play_random, play_strategy_S, uniform_start


class TestStrategyS:
    def test_zero_balls(self):
        steps, traj = play_strategy_S(0, 3)
        assert steps == 0 and len(traj) == 1

    def test_m2_six_steps(self):
        assert play_strategy_S(2, 4)[0] == 6

    def test_m5_and_high_boxes_untouched(self):
        steps, traj = play_strategy_S(5, 6)
        assert steps == 15
        assert all(s.counts[4:] == (5, 5, 5) for s in traj)

    def test_halts_with_box1_empty(self):
        for m in (1, 3, 7):
            _, traj = play_strategy_S(m, 5)
            assert traj[-1].counts[1] == 0

    def test_matches_closed_form_up_to_20(self):
        for m in range(21):
            steps, traj = play_strategy_S(m, 5)
            assert steps == 3 * m
            for n in range(steps + 1):
                assert traj[n] == closed_form_Y(m, n, 5)

    def test_requires_three_boxes(self):
        with pytest.raises(ValueError):
            play_strategy_S(2, 2)


class TestClosedForm:
    def test_phase_one_example(self):
        state = closed_form_Y(3, 2, 6)
        assert state.counts == (2, 3, 1, 3, 3, 3, 3)

    def test_phase_two_example(self):
        state = closed_form_Y(3, 5, 3)
        assert state.counts[1:4] == (2, 0, 2)

    def test_final_state_halted(self):
        for m in (1, 4, 9):
            state = closed_form_Y(m, 3 * m, 4)
            assert state.counts[1] == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            closed_form_Y(3, 10, 4)
        with pytest.raises(ValueError):
            closed_form_Y(3, -1, 4)

    @given(st.integers(0, 20), st.integers(3, 8))
    @settings(max_examples=50, deadline=None)
    def test_conserves_balls(self, m, j):
        for n in range(3 * m + 1):
            assert closed_form_Y(m, n, j).total() == m * j


class TestRandomPlay:
    def test_empty_box_one_halts_immediately(self):
        state = UrnState((0, 0, 3, 3), 0)
        final, steps = play_random(state, seed=1)
        assert steps == 0 and final.counts == state.counts

    def test_deterministic_per_seed(self):
        start = uniform_start(4, 6)
        assert play_random(start, seed=9) == play_random(start, seed=9)

    def test_only_box_one_occupied(self):
        # each step drains one ball; the random move may shuffle within 0..2
        for seed in range(50):
            start = UrnState((0, 6), 0)
            final, steps = play_random(start, seed=seed)
            assert final.counts[1] == 0
            assert steps <= 3 * 6

    def test_uniform_start_bounded_by_3m(self):
        for seed in range(2000):
            m = seed % 10 + 1
            j = 3 + seed % 8
            final, steps = play_random(uniform_start(m, j + 1), seed=seed)
            assert steps <= 3 * m
            assert final.counts[1] == 0

    @given(
        st.lists(st.integers(0, 6), min_size=2, max_size=9),
        st.integers(0, 10**6),
    )
    @settings(max_examples=120, deadline=None)
    def test_conservation_any_start(self, counts, seed):
        start = UrnState(tuple(counts), 0)
        final, steps = play_random(start, seed=seed)
        assert final.total() == start.total()
        assert final.counts[1] == 0
        assert steps <= start.total()  # box 0 only ever gains balls

    @pytest.mark.parametrize("seed", [1.5, "1", None, True], ids=repr)
    def test_rejects_non_int_seed(self, seed):
        with pytest.raises(TypeError, match="seed must be an int"):
            play_random(uniform_start(2, 4), seed)

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=repr)
    def test_rejects_seed_out_of_range(self, seed):
        # -7 would replay seed 7's game through random.Random
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            play_random(uniform_start(2, 4), seed)


class TestDominationLink:
    def test_path_empty_edges_bounded_by_game_maximum(self):
        # on long paths with small eps, whenever every initial edge-type count
        # is at most M = ceil(4*eps*n) - 1, the final number of empty edges
        # stays within the game's 3M worst case
        import math

        from ctvoter import SimParams, random_initial, simulate_coupled, spawn_seed
        from ctvoter.graphs import path_graph

        n, eps = 500, 0.02
        g = path_graph(n)
        cap = math.ceil(4 * eps * n) - 1
        checked = 0
        for rep in range(50):
            init = random_initial(g, spawn_seed(2323, 2 * rep))
            res = simulate_coupled(g, init, SimParams(eps, spawn_seed(2323, 2 * rep + 1)))
            assert res.report.absorbed
            initial_census = res.census_trace[0][2]
            if any(c > cap for c in initial_census.counts[1:4]):
                continue
            checked += 1
            final_empty = int(sum(1 for w in res.weights if w == 0.0))
            assert final_empty <= 3 * cap
        assert checked >= 45  # the filter almost never rejects at this scale

