import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctvoter import (
    SimParams,
    census,
    classify_edge,
    count_opinions,
    make_graph,
    path_graph,
    random_initial,
    replay,
    simulate,
    simulate_coupled,
    spawn_seed,
    torus_graph,
    weights_from_opinions,
)
from ctvoter import edge_process
from ctvoter.common import ceil_recip
from ctvoter.edge_process import (
    BOUNDARY,
    EMPTY,
    MAX_CENSUS_TYPES,
    EdgeCensus,
    census_trace_to_csv,
)

from conftest import GOLDEN_CASES, golden_run, random_connected_graph


WEIGHT_GRAPHS = {
    "single": make_graph(1, []),
    "path:30": path_graph(30),
    "torus:5x6": torus_graph(5, 6),
    "star": make_graph(7, [(0, k) for k in range(6, 0, -1)]),
}


class TestWeights:
    def test_p3_signed_differences(self):
        w = weights_from_opinions(path_graph(3), [0.1, 0.5, 0.4])
        assert w.tolist() == [0.4, -0.09999999999999998]

    def test_constant_config_all_zero(self):
        w = weights_from_opinions(path_graph(4), [0.3] * 4)
        assert np.all(w == 0.0)

    def test_orientation_sign(self):
        w = weights_from_opinions(path_graph(2), [1.0, 0.0])
        assert w.tolist() == [-1.0]

    @pytest.mark.parametrize("config", [[0.1] * 3, [0.1] * 5, [[0.1] * 4]], ids=repr)
    def test_rejects_a_configuration_of_the_wrong_shape(self, config):
        # a short one used to raise IndexError, a long one to drop its extra entries
        with pytest.raises(ValueError, match="length != vertex count"):
            weights_from_opinions(path_graph(4), config)

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(WEIGHT_GRAPHS)),
        values=st.lists(
            st.sampled_from([-0.0, 0.0, 5e-324, 2**-1022, 1.0, 0.5]) | st.floats(0.0, 1.0),
            min_size=30,
            max_size=30,
        ),
        as_array=st.booleans(),
    )
    def test_bit_identical_to_scalar_differences(self, name, values, as_array):
        g = WEIGHT_GRAPHS[name]
        x = values[: g.n_vertices]
        expected = np.array([x[j] - x[i] for i, j in g.edges], dtype=np.float64)
        got = weights_from_opinions(g, np.array(x) if as_array else x)
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


class TestClassify:
    def test_empty(self):
        assert classify_edge(0.0, 0.3) == EMPTY

    def test_type_one(self):
        assert classify_edge(0.1, 0.3) == 1

    def test_type_two_negative(self):
        assert classify_edge(-0.35, 0.3) == 2

    def test_quotient_rounding_up_keeps_type(self):
        # 3 * (1/3) rounds to 1.0, above 0.9999999999999999
        assert classify_edge(0.9999999999999999, 1 / 3) == 3
        assert census([0.9999999999999999], 1 / 3).counts == (0, 0, 0, 1, 0)

    def test_boundary_exact_multiple(self):
        assert classify_edge(2 * 0.3, 0.3) == BOUNDARY
        assert classify_edge(-0.3, 0.3) == BOUNDARY

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            classify_edge(0.1, 0.0)

    @pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(ValueError, match="finite"):
            classify_edge(w, 0.5)

    @given(st.floats(-1.0, 1.0), st.floats(0.05, 1.0))
    @example(0.9999999999999999, 1 / 3)  # the quotient rounds up to 3.0
    @example(-0.9999999999999999, 1 / 3)
    @settings(max_examples=200, deadline=None)
    def test_type_bins_are_consistent(self, w, eps):
        c = classify_edge(w, eps)
        if c == EMPTY:
            assert w == 0.0
        elif c == BOUNDARY:
            assert abs(w) > 0
        else:
            assert (c - 1) * eps < abs(w) < c * eps


class TestCensus:
    def test_all_zero(self):
        g = path_graph(5)
        cen = census(weights_from_opinions(g, [0.5] * 5), 0.3)
        assert cen.counts[0] == 4 and sum(cen.counts[1:]) == 0

    def test_p3_example(self):
        cen = census(weights_from_opinions(path_graph(3), [0.1, 0.5, 0.4]), 0.3)
        assert cen.counts[1] == 1 and cen.counts[2] == 1
        assert cen.total() == 2

    def test_totals_conserved(self):
        g = random_connected_graph(9, seed=5)
        vals = random_initial(g, 12)
        for eps in (0.1, 0.35, 0.95):
            cen = census(weights_from_opinions(g, vals), eps)
            assert cen.total() == g.n_edges
            assert cen.boundary_count == 0  # continuous draws

    def test_type_one_mean_on_path(self):
        # P(|U - V| < eps) = 2*eps - eps^2 for independent uniforms
        n, eps, reps = 1000, 0.1, 120
        g = path_graph(n)
        counts = []
        for i in range(reps):
            vals = random_initial(g, spawn_seed(404, i))
            counts.append(census(weights_from_opinions(g, vals), eps).counts[1])
        expected = (n - 1) * (2 * eps - eps * eps)
        margin = 3 * np.std(counts, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(counts) - expected) < margin

    def test_initial_type_counts_binomial_tail(self):
        # frequency of X_0(j) > ceil(4*eps*n) - 1 stays within exp(-eps*n)
        # plus a sampling margin; j = 1 is the widest bin, seeds are cheap
        n, eps, reps = 200, 0.05, 10_000
        g = path_graph(n)
        cap = math.ceil(4 * eps * n) - 1
        bound = math.exp(-eps * n)
        rng_hits = 0
        for i in range(reps):
            vals = random_initial(g, spawn_seed(606, i))
            cen = census(weights_from_opinions(g, vals), eps)
            if any(c > cap for c in cen.counts[1:4]):
                rng_hits += 1
        freq = rng_hits / reps
        margin = 3 * math.sqrt(max(bound * (1 - bound), 1e-12) / reps)
        assert freq <= bound + margin


def reference_census(weights, eps) -> EdgeCensus:
    """The census as a loop over the scalar classify_edge."""
    j_cap = ceil_recip(eps)
    counts = [0] * (j_cap + 1)
    boundary = 0
    for w in weights:
        c = classify_edge(float(w), eps)
        if c == BOUNDARY:
            boundary += 1
        else:
            counts[c] += 1
    return EdgeCensus(tuple(counts), boundary)


EPS_CASES = (1 / 3, 1 / 6, 0.1, 0.02, 1.0)


@st.composite
def weights_and_eps(draw):
    """Weights biased to the bin edges: zeros, exact multiples k*eps and
    their float neighbours, of either sign, plus plain uniform values."""
    eps = draw(st.sampled_from(EPS_CASES) | st.floats(0.01, 1.0))
    multiple = st.integers(0, ceil_recip(eps)).map(lambda k: k * eps)
    edge = st.tuples(multiple, st.sampled_from((0.0, math.inf, -math.inf))).map(
        lambda m: m[0] if m[1] == 0.0 else math.nextafter(m[0], m[1])
    )
    magnitude = st.just(0.0) | edge | st.floats(0.0, 1.0)
    signed = st.tuples(magnitude, st.sampled_from((1.0, -1.0))).map(lambda m: m[0] * m[1])
    return draw(st.lists(signed, max_size=60)), eps


class TestCensusMatchesClassify:
    @given(weights_and_eps())
    @example(([], 1 / 3))
    @example(([0.9999999999999999], 1 / 3))
    @example(([-0.0, 2 * 0.1, 0.30000000000000004, 1.0], 0.1))
    @example(([0.58], 0.02))  # 0.58 / 0.02 rounds below 29, yet 29 * 0.02 == 0.58
    @settings(max_examples=400, deadline=None)
    def test_same_result_as_scalar_loop(self, case):
        weights, eps = case
        try:
            expected = reference_census(weights, eps)
        except (ValueError, OverflowError, IndexError):
            with pytest.raises(ValueError):
                census(weights, eps)
            return
        got = census(weights, eps)
        assert got == expected
        assert all(type(c) is int for c in got.counts)
        assert type(got.boundary_count) is int
        assert census(np.array(weights, dtype=float), eps) == expected

    @pytest.mark.parametrize(
        "weights, eps",
        [
            ([0.1], 0.0),
            ([0.1], -0.5),
            ([], 0.0),
            ([0.1, math.nan], 0.3),
            ([math.inf], 0.3),
            ([0.0, -math.inf], 0.3),
            ([0.2, -1.2], 0.5),  # type 3 > ceil_recip(0.5)
        ],
    )
    def test_same_rejections_as_scalar_loop(self, weights, eps):
        with pytest.raises((ValueError, OverflowError, IndexError)):
            reference_census(weights, eps)
        with pytest.raises(ValueError):
            census(weights, eps)


LIMIT_MESSAGE = r"eps >= 2\*\*-16"


class TestCensusEpsLimit:
    def test_limit_is_two_to_the_minus_16(self):
        limit = 2**-16
        assert ceil_recip(limit) == MAX_CENSUS_TYPES
        assert census([0.5, -limit / 3], limit).counts[1] == 1
        assert census([0.5], limit).n_types == MAX_CENSUS_TYPES
        for eps in (math.nextafter(limit, 0.0), 1e-7, 5e-324):
            with pytest.raises(ValueError, match=LIMIT_MESSAGE):
                census([0.5], eps)
            with pytest.raises(ValueError, match=LIMIT_MESSAGE):
                census([], eps)

    @pytest.mark.parametrize("eps", [5e-324, 1e-7, math.nextafter(2**-16, 0.0)], ids=repr)
    def test_simulate_coupled_rejects_before_any_compute(self, monkeypatch, eps):
        calls = []
        monkeypatch.setattr(edge_process, "is_connected", lambda g: calls.append(g))
        with pytest.raises(ValueError, match=LIMIT_MESSAGE):
            simulate_coupled(path_graph(2), [0.0, 0.5], SimParams(eps, 0))
        assert calls == []

    def test_simulate_coupled_at_the_limit_and_frozen(self):
        g = path_graph(4)
        init = [0.0, 2**-17, 0.5, 0.5 + 2**-18]
        res = simulate_coupled(g, init, SimParams(2**-16, 3))
        assert res.report.absorbed and res.report.events >= 2
        assert all(cen.n_types == MAX_CENSUS_TYPES for _, _, cen in res.census_trace)
        frozen = simulate_coupled(g, init, SimParams(0.0, 3))
        assert frozen.census_trace == [] and frozen.report.events == 0


class TestCoupledSimulation:
    def test_matches_plain_simulate(self):
        g = random_connected_graph(12, seed=77)
        runs = [(g, random_initial(g, 3), SimParams(0.6, seed=42))]
        runs += [golden_run(case) for case in GOLDEN_CASES]
        for g, init, params in runs:
            plain = simulate(g, init, params)
            coupled = simulate_coupled(g, init, params).report
            assert np.array_equal(plain.final_opinions, coupled.final_opinions)
            assert plain.time == coupled.time
            assert plain.events == coupled.events
            assert plain.absorbed == coupled.absorbed
            assert plain.opinion_trace == coupled.opinion_trace
            assert plain.extremist_trace == coupled.extremist_trace

    def test_weights_track_opinions(self):
        g = torus_graph(4, 4)
        init = random_initial(g, 9)
        worst = 0.0

        def hook(t, k, ops, weights):
            nonlocal worst
            fresh = weights_from_opinions(g, ops)
            worst = max(worst, float(np.max(np.abs(fresh - np.array(weights)))))

        res = simulate_coupled(g, init, SimParams(0.5, seed=6, max_events=3000), on_event=hook)
        assert res.report.events > 0
        assert worst <= 1e-9

    def test_fired_edge_weight_exactly_zero(self):
        g = path_graph(30)
        init = random_initial(g, 21)
        zero_exact = []

        def hook(t, k, ops, weights):
            zero_exact.append(any(w == 0.0 for w in weights))

        simulate_coupled(g, init, SimParams(0.4, seed=2, max_events=50), on_event=hook)
        assert all(zero_exact)

    def test_census_trace_shape_and_csv(self):
        g = path_graph(40)
        init = random_initial(g, 5)
        res = simulate_coupled(g, init, SimParams(0.3, seed=8))
        assert res.census_trace[0][:2] == (0.0, 0)
        for t, idx, cen in res.census_trace:
            assert cen.total() == g.n_edges
        text = census_trace_to_csv(res.census_trace)
        header = text.splitlines()[0].split(",")
        assert header[:2] == ["time", "event_index"] and header[-1] == "boundary"
        assert len(text.splitlines()) == len(res.census_trace) + 1


class TestPathDisplacement:
    def test_displace_right_sums_weights(self):
        # weights (0.2, 0.3): event on the first edge pushing right gives (0, 0.5)
        init = [0.1, 0.3, 0.6]
        g = path_graph(3)
        assert weights_from_opinions(g, init).tolist() == pytest.approx([0.2, 0.3])
        r = replay(g, init, 0.25, [(0, 1)])
        w = weights_from_opinions(g, r.final_opinions)
        assert w[0] == 0.0
        assert w[1] == pytest.approx(0.5)

    def test_displace_left_discards_at_boundary(self):
        init = [0.1, 0.3, 0.6]
        g = path_graph(3)
        r = replay(g, init, 0.25, [(0, -1)])
        w = weights_from_opinions(g, r.final_opinions)
        assert w[0] == 0.0
        assert w[1] == pytest.approx(0.3)

    def test_inactive_weight_never_moves(self):
        init = [0.1, 0.5, 0.6]
        g = path_graph(3)
        r = replay(g, init, 0.25, [(0, 1), (0, -1)])
        assert np.array_equal(np.asarray(r.final_opinions), np.array(init))


def _count_zero_weights(weights) -> int:
    return sum(1 for w in weights if w == 0.0)


class TestCountingLemmas:
    def test_path_identity_every_event(self):
        # opinions + empty edges = N at all times on a path with distinct initials
        n = 40
        g = path_graph(n)
        for rep in range(5):
            init = random_initial(g, spawn_seed(1212, rep))
            failures = []

            def hook(t, k, ops, weights):
                if len(set(ops)) + _count_zero_weights(weights) != n:
                    failures.append(k)

            res = simulate_coupled(g, init, SimParams(0.5, seed=rep), on_event=hook)
            assert res.report.absorbed
            assert not failures

    def test_tree_inequality_every_event(self):
        # random trees: opinions + empty edges <= N
        for rep in range(5):
            g = random_connected_graph(12, seed=rep * 7 + 1, extra_edge_prob=0.0)
            assert g.n_edges == 11
            init = random_initial(g, spawn_seed(333, rep))
            failures = []

            def hook(t, k, ops, weights):
                if len(set(ops)) + _count_zero_weights(weights) > 12:
                    failures.append(k)

            simulate_coupled(g, init, SimParams(0.5, seed=rep), on_event=hook)
            assert not failures

    def test_empty_count_nondecreasing_on_path(self):
        g = path_graph(60)
        init = random_initial(g, 77)
        counts = [0]

        def hook(t, k, ops, weights):
            counts.append(_count_zero_weights(weights))

        simulate_coupled(g, init, SimParams(0.3, seed=4), on_event=hook)
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestCycleBreaksTheIdentity:
    def test_loop_with_shared_opinion(self):
        # a cycle where every vertex agrees: N - m + 1 opinions vs m empty edges
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        config = [0.5, 0.5, 0.5, 0.5]
        w = weights_from_opinions(g, config)
        assert count_opinions(np.array(config)) + _count_zero_weights(w) == 1 + 4


FIGURE3_EDGES = [(0, 4), (1, 4), (2, 4), (0, 3)]  # star at 4 plus a pendant at 0
FIGURE3_OPINIONS = [0.30, 0.55, 0.40, 0.05, 0.45]  # A, B, C, D, E
FIGURE3_EPS = 0.3
FIGURE3_SCRIPT = [
    (1, 1),  # B's opinion onto the hub
    (2, -1),  # hub's new opinion onto C
    (0, 1),  # A's opinion onto the hub
    (3, -1),  # D's opinion onto A
    (0, 1),  # A's new opinion onto the hub
]


class TestTreeCounterexample:
    def test_caption_conditions(self):
        a, b, c, d, e = (FIGURE3_OPINIONS[i] for i in range(5))
        eps = FIGURE3_EPS
        assert abs(e - a) < eps and abs(e - b) < eps and abs(e - c) < eps
        assert abs(d - a) < eps < abs(e - d)

    def test_scripted_run_breaks_path_identity(self):
        g = make_graph(5, FIGURE3_EDGES)
        r = replay(g, FIGURE3_OPINIONS, FIGURE3_EPS, FIGURE3_SCRIPT)
        assert r.absorbed
        assert count_opinions(r.final_opinions) == 2
        empties = _count_zero_weights(weights_from_opinions(g, r.final_opinions))
        assert empties == 2
        # strict inequality: 2 + 2 < 5, so path equality fails on general trees
        assert count_opinions(r.final_opinions) + empties < g.n_vertices
