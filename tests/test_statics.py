import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctvoter import (
    Coloring,
    brute_force_index,
    chromatic_number_exact,
    clique_upper_bound,
    coloring_construction,
    complete_graph,
    complete_index,
    count_opinions,
    cycle_graph,
    index_bounds,
    index_lower_bound,
    is_absorbing,
    is_bipartite,
    make_graph,
    parse_graph_spec,
    path_graph,
)
from ctvoter.graphs import enumerate_peels
from ctvoter.statics import BRUTE_FORCE_LIMIT, _partitions_by_class_count, peel_value

from conftest import EPS_GRID, petersen_graph, random_connected_graph


class TestCompleteIndex:
    def test_formula(self):
        assert complete_index(10, 0.3) == 4

    def test_eps_one(self):
        for n in (1, 4, 9):
            assert complete_index(n, 1.0) == 1

    def test_eps_zero_convention(self):
        assert complete_index(5, 0.0) == 5

    def test_matches_brute_force_on_grid(self):
        for n in range(2, 7):
            g = complete_graph(n)
            for eps in EPS_GRID:
                assert brute_force_index(g, eps) == complete_index(n, eps)


class TestColoringConstruction:
    def test_c5_full_n(self):
        g = cycle_graph(5)
        col = chromatic_number_exact(g)
        config = coloring_construction(g, col, 0.4)
        assert is_absorbing(g, config, 0.4)
        assert count_opinions(config) == 5

    def test_c5_class_construction(self):
        g = cycle_graph(5)
        col = Coloring((0, 1, 0, 1, 2), 3)  # class sizes (2, 2, 1)
        config = coloring_construction(g, col, 0.6)
        assert is_absorbing(g, config, 0.6)
        assert count_opinions(config) == 3

    def test_k4_two_opinions(self):
        g = complete_graph(4)
        col = Coloring((0, 1, 2, 3), 4)
        config = coloring_construction(g, col, 0.5)
        assert is_absorbing(g, config, 0.5)
        assert count_opinions(config) == 2
        assert np.sum(config == 1.0) == 3

    def test_rejects_eps_one(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            coloring_construction(g, chromatic_number_exact(g), 1.0)

    def test_rejects_improper_coloring(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="proper"):
            coloring_construction(g, Coloring((0, 0, 1), 2), 0.5)

    def test_values_in_unit_interval(self, tiny_family):
        for _, g in tiny_family:
            col = chromatic_number_exact(g)
            for eps in (0.15, 0.6, 0.95):
                config = coloring_construction(g, col, eps)
                assert np.all((config >= 0.0) & (config <= 1.0))


class TestIndexLowerBound:
    def test_c5(self):
        assert index_lower_bound(cycle_graph(5), 0.6)[0] == 3

    def test_p10_bipartite(self):
        assert index_lower_bound(path_graph(10), 0.5)[0] == 10

    def test_k4(self):
        assert index_lower_bound(complete_graph(4), 0.5)[0] == 2

    def test_eps_endpoints(self):
        g = cycle_graph(6)
        assert index_lower_bound(g, 0.0)[0] == 6
        assert index_lower_bound(g, 1.0)[0] == 1

    def test_greedy_coloring_fallback_beyond_exact_limit(self):
        from ctvoter import torus_graph

        g = torus_graph(4, 6)  # 24 vertices; even-by-even torus is bipartite
        bound, witness = index_lower_bound(g, 0.5)
        assert bound == 24
        assert is_absorbing(g, witness, 0.5)
        assert count_opinions(witness) == 24

    def test_witness_claims(self, tiny_family):
        for _, g in tiny_family:
            for eps in EPS_GRID:
                bound, witness = index_lower_bound(g, eps)
                assert is_absorbing(g, witness, eps)
                assert count_opinions(witness) == bound

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_witness_claims_just_below_regime_edge(self, n):
        # below 1/(c-1) the construction's spread alpha falls under the float
        # resolution, so the witness holds fewer than N values: the bound
        # must count the witness, not assume N
        g, eps = path_graph(n), math.nextafter(1.0, 0.0)
        bound, witness = index_lower_bound(g, eps)
        assert is_absorbing(g, witness, eps)
        assert count_opinions(witness) == bound

    @pytest.mark.parametrize("n", [6, 7, 8, 17, 18])
    def test_witnesses_absorbing_just_below_one_over_k(self, n):
        # a few ulps below 1/k, levels 1/k apart can differ by less than eps
        # in floats (0.6 - 0.4 < 0.19999999999999998): both the coloring
        # witness and the bound's witness must still be absorbing
        g = complete_graph(n)
        for k in range(1, n + 1):
            eps = math.nextafter(1.0 / k, 0.0)
            config = coloring_construction(g, Coloring(tuple(range(n)), n), eps)
            assert is_absorbing(g, config, eps), k
            lower, witness = index_lower_bound(g, eps)
            assert is_absorbing(g, witness, eps), k
            assert count_opinions(witness) == lower
            if n <= BRUTE_FORCE_LIMIT:
                assert lower <= brute_force_index(g, eps)


class TestCliqueUpperBound:
    def test_k6_tight(self):
        assert clique_upper_bound(complete_graph(6), 0.4, "exact-enumerate") == 3

    def test_c5_not_tight(self):
        g = cycle_graph(5)
        assert clique_upper_bound(g, 0.6, "exact-enumerate") == 5
        assert brute_force_index(g, 0.6) == 4

    def test_p4(self):
        assert clique_upper_bound(path_graph(4), 0.4, "exact-enumerate") == 4

    def test_eps_zero_gives_n(self):
        for g in (path_graph(5), complete_graph(4)):
            assert clique_upper_bound(g, 0.0, "greedy") == g.n_vertices

    def test_greedy_at_least_exact(self, tiny_family):
        for _, g in tiny_family:
            for eps in (0.35, 0.6):
                assert clique_upper_bound(g, eps, "greedy") >= clique_upper_bound(
                    g, eps, "exact-enumerate"
                )


@st.composite
def graphs_up_to_10(draw):
    """Any graph on 1..10 vertices: edgeless, disconnected and dense ones too."""
    n = draw(st.integers(1, 10))
    density = draw(st.floats(0.0, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return make_graph(n, [e for e in pairs if rng.random() < density])


_RECIPROCALS = st.integers(1, 12).map(lambda k: 1.0 / k)
THRESHOLDS = st.one_of(
    st.sampled_from([0.0, 1.0]),
    _RECIPROCALS,
    _RECIPROCALS.map(lambda e: math.nextafter(e, 0.0)),
    _RECIPROCALS.map(lambda e: math.nextafter(e, 1.0)),
    st.floats(0.0, 1.0),
)


def _enumerated_minimum(peels, eps):
    return min(peel_value(p, eps) for p in peels)


class TestExactPeelMinimum:
    """The memoised residual-set search against the list of every peel sequence."""

    @given(graphs_up_to_10(), THRESHOLDS)
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, g, eps):
        want = _enumerated_minimum(enumerate_peels(g), eps)
        assert clique_upper_bound(g, eps, "exact-enumerate") == want

    @pytest.mark.parametrize("spec", ["cycle:11", "cycle:12", "petersen", "torus:3x3"])
    def test_matches_enumeration_on_named_graphs(self, spec):
        g = petersen_graph() if spec == "petersen" else parse_graph_spec(spec)
        peels = enumerate_peels(g)
        for eps in (0.2, 0.3, 0.5, 0.6):
            want = _enumerated_minimum(peels, eps)
            assert clique_upper_bound(g, eps, "exact-enumerate") == want, eps

    def test_matches_enumeration_where_peels_differ(self):
        # the named graphs above give every peel the same value; on these
        # random ones the peel order matters at eps = 1 and eps = 1/2
        differ = 0
        for seed in range(40):
            g = random_connected_graph(9, seed, extra_edge_prob=0.5)
            peels = enumerate_peels(g)
            for eps in (1.0, 0.5):
                differ += len({peel_value(p, eps) for p in peels}) > 1
                want = _enumerated_minimum(peels, eps)
                assert clique_upper_bound(g, eps, "exact-enumerate") == want, (seed, eps)
        assert differ >= 10

    def test_size_limit(self):
        with pytest.raises(ValueError, match="limited"):
            clique_upper_bound(cycle_graph(13), 0.5, "exact-enumerate")


class TestBruteForce:
    def test_k3(self):
        assert brute_force_index(complete_graph(3), 0.6) == 2

    def test_p3(self):
        assert brute_force_index(path_graph(3), 0.6) == 3

    def test_c5_with_hand_checked_witness(self):
        g = cycle_graph(5)
        assert brute_force_index(g, 0.6) == 4
        witness = [0.0, 0.0, 0.7, 0.05, 0.9]
        assert is_absorbing(g, witness, 0.6)
        assert count_opinions(np.array(witness)) == 4

    def test_size_limit(self):
        with pytest.raises(ValueError, match="limited"):
            brute_force_index(path_graph(BRUTE_FORCE_LIMIT + 1), 0.5)

    def test_eps_endpoints(self):
        g = cycle_graph(5)
        assert brute_force_index(g, 0.0) == 5
        assert brute_force_index(g, 1.0) == 1

    def test_monotone_in_eps(self, tiny_family):
        for _, g in tiny_family:
            values = [brute_force_index(g, eps) for eps in EPS_GRID]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_cached_partitions_equal_fresh_ones(self):
        stirling = {(0, 0): 1}
        for n in range(BRUTE_FORCE_LIMIT + 1):
            cached = _partitions_by_class_count(n)
            assert _partitions_by_class_count(n) is cached
            assert cached == _partitions_by_class_count.__wrapped__(n)
            assert isinstance(cached, tuple)
            for m, parts in enumerate(cached):
                assert isinstance(parts, tuple)
                stirling[n, m] = (
                    1 if n == m == 0
                    else m * stirling.get((n - 1, m), 0) + stirling.get((n - 1, m - 1), 0)
                )
                assert len(parts) == len(set(parts)) == stirling[n, m], (n, m)
                for labels in parts:
                    # classes are numbered in order of their least vertex
                    assert isinstance(labels, tuple) and len(labels) == n
                    assert [c for i, c in enumerate(labels) if c not in labels[:i]] == list(range(m))


class TestBoundSandwich:
    def test_sandwich_on_family(self, tiny_family):
        for name, g in tiny_family:
            for eps in EPS_GRID:
                lower, _ = index_lower_bound(g, eps)
                exact = brute_force_index(g, eps)
                upper = clique_upper_bound(g, eps, "exact-enumerate")
                assert lower <= exact <= upper, (name, eps, lower, exact, upper)

    def test_bipartite_iff_full_retention(self, tiny_family):
        for name, g in tiny_family:
            for eps in (0.55, 0.6, 0.75, 0.95):
                full = brute_force_index(g, eps) == g.n_vertices
                assert full == is_bipartite(g), (name, eps)

    def test_bipartite_always_full_below_one(self, tiny_family):
        for name, g in tiny_family:
            if not is_bipartite(g):
                continue
            for eps in EPS_GRID:
                assert brute_force_index(g, eps) == g.n_vertices, (name, eps)


def _grid_search_index(g, eps, steps):
    """Exhaustive second oracle: max distinct count over all configurations
    quantized to steps+1 levels, keeping only absorbing ones.

    Valid comparison whenever eps is not a multiple of the grid spacing (so
    strict and non-strict separation agree) and the spacing is fine enough to
    realize every feasible value chain inside [0, 1].
    """
    levels = np.linspace(0.0, 1.0, steps + 1)
    grids = np.meshgrid(*([levels] * g.n_vertices), indexing="ij")
    configs = np.stack([a.ravel() for a in grids], axis=1)
    ok = np.ones(len(configs), dtype=bool)
    for i, j in g.edges:
        d = np.abs(configs[:, i] - configs[:, j])
        ok &= (d == 0.0) | (d > eps)
    kept = np.sort(configs[ok], axis=1)
    distinct = 1 + np.sum(np.diff(kept, axis=1) > 0, axis=1)
    return int(distinct.max())


class TestGridCrossCheck:
    # epsilons chosen away from multiples of 1/20 so the quantized search
    # decides exactly the same feasibility as the continuous problem
    GRID_EPS = (0.23, 0.37, 0.61, 0.83)

    def test_oracle_matches_exhaustive_grid(self, tiny_family):
        for name, g in tiny_family:
            if g.n_vertices > 4:
                continue
            for eps in self.GRID_EPS:
                got = brute_force_index(g, eps)
                want = _grid_search_index(g, eps, 20)
                assert got == want, (name, eps, got, want)

    def test_oracle_matches_grid_on_five_vertices(self):
        from ctvoter import make_graph

        bull = make_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
        house = make_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])
        # 13 levels: every feasible chain still fits (4 x 3/12 = 1 for the
        # widest case) and no epsilon is a multiple of 1/12
        for g in (path_graph(5), cycle_graph(5), complete_graph(5), bull, house):
            for eps in self.GRID_EPS:
                assert brute_force_index(g, eps) == _grid_search_index(g, eps, 12)


class TestDynamicEndpointsRespectIndex:
    def test_absorbed_count_never_exceeds_index(self, tiny_family):
        # the random absorbed opinion count is dominated by the deterministic
        # maximum over absorbing states
        from ctvoter import SimParams, random_initial, simulate, spawn_seed

        for name, g in tiny_family[:16]:
            for eps in (0.35, 0.6, 0.95):
                mu = brute_force_index(g, eps)
                for rep in range(5):
                    r = simulate(
                        g,
                        random_initial(g, spawn_seed(818, rep)),
                        SimParams(eps, spawn_seed(819, rep)),
                    )
                    assert r.absorbed
                    assert count_opinions(r.final_opinions) <= mu, (name, eps)


class TestIndexBounds:
    def test_assembles_exact_for_small(self):
        b = index_bounds(cycle_graph(5), 0.6)
        assert (b.lower, b.exact, b.upper) == (3, 4, 5)
        assert b.witness_lower is not None

    def test_no_exact_above_limit(self):
        b = index_bounds(path_graph(BRUTE_FORCE_LIMIT + 2), 0.6)
        assert b.exact is None
        assert b.lower <= b.upper

    def test_petersen(self):
        g = petersen_graph()
        b = index_bounds(g, 0.3)
        # chi = 3 and 0.3 < 1/2, so all ten opinions coexist
        assert b.lower == 10 and b.upper >= 10

    def test_to_dict(self):
        d = index_bounds(path_graph(4), 0.5).to_dict()
        assert set(d) == {"lower", "upper", "exact", "witness_lower"}
