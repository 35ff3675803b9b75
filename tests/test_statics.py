import collections
import functools
import itertools
import math
from fractions import Fraction

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
from ctvoter.common import ceil_recip
from ctvoter.graphs import (
    CliquePeel,
    _k_coloring,
    _neighbor_masks,
    clique_peel,
    enumerate_peels,
)
import ctvoter.statics as statics
from ctvoter.statics import BRUTE_FORCE_LIMIT, peel_value

from conftest import EPS_GRID, petersen_graph, random_connected_graph, small_graph_family


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
        assert clique_upper_bound(complete_graph(6), 0.4) == 3

    def test_c5_not_tight(self):
        g = cycle_graph(5)
        assert clique_upper_bound(g, 0.6) == 5
        assert brute_force_index(g, 0.6) == 4

    def test_p4(self):
        assert clique_upper_bound(path_graph(4), 0.4) == 4

    def test_eps_zero_gives_n(self):
        for g in (path_graph(5), complete_graph(4)):
            assert peel_value(clique_peel(g), 0.0) == g.n_vertices

    def test_greedy_at_least_exact(self, tiny_family):
        for _, g in tiny_family:
            for eps in (0.35, 0.6):
                assert peel_value(clique_peel(g), eps) >= clique_upper_bound(g, eps)


@st.composite
def graphs_on(draw, lo: int, hi: int):
    """Any graph on lo..hi vertices: edgeless, disconnected and dense ones too."""
    n = draw(st.integers(lo, hi))
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

    @given(graphs_on(1, 10), THRESHOLDS)
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, g, eps):
        want = _enumerated_minimum(enumerate_peels(g), eps)
        assert clique_upper_bound(g, eps) == want

    @pytest.mark.parametrize(
        "spec", ["cycle:11", "cycle:12", "petersen", "torus:3x3", "k4+path", "k5+c5"]
    )
    def test_matches_enumeration_on_named_graphs(self, spec):
        # k4+path (K4 with a pendant path) at eps 1/2 and k5+c5 (K5 joined to
        # C5 by one edge) at eps 1/3 have a clique above the cap, and a
        # residual that fits the cap once that clique is peeled
        if spec == "petersen":
            g = petersen_graph()
        elif spec == "k4+path":
            g = make_graph(7, [(i, j) for i in range(4) for j in range(i + 1, 4)]
                           + [(3, 4), (4, 5), (5, 6)])
        elif spec == "k5+c5":
            g = make_graph(10, [(i, j) for i in range(5) for j in range(i + 1, 5)]
                           + [(5 + i, 5 + (i + 1) % 5) for i in range(5)] + [(0, 5)])
        else:
            g = parse_graph_spec(spec)
        peels = enumerate_peels(g)
        for eps in (0.2, 0.3, 1 / 3, 0.5, 0.6):
            want = _enumerated_minimum(peels, eps)
            assert clique_upper_bound(g, eps) == want, eps

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
                assert clique_upper_bound(g, eps) == want, (seed, eps)
        assert differ >= 10

    def test_beyond_the_enumeration_limit_the_bound_is_the_greedy_peel(self):
        # beyond PEEL_ENUM_LIMIT = 12 vertices there is no exact minimum to
        # take, so the bound is the greedy peel's value
        for spec in ("cycle:13", "torus:3x5", "torus:4x4"):
            g = parse_graph_spec(spec)
            for eps in (0.2, 0.3, 0.5, 0.6):
                assert clique_upper_bound(g, eps) == peel_value(clique_peel(g), eps), (spec, eps)


def _clique_term(eps: float):
    """Oracle, written apart from complete_index: a peeled clique's term,
    size -> min(size, ceil(1/eps)); size at eps=0."""
    if eps == 0:
        return lambda size: size
    j_cap = ceil_recip(eps)
    return lambda size: min(size, j_cap)


def _fraction_k_allow(n: int, eps: float) -> int:
    """Oracle: the largest k < n with k*eps < 1, counted up in exact rationals."""
    feps = Fraction(eps)
    k_allow = 0
    while k_allow < n - 1 and (k_allow + 1) * feps < 1:
        k_allow += 1
    return k_allow


@functools.cache
def _partitions_by_class_count(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All set partitions of range(n), grouped by number of classes; built once per n.

    Entry m lists the partitions with m classes, each as the class label of
    every vertex (classes numbered in order of their least vertex). Tuples
    throughout, so the shared cache cannot be changed by a caller.
    """
    grouped: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    labels = [0] * n

    def rec(i: int, m: int) -> None:
        if i == n:
            grouped[m].append(tuple(labels))
            return
        for c in range(m + 1):
            labels[i] = c
            rec(i + 1, max(m, c + 1))

    rec(0, 0)
    return tuple(tuple(parts) for parts in grouped)


def _exists_ordering(qadj: list[int], m: int, k_allow: int) -> bool:
    """Oracle: is there a total order of the m classes whose value span fits in [0, 1]?

    Placing classes left to right, each class gets the longest-path label of
    the order-constraint system: at least its predecessor's label, and one
    eps-step above any already placed quotient neighbor. All labels are
    integer multiples of eps, so the infimum span is label*eps and the order
    is feasible exactly when the final label is at most k_allow (the largest
    k with k*eps < 1). Candidates are tried lowest-label first; a class whose
    label would exceed k_allow prunes the branch, since labels only grow
    down the order. Written apart from graphs._k_coloring, the search
    behind chromatic_number_exact.
    """
    full = (1 << m) - 1
    labels = [0] * m

    def rec(placed: int, last_label: int) -> bool:
        if placed == full:
            return True
        cands = []
        for c in range(m):
            if placed >> c & 1:
                continue
            lab = last_label
            nb = qadj[c] & placed
            while nb:
                p = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                if labels[p] + 1 > lab:
                    lab = labels[p] + 1
            if lab <= k_allow:
                cands.append((lab, c))
        cands.sort()
        for lab, c in cands:
            labels[c] = lab
            if rec(placed | (1 << c), lab):
                return True
        return False

    return rec(0, 0)


def _greedy_clique_from(qadj: list[int], start: int) -> int:
    """Size of the clique grown from start, adding the lowest common neighbour each step."""
    size, cand = 1, qadj[start]
    while cand:
        v = (cand & -cand).bit_length() - 1
        size += 1
        cand &= (cand - 1) & qadj[v]
    return size


def _greedy_clique_size(qadj: list[int], m: int) -> int:
    return max(_greedy_clique_from(qadj, start) for start in range(m))


def _oracle_brute_force(g, eps: float) -> int:
    """Reference for brute_force_index: every partition, unpruned, with _fraction_k_allow."""
    n = g.n_vertices
    if eps == 0 or g.n_edges == 0:
        return n
    return _oracle_by_k_allow(g, _fraction_k_allow(n, eps))


@functools.cache
def _oracle_by_k_allow(g, k_allow: int) -> int:
    grouped = _partitions_by_class_count(g.n_vertices)
    for m in range(g.n_vertices, 0, -1):
        for cls_of in grouped[m]:
            qadj = [0] * m
            for i, j in g.edges:
                a, b = cls_of[i], cls_of[j]
                if a != b:
                    qadj[a] |= 1 << b
                    qadj[b] |= 1 << a
            if _greedy_clique_size(qadj, m) - 1 <= k_allow and _exists_ordering(qadj, m, k_allow):
                return m
    return 1


# 0, 1, and every 1/k (k = 2..13) with both of its float neighbours
_ORACLE_EPS = (0.0, 1.0) + tuple(
    e
    for k in range(2, 14)
    for e in (math.nextafter(1 / k, 0.0), 1 / k, math.nextafter(1 / k, 1.0))
)


class TestCompleteIndexOracles:
    """Every use of the complete-graph index against a per-clique term and a
    rational k_allow count written apart from complete_index."""

    def test_k_allow_is_complete_index_minus_one(self):
        for n in range(1, 15):
            for eps in _ORACLE_EPS[1:]:
                assert complete_index(n, eps) - 1 == _fraction_k_allow(n, eps), (n, eps)

    def test_brute_force_matches_the_rational_count(self):
        for name, g in small_graph_family():
            for eps in _ORACLE_EPS:
                assert brute_force_index(g, eps) == _oracle_brute_force(g, eps), (name, eps)

    def test_peel_bounds_match_the_clique_term(self):
        family = small_graph_family() + [("petersen", petersen_graph())]
        for name, g in family:
            greedy, peels = clique_peel(g), enumerate_peels(g)
            for eps in _ORACLE_EPS:
                term = _clique_term(eps)
                want_greedy = sum(term(size) for size in greedy.sizes())
                want_exact = min(sum(term(size) for size in p.sizes()) for p in peels)
                assert peel_value(greedy, eps) == want_greedy, (name, eps)
                assert clique_upper_bound(g, eps) == want_exact, (name, eps)

    def test_empty_peel_is_worth_nothing(self):
        for eps in _ORACLE_EPS:
            assert peel_value(CliquePeel(()), eps) == 0


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

    def test_pruned_search_matches_oracle_on_every_labelled_graph(self):
        # every graph on 1..5 labelled vertices, at 0, 1 and each 1/k (k = 2..6)
        # with both of its float neighbours; below 1/5 k_allow is N - 1 here
        eps_values = tuple(e for e in _ORACLE_EPS if e == 0.0 or e > 1 / 7)
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for chosen in itertools.product((False, True), repeat=len(pairs)):
                g = make_graph(n, [p for p, keep in zip(pairs, chosen) if keep])
                for eps in eps_values:
                    assert brute_force_index(g, eps) == _oracle_brute_force(g, eps), (g.edges, eps)

    @given(graphs_on(6, BRUTE_FORCE_LIMIT), THRESHOLDS)
    @settings(max_examples=150, deadline=None)
    def test_pruned_search_matches_oracle_on_random_graphs(self, g, eps):
        assert brute_force_index(g, eps) == _oracle_brute_force(g, eps)

    @given(
        graphs_on(6, BRUTE_FORCE_LIMIT),
        st.sampled_from(_ORACLE_EPS),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_values_ignore_vertex_labels(self, g, eps, rng):
        # the searches visit vertices in label order, and the benchmark's
        # index workload relabels its graphs by seed
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        h = make_graph(g.n_vertices, [(perm[i], perm[j]) for i, j in g.edges])
        assert brute_force_index(h, eps) == brute_force_index(g, eps)
        assert clique_upper_bound(h, eps) == clique_upper_bound(g, eps)

    def test_search_meets_each_map_once_up_to_renaming_parts(self, monkeypatch):
        # the search reads masks[v] once per node at depth v, and those nodes
        # are restricted-growth strings of length v with at most K parts
        reads = collections.Counter()

        class CountedMasks(list):
            def __getitem__(self, v):
                reads[v] += 1
                return super().__getitem__(v)

        monkeypatch.setattr(statics, "_neighbor_masks", lambda g: CountedMasks(_neighbor_masks(g)))
        for n in range(2, BRUTE_FORCE_LIMIT + 1):
            for eps in (0.2, 0.3, 0.5):
                reads.clear()
                brute_force_index(complete_graph(n), eps)
                k = complete_index(n, eps)
                assert reads[0] == 1, (n, eps)  # the root
                for v, count in reads.items():
                    strings = sum(map(len, _partitions_by_class_count(v)[: k + 1]))
                    assert count <= strings, (n, eps, v)

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


def _assert_coloring_iff_ordering(masks: list[int]) -> None:
    m = len(masks)
    for k in range(1, m + 1):
        colors = _k_coloring(masks, k)
        assert (colors is not None) == _exists_ordering(masks, m, k - 1), (masks, k)
        if colors is not None:
            assert all(0 <= c < k for c in colors)
            assert all(colors[u] != colors[v] for u in range(m) for v in range(m)
                       if masks[u] >> v & 1)


class TestColoringIsOrdering:
    """graphs._k_coloring, the search behind chromatic_number_exact, against
    _exists_ordering, the search over value orderings written apart from it."""

    def test_every_labelled_graph(self):
        for m in range(1, 6):
            pairs = list(itertools.combinations(range(m), 2))
            for chosen in itertools.product((False, True), repeat=len(pairs)):
                masks = [0] * m
                for (u, v), keep in zip(pairs, chosen):
                    if keep:
                        masks[u] |= 1 << v
                        masks[v] |= 1 << u
                _assert_coloring_iff_ordering(masks)

    @given(graphs_on(6, BRUTE_FORCE_LIMIT))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, g):
        _assert_coloring_iff_ordering(_neighbor_masks(g))


class TestBoundSandwich:
    def test_sandwich_on_family(self, tiny_family):
        for name, g in tiny_family:
            for eps in EPS_GRID:
                lower, _ = index_lower_bound(g, eps)
                exact = brute_force_index(g, eps)
                upper = clique_upper_bound(g, eps)
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
