import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctvoter import graphs
from ctvoter.graphs import (
    chromatic_number_exact,
    clique_peel,
    complete_graph,
    cycle_graph,
    enumerate_peels,
    generate_graph,
    greedy_coloring,
    is_bipartite,
    is_connected,
    is_proper_coloring,
    load_graph,
    make_graph,
    max_clique,
    parse_graph_spec,
    path_graph,
    render_graph,
    torus_graph,
)

from conftest import petersen_graph, random_connected_graph


class TestGenerators:
    def test_path(self):
        g = path_graph(5)
        assert g.n_vertices == 5 and g.n_edges == 4
        assert is_connected(g) and is_bipartite(g)

    def test_torus_3x3(self):
        g = torus_graph(3, 3)
        assert g.n_vertices == 9 and g.n_edges == 18
        assert all(g.degree(v) == 4 for v in range(9))

    def test_complete_6(self):
        g = complete_graph(6)
        assert g.n_edges == 15
        assert len(max_clique(g)) == 6

    def test_torus_rejects_small_dims(self):
        with pytest.raises(ValueError):
            torus_graph(2, 5)
        with pytest.raises(ValueError):
            generate_graph("torus", (4, 2))

    def test_cycle_rejects_short(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_handshake_identity(self):
        for g in (path_graph(7), cycle_graph(6), complete_graph(5), torus_graph(3, 4)):
            assert sum(g.degree(v) for v in range(g.n_vertices)) == 2 * g.n_edges

    def test_parse_graph_spec(self):
        assert parse_graph_spec("path:4").n_edges == 3
        assert parse_graph_spec("torus:3x4").n_vertices == 12
        with pytest.raises(ValueError):
            parse_graph_spec("blob:3")
        with pytest.raises(ValueError):
            parse_graph_spec("path")


class TestEdgeListFormat:
    def test_load_path(self):
        g = load_graph("3 2\n0 1\n1 2\n")
        assert g.n_vertices == 3 and g.edges == ((0, 1), (1, 2))

    def test_normalizes_orientation(self):
        g = load_graph("2 1\n1 0\n")
        assert g.edges == ((0, 1),)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            load_graph("2 1\n0 0\n")

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_graph("3 2\n0 1\n1 0\n")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            load_graph("2 1\n0 5\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            load_graph("3 2\n0 1\nnot an edge\n")

    def test_comments_ignored(self):
        g = load_graph("# a path\n3 2\n0 1\n# middle\n1 2\n")
        assert g.n_edges == 2

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError, match="edges"):
            load_graph("3 2\n0 1\n")

    def test_round_trip_named(self):
        for g in (path_graph(6), cycle_graph(5), torus_graph(3, 3), petersen_graph()):
            assert load_graph(render_graph(g)) == g

    @given(st.integers(2, 9), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, n, seed):
        g = random_connected_graph(n, seed)
        assert load_graph(render_graph(g)) == g


class TestBipartite:
    def test_even_cycle(self):
        assert is_bipartite(cycle_graph(4))

    def test_odd_cycle(self):
        assert not is_bipartite(cycle_graph(5))

    def test_paths_are_bipartite(self):
        assert all(is_bipartite(path_graph(n)) for n in range(1, 8))

    def test_petersen_not_bipartite(self):
        assert not is_bipartite(petersen_graph())

    @given(st.integers(2, 10), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_bipartite_iff_two_colorable(self, n, seed):
        g = random_connected_graph(n, seed)
        if g.n_edges == 0:
            return
        chi = chromatic_number_exact(g).n_colors
        assert is_bipartite(g) == (chi <= 2)


class TestColoring:
    def test_k4(self):
        assert chromatic_number_exact(complete_graph(4)).n_colors == 4

    def test_c5(self):
        assert chromatic_number_exact(cycle_graph(5)).n_colors == 3

    def test_p6(self):
        assert chromatic_number_exact(path_graph(6)).n_colors == 2

    def test_petersen(self):
        col = chromatic_number_exact(petersen_graph())
        assert col.n_colors == 3
        assert is_proper_coloring(petersen_graph(), col)

    def test_witness_is_proper(self, tiny_family):
        for _, g in tiny_family:
            col = chromatic_number_exact(g)
            assert is_proper_coloring(g, col)
            assert col.n_colors == len(set(col.colors))

    def test_greedy_is_proper_and_upper(self, tiny_family):
        for _, g in tiny_family:
            col = greedy_coloring(g)
            assert is_proper_coloring(g, col)
            assert col.n_colors >= chromatic_number_exact(g).n_colors

    def test_size_limit(self):
        with pytest.raises(ValueError, match="limited"):
            chromatic_number_exact(torus_graph(5, 5))


class TestCliques:
    def test_k6(self):
        assert len(max_clique(complete_graph(6))) == 6

    def test_c5_triangle_free(self):
        assert len(max_clique(cycle_graph(5))) == 2

    def test_p4_tree(self):
        assert len(max_clique(path_graph(4))) == 2

    def test_greedy_is_clique(self, tiny_family):
        for _, g in tiny_family:
            clique = max_clique(g, mode="greedy")
            members = sorted(clique)
            for a in members:
                for b in members:
                    if a < b:
                        assert b in g.adjacency[a]

    def test_clique_lower_bounds_chromatic(self, tiny_family):
        for _, g in tiny_family:
            assert len(max_clique(g)) <= chromatic_number_exact(g).n_colors


def _check_peel(g, peel):
    seen = set()
    remaining = set(range(g.n_vertices))
    for members, size in peel.cliques:
        assert len(members) == size
        assert not (members & seen)
        for a in members:
            for b in members:
                if a < b:
                    assert b in g.adjacency[a]
            assert a in remaining
        seen |= members
        remaining -= members
    assert not remaining
    assert peel.residual_vertices == 0


class TestCliquePeel:
    def test_k6_single_step(self):
        peel = clique_peel(complete_graph(6))
        assert peel.sizes() == (6,)

    def test_p4_peel_choices(self):
        sizes = {p.sizes() for p in enumerate_peels(path_graph(4))}
        assert sizes == {(2, 2), (2, 1, 1)}

    def test_c5_every_choice(self):
        sizes = {p.sizes() for p in enumerate_peels(cycle_graph(5))}
        assert sizes == {(2, 2, 1)}

    def test_peels_are_valid(self, tiny_family):
        for _, g in tiny_family:
            _check_peel(g, clique_peel(g))
            if g.n_vertices <= 7:
                for p in enumerate_peels(g):
                    _check_peel(g, p)

    def test_enumeration_size_limit(self):
        with pytest.raises(ValueError, match="limited"):
            enumerate_peels(torus_graph(3, 5))


class TestValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 0)])

    def test_rejects_duplicate_after_normalization(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 1), (1, 0)])

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 3)])

    def test_disconnected_is_a_value(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        assert is_bipartite(g)
