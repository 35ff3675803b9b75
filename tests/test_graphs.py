import gc
import hashlib
import itertools
import pickle
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctvoter import (
    SimParams,
    _kernel,
    consensus_experiment,
    graphs,
    random_initial,
    simulate_coupled,
)
from ctvoter.graphs import (
    CliquePeel,
    _mask_to_set,
    _neighbor_masks,
    chromatic_number_exact,
    clique_peel,
    complete_graph,
    cycle_graph,
    edge_arrays,
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

from conftest import petersen_edges, petersen_graph, random_connected_graph, small_graph_family


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

    def test_exact_colorings_are_pinned(self):
        # the colorings themselves, not only their sizes, since the lower
        # bound's witness is built from them: a change to the order in which
        # the search takes vertices (saturation, then degree, then the lower
        # index) or tries colors moves this digest
        rng = random.Random(23)
        doc = []
        for _ in range(200):
            n = rng.randint(9, 16)
            g = random_connected_graph(n, rng.randrange(2**32), rng.random())
            doc.append(chromatic_number_exact(g).colors)
        digest = hashlib.sha256(repr(doc).encode()).hexdigest()
        assert digest == "479b966fee7fdf31b0fb7f1f1852a10bc1fd00d200b04aba45ab98f98287bcac"

    @staticmethod
    def _quadratic_dsatur(g):
        """The DSATUR of greedy_coloring by a max over every uncolored vertex."""
        n = g.n_vertices
        colors = [-1] * n
        neighbor_colors = [set() for _ in range(n)]
        for _ in range(n):
            v = max(
                (u for u in range(n) if colors[u] < 0),
                key=lambda u: (len(neighbor_colors[u]), g.degree(u), -u),
            )
            c = 0
            while c in neighbor_colors[v]:
                c += 1
            colors[v] = c
            for u in g.adjacency[v]:
                neighbor_colors[u].add(c)
        return graphs.Coloring(tuple(colors), max(colors) + 1)

    def test_heap_dsatur_matches_the_quadratic_one(self, tiny_family):
        rng = random.Random(11)
        cases = [g for _, g in tiny_family] + [petersen_graph(), torus_graph(7, 9)]
        for n in (10, 40, 120, 300):
            cases += [path_graph(n), cycle_graph(n)]
            for p in (0.0, 1 / n, 4 / n, 0.3):
                cases.append(random_connected_graph(n, rng.randrange(2**32), p))
        for g in cases:
            assert greedy_coloring(g) == self._quadratic_dsatur(g)


class TestCliques:
    def test_k6(self):
        assert len(max_clique(complete_graph(6))) == 6

    def test_c5_triangle_free(self):
        assert len(max_clique(cycle_graph(5))) == 2

    def test_p4_tree(self):
        assert len(max_clique(path_graph(4))) == 2

    def test_matches_brute_force(self):
        # a star on 0 with a triangle hanging off leaf 1: the highest-degree
        # vertex is in no triangle, so a greedy start misses the maximum
        star = make_graph(8, [(0, v) for v in range(1, 6)] + [(1, 6), (1, 7), (6, 7)])
        rng = random.Random(77)
        cases = [star] + [
            random_connected_graph(
                rng.randrange(1, 10), rng.randrange(2**32), rng.choice([0.2, 0.5, 0.85])
            )
            for _ in range(300)
        ]
        for g in cases:
            edges = set(g.edges)
            clique_number = max(
                k
                for k in range(1, g.n_vertices + 1)
                for subset in itertools.combinations(range(g.n_vertices), k)
                if all(pair in edges for pair in itertools.combinations(subset, 2))
            )
            clique = max_clique(g)
            assert len(clique) == clique_number, g
            assert all(pair in edges for pair in itertools.combinations(sorted(clique), 2))

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


def _greedy_maximal_clique(masks: list[int], vertex_mask: int) -> frozenset[int]:
    """Grow a clique inside vertex_mask, preferring high residual degree."""
    members = _mask_to_set(vertex_mask)
    if not members:
        return frozenset()
    deg = {v: bin(masks[v] & vertex_mask).count("1") for v in members}
    start = max(members, key=lambda v: (deg[v], -v))
    clique = 1 << start
    cand = masks[start] & vertex_mask
    while cand:
        v = max(_mask_to_set(cand), key=lambda u: (bin(masks[u] & cand).count("1"), -u))
        clique |= 1 << v
        cand &= masks[v]
    return frozenset(_mask_to_set(clique))


def _oracle_peel(g):
    """The greedy peel built on the set-returning clique search above, which
    counted bits by bin(...).count("1"), as graphs.clique_peel once was."""
    masks = _neighbor_masks(g)
    remaining = (1 << g.n_vertices) - 1
    cliques = []
    while remaining:
        w = _greedy_maximal_clique(masks, remaining)
        for v in w:
            remaining &= ~(1 << v)
        cliques.append((w, len(w)))
    return CliquePeel(tuple(cliques))


@st.composite
def _any_graph(draw):
    """Any graph on 1..40 vertices: edgeless, disconnected and dense ones too."""
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return make_graph(n, [e for e in pairs if rng.random() < density])


class TestGreedyPeelOracle:
    """clique_peel takes the same cliques, in the same order, as the peel on
    the set-returning clique search: the bitmask search makes the same
    choices, so the greedy upper bound and every digest stay put."""

    def test_small_family(self, tiny_family):
        for name, g in tiny_family:
            assert clique_peel(g) == _oracle_peel(g), name

    @given(_any_graph())
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, g):
        assert clique_peel(g) == _oracle_peel(g)

    @pytest.mark.parametrize("spec", ["path:300", "cycle:301", "torus:12x12", "complete:20"])
    def test_named_graphs(self, spec):
        g = parse_graph_spec(spec)
        assert clique_peel(g) == _oracle_peel(g)


class TestValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match=r"^self-loop at vertex 0$"):
            make_graph(3, [(0, 0)])

    def test_rejects_duplicate_after_normalization(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            make_graph(3, [(0, 1), (1, 0)])

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for 3 vertices$"):
            make_graph(3, [(0, 3)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 1), (1, 0), (0, 3)], r"duplicate edge \(0, 1\)"),
            ([(0, 1), (0, 3), (1, 0)], r"edge \(0, 3\) out of range for 3 vertices"),
            ([(1, 2), (2, 1), (-1, -1)], r"duplicate edge \(1, 2\)"),
            ([(1, 2), (-1, -1), (2, 1)], r"self-loop at vertex -1"),
            ([(0, 1), (5, 5)], r"self-loop at vertex 5"),
            ([(0, 2), (-1, 1), (0, 2)], r"edge \(-1, 1\) out of range for 3 vertices"),
            ([(0, 1), (2**70, 2**70), (0, 4)], rf"self-loop at vertex {2**70}"),
            ([(1, 0), (0, 2**70), (0, 1)], rf"edge \(0, {2**70}\) out of range for 3 vertices"),
            ([(0, 1), (1, 0), (0, -(2**70))], r"duplicate edge \(0, 1\)"),
        ],
        ids=[
            "twin_then_range",
            "range_then_twin",
            "twin_then_loop",
            "loop_then_twin",
            "loop_out_of_range",
            "range_then_repeat",
            "huge_loop",
            "huge_index",
            "twin_then_huge",
        ],
    )
    def test_first_bad_edge_in_input_order(self, edges, message):
        """The earliest bad edge is reported, with each edge checked for a
        self-loop, then its range, then an earlier twin."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_graph(3, edges)
        text = f"3 {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges)
        with pytest.raises(ValueError, match=f"^invalid edge list: {message}$"):
            load_graph(text)

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1, 2, 3)], [0, 1], [(0, 1), (2,)], [("0", "1")], [(0, 0.5)], [(1.0, 2)]],
        ids=["four_tuple", "flat_list", "short_pair", "strings", "half", "float"],
    )
    def test_rejects_entries_that_are_not_integer_pairs(self, edges):
        with pytest.raises(ValueError, match=r"is not a pair of integers$"):
            make_graph(4, edges)

    def test_accepts_numpy_integer_pairs(self):
        pairs = np.array([[0, 1], [2, 1]], dtype=np.int64)
        assert make_graph(3, pairs) == make_graph(3, [(0, 1), (1, 2)])

    def test_rejects_too_many_vertices(self):
        with pytest.raises(ValueError, match="limited to"):
            make_graph(graphs.MAX_VERTICES + 1, [])

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: make_graph(n, []),
            graphs.path_graph,
            graphs.cycle_graph,
            graphs.complete_graph,
            lambda n: graphs.torus_graph(3, n // 3),
        ],
        ids=["make_graph", "path", "cycle", "complete", "torus"],
    )
    def test_every_generator_checks_the_vertex_limit(self, monkeypatch, build):
        # a small limit stands in for 2**31 - 1, so nothing large is built
        monkeypatch.setattr(graphs, "MAX_VERTICES", 12)
        assert build(12).n_vertices == 12
        with pytest.raises(ValueError, match=r"limited to 12 vertices \(got 15\)"):
            build(15)

    def test_graph_spec_checks_the_vertex_limit(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_VERTICES", 12)
        for spec in ("path:13", "cycle:13", "complete:13", "torus:4x4"):
            with pytest.raises(ValueError, match="limited to 12 vertices"):
                graphs.parse_graph_spec(spec)

    def test_disconnected_is_a_value(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        assert is_bipartite(g)


def _tuple_build(n, edges):
    """The edge and adjacency tuples as make_graph built them from Python
    pairs before graphs held arrays: each pair as (min, max) in input order,
    and each vertex's neighbours in edge order."""
    normalized = tuple((min(i, j), max(i, j)) for i, j in edges)
    adj = [[] for _ in range(n)]
    for i, j in normalized:
        adj[i].append(j)
        adj[j].append(i)
    return normalized, tuple(tuple(a) for a in adj)


def _generator_pairs(kind, params):
    """The pairs the generators listed before graphs held arrays."""
    if kind == "torus":
        w, h = params
        return w * h, [
            (y * w + x, other)
            for y in range(h)
            for x in range(w)
            for other in (y * w + (x + 1) % w, ((y + 1) % h) * w + x)
        ]
    (n,) = params
    if kind == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        return n, [(i, (i + 1) % n) for i in range(n)]
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def _family_case(name, g):
    """(n, pairs) that the small_graph_family graph `name` was built from."""
    kind = name.rstrip("0123456789")
    if kind in ("path", "cycle", "complete"):
        return _generator_pairs(kind, (int(name[len(kind) :]),))
    return g.n_vertices, list(g.edges)  # a random graph: make_graph of its sorted edges


def _assert_matches_tuple_build(g, n, pairs):
    edges, adjacency = _tuple_build(n, pairs)
    assert g.n_vertices == n and g.edges == edges and g.adjacency == adjacency
    assert all(type(v) is int for edge in g.edges for v in edge)
    for a in (g.e1, g.e2):
        assert a.dtype == np.int32 and a.flags.c_contiguous and not a.flags.writeable
    assert g.e1.tolist() == [i for i, _ in edges] and g.e2.tolist() == [j for _, j in edges]


class TestArrayGraph:
    @pytest.mark.parametrize(
        "name, g",
        [
            pytest.param(name, g, id=name)
            for name, g in small_graph_family()
            + [("torus5x7", torus_graph(5, 7)), ("petersen", petersen_graph())]
        ],
    )
    def test_matches_the_tuple_build(self, name, g):
        if name == "torus5x7":
            n, pairs = _generator_pairs("torus", (5, 7))
        elif name == "petersen":
            n, pairs = 10, petersen_edges()
        else:
            n, pairs = _family_case(name, g)
        _assert_matches_tuple_build(g, n, pairs)
        _assert_matches_tuple_build(make_graph(n, pairs), n, pairs)

    def test_generators_over_sizes(self):
        cases = [("path", (n,)) for n in range(1, 30)] + [("complete", (n,)) for n in range(1, 14)]
        cases += [("cycle", (n,)) for n in range(3, 30)]
        cases += [("torus", (w, h)) for w in range(3, 8) for h in range(3, 8)]
        for kind, params in cases:
            g = generate_graph(kind, params)
            _assert_matches_tuple_build(g, *_generator_pairs(kind, params))

    def test_value_semantics(self):
        g = torus_graph(4, 5)
        twin = load_graph(render_graph(g))
        assert twin == g and hash(twin) == hash(g) and twin is not g
        assert len({g, twin, torus_graph(5, 4), path_graph(20)}) == 3
        assert make_graph(3, [(0, 1)]) != make_graph(3, [(0, 2)])
        assert make_graph(3, [(0, 1)]) != make_graph(2, [(0, 1)])
        assert g != g.edges

    def test_attributes_cannot_change(self):
        g = path_graph(4)
        for name in ("n_vertices", "e1", "e2", "edges", "_derived"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(g, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(g, name)
        assert g.edges == ((0, 1), (1, 2), (2, 3)) and g == path_graph(4)

    def test_pickle_carries_only_the_arrays(self):
        g = torus_graph(6, 7)
        size = len(pickle.dumps(g))
        g.edges, g.adjacency, edge_arrays(g), is_connected(g), hash(g)
        data = pickle.dumps(g)
        assert len(data) == size
        copy = pickle.loads(data)
        assert copy == g and copy.edges == g.edges
        assert not copy.e1.flags.writeable and not copy.e2.flags.writeable

    def test_render_reads_the_arrays(self):
        g = cycle_graph(6)
        assert render_graph(g) == "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"
        assert "edges" not in vars(g) and "adjacency" not in vars(g)


class TestMemo:
    def test_one_search_per_graph_across_a_batch(self, monkeypatch):
        searched = []
        search = _kernel.reaches_all

        def counted(g):
            searched.append(g)
            return search(g)

        monkeypatch.setattr(_kernel, "reaches_all", counted)
        g = path_graph(20)
        report = consensus_experiment(g, 0.75, 50, 7)
        assert len(report.records) == 50
        for seed in range(3):
            simulate_coupled(g, random_initial(g, seed), SimParams(0.75, seed))
        assert searched == [g] and searched[0] is g
        twin = path_graph(20)
        assert is_connected(twin) and is_connected(twin)
        assert searched == [g, twin] and searched[1] is twin

    def test_entry_dropped_with_the_graph(self):
        """What a Graph derives lives on it, and goes with it."""
        g = torus_graph(4, 5)
        assert is_connected(g)
        incidence = weakref.ref(edge_arrays(g)[3])
        del g
        gc.collect()
        assert incidence() is None

    @pytest.mark.parametrize(
        "g", [make_graph(1, []), path_graph(7), torus_graph(3, 4), petersen_graph()]
    )
    def test_edge_arrays(self, g):
        e1, e2, inc_start, inc_edge = edge_arrays(g)
        assert list(zip(e1.tolist(), e2.tolist())) == list(g.edges)
        for v in range(g.n_vertices):
            incident = [k for k, edge in enumerate(g.edges) if v in edge]
            assert inc_edge[inc_start[v] : inc_start[v + 1]].tolist() == incident
        assert all(not a.flags.writeable for a in (e1, e2, inc_start, inc_edge))
        assert edge_arrays(g) is edge_arrays(g)

    @pytest.mark.parametrize(
        "g",
        [g for _, g in small_graph_family()] + [path_graph(1), torus_graph(5, 7)],
        ids=[name for name, _ in small_graph_family()] + ["path1", "torus5x7"],
    )
    def test_edge_arrays_match_the_nested_array_build(self, g):
        """The endpoints read by np.fromiter over the flat pairs, against the
        former build from np.array(g.edges)."""
        ends = np.array(g.edges, dtype=np.int32).reshape(-1, 2)
        inc_edge = (np.argsort(ends.ravel(), kind="stable") // 2).astype(np.int32)
        inc_start = np.zeros(g.n_vertices + 1, dtype=np.int32)
        np.cumsum(np.bincount(ends.ravel(), minlength=g.n_vertices), out=inc_start[1:])
        expected = (ends[:, 0].copy(), ends[:, 1].copy(), inc_start, inc_edge)
        for got, want in zip(edge_arrays(g), expected, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
