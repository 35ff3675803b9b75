"""Shared fixtures: named graphs and deterministic random graph families."""

import random

import pytest

from ctvoter import graphs


def petersen_edges() -> list[tuple[int, int]]:
    """Outer 5-cycle, inner pentagram, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return edges


def petersen_graph() -> graphs.Graph:
    """The Petersen graph; 3-chromatic, triangle-free."""
    return graphs.make_graph(10, petersen_edges())


def random_connected_graph(n: int, seed: int, extra_edge_prob: float = 0.35) -> graphs.Graph:
    """Random spanning tree plus independent extra edges; connected by construction."""
    rng = random.Random(seed)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):
        a = order[rng.randrange(k)]
        b = order[k]
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return graphs.make_graph(n, sorted(edges))


def small_graph_family(max_n: int = 7, n_random: int = 20, seed: int = 2024):
    """Connected graphs with at most max_n vertices: paths, cycles, completes,
    plus n_random seeded random connected graphs."""
    family = []
    for n in range(2, max_n + 1):
        family.append((f"path{n}", graphs.path_graph(n)))
        family.append((f"complete{n}", graphs.complete_graph(n)))
    for n in range(3, max_n + 1):
        family.append((f"cycle{n}", graphs.cycle_graph(n)))
    rng = random.Random(seed)
    for k in range(n_random):
        n = rng.randrange(3, max_n + 1)
        family.append((f"random{k}_n{n}", random_connected_graph(n, seed=rng.randrange(2**32))))
    return family


EPS_GRID = (0.15, 0.35, 0.55, 0.6, 0.75, 0.95)


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()


@pytest.fixture(scope="session")
def tiny_family():
    return small_graph_family()


# Coupled and plain runs pinned by tests/test_golden.py: graphs with cycles,
# eps > 1/2 (non-empty extremist trace), and every stop condition.
# Each entry: (graph spec, eps, init seed, event seed, t_max, max_events).
GOLDEN_CASES = (
    ("torus:6x6", 0.6, 11, 12, None, None),
    ("torus:10x10", 1 / 3, 21, 22, 20.0, None),
    ("torus:8x8", 0.4, 31, 32, None, 0),
    ("torus:16x16", 1.0, 41, 42, None, 1500),
    ("cycle:50", 0.7, 51, 52, None, None),
    ("path:200", 0.3, 61, 62, 10.0, None),
    ("complete:30", 0.55, 71, 72, None, 400),
)


def golden_run(case):
    """(graph, initial opinions, params) of one GOLDEN_CASES entry."""
    from ctvoter.dynamics import SimParams, random_initial

    spec, eps, init_seed, seed, t_max, max_events = case
    g = graphs.parse_graph_spec(spec)
    init = random_initial(g, init_seed)
    return g, init, SimParams(eps, seed, t_max=t_max, max_events=max_events)


@pytest.fixture
def python_loop(monkeypatch):
    """Run the Python reference loop of tests/reference_loop.py in place of
    the compiled kernel's entry points."""
    import reference_loop

    reference_loop.use(monkeypatch)
