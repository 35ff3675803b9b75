"""Finite graphs with a canonical edge orientation, plus exact small-graph solvers.

Edges are always stored as (i, j) with i < j: the orientation induced by the
total order on vertex indices. Graph values are immutable after construction
and safe to share across threads/processes, so what is derived from a Graph
alone is computed once per Graph object and memoised (see memo).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

EXACT_CHROMATIC_LIMIT = 16
EXACT_CLIQUE_LIMIT = 32
PEEL_ENUM_LIMIT = 12


@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class Coloring:
    """A proper vertex coloring; colors are 0-based, n_colors = distinct colors used."""

    colors: tuple[int, ...]
    n_colors: int


@dataclass(frozen=True)
class CliquePeel:
    """Sequence of disjoint cliques removed from a graph until no vertices remain."""

    cliques: tuple[tuple[frozenset[int], int], ...]
    residual_vertices: int

    def sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self.cliques)


def make_graph(n_vertices: int, edges) -> Graph:
    """Build a validated Graph; rejects self-loops, duplicates, bad indices."""
    if n_vertices < 1:
        raise ValueError("graph needs at least one vertex")
    normalized = []
    seen = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (0 <= i < n_vertices and 0 <= j < n_vertices):
            raise ValueError(f"edge ({i}, {j}) out of range for {n_vertices} vertices")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        normalized.append((i, j))
    adj = [[] for _ in range(n_vertices)]
    for i, j in normalized:
        adj[i].append(j)
        adj[j].append(i)
    return Graph(n_vertices, tuple(normalized), tuple(tuple(a) for a in adj))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def torus_graph(width: int, height: int) -> Graph:
    """Lattice with periodic boundary in both axes; vertex = y*width + x (row-major)."""
    if width < 3 or height < 3:
        raise ValueError("torus needs width >= 3 and height >= 3")
    edges = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            edges.append((v, y * width + (x + 1) % width))
            edges.append((v, ((y + 1) % height) * width + x))
    return make_graph(width * height, edges)


def generate_graph(kind: str, params: tuple[int, ...]) -> Graph:
    if kind == "path":
        return path_graph(*params)
    if kind == "cycle":
        return cycle_graph(*params)
    if kind == "complete":
        return complete_graph(*params)
    if kind == "torus":
        return torus_graph(*params)
    raise ValueError(f"unknown graph kind {kind!r}")


def _split_graph_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    """Split a graph spec into its kind and integer sizes: torus:3x4 -> ("torus", (3, 4))."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"bad graph spec {spec!r}: expected kind:params")
    try:
        if kind == "torus":
            w, _, h = rest.partition("x")
            return kind, (int(w), int(h))
        return kind, (int(rest),)
    except ValueError:
        raise ValueError(f"bad graph spec {spec!r}: non-integer size") from None


def parse_graph_spec(spec: str) -> Graph:
    """Parse the CLI mini-language: path:N, cycle:N, complete:N, torus:WxH."""
    return generate_graph(*_split_graph_spec(spec))


def load_graph(text: str) -> Graph:
    """Parse the edge-list format: header "N M", then M lines "i j"; '#' comments."""
    lines = text.splitlines()
    header = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if header is None:
            header = (a, b)
            continue
        edges.append((a, b))
    if header is None:
        raise ValueError("empty edge-list document")
    n, m = header
    if len(edges) != m:
        raise ValueError(f"header declares {m} edges but {len(edges)} listed")
    try:
        return make_graph(n, edges)
    except ValueError as exc:
        raise ValueError(f"invalid edge list: {exc}") from None


def render_graph(g: Graph) -> str:
    """Inverse of load_graph: load_graph(render_graph(g)) reproduces g exactly."""
    out = [f"{g.n_vertices} {g.n_edges}"]
    out.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(out) + "\n"


_memo: dict[int, dict] = {}


def memo(g: Graph, key: str, build):
    """build(g), computed on the first call for this Graph object and key only.

    Sound because Graph is frozen. The entries are keyed by id(g) and dropped
    when g is collected, before its id can be reused; they keep what they
    hold (the arrays whose addresses the event kernel reads) alive while g is.
    """
    entry = _memo.get(id(g))
    if entry is None:
        # setdefault, so that racing threads share one entry and its arrays
        entry = _memo.setdefault(id(g), {})
        weakref.finalize(g, _memo.pop, id(g), None)
    try:
        return entry[key]
    except KeyError:
        return entry.setdefault(key, build(g))


def edge_arrays(g: Graph) -> tuple[np.ndarray, ...]:
    """g's read-only int32 arrays e1, e2, inc_start and inc_edge, built once per Graph.

    e1 and e2 are the edge endpoints (e1 < e2); inc_start and inc_edge are the
    CSR incidence, which lists each vertex's edges in increasing index order.
    """
    return memo(g, "edge_arrays", _build_edge_arrays)


def _build_edge_arrays(g: Graph) -> tuple[np.ndarray, ...]:
    ends = np.array(g.edges, dtype=np.int32).reshape(-1, 2)
    inc_edge = (np.argsort(ends.ravel(), kind="stable") // 2).astype(np.int32)
    inc_start = np.zeros(g.n_vertices + 1, dtype=np.int32)
    np.cumsum(np.bincount(ends.ravel(), minlength=g.n_vertices), out=inc_start[1:])
    arrays = (ends[:, 0].copy(), ends[:, 1].copy(), inc_start, inc_edge)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0; one search per Graph."""
    return memo(g, "connected", _reaches_all)


def _reaches_all(g: Graph) -> bool:
    seen = [False] * g.n_vertices
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for u in g.adjacency[v]:
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == g.n_vertices


def is_bipartite(g: Graph) -> bool:
    """True iff a 2-coloring exists (no odd cycle); handles disconnected graphs."""
    side = [-1] * g.n_vertices
    for start in range(g.n_vertices):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.adjacency[v]:
                if side[u] < 0:
                    side[u] = side[v] ^ 1
                    stack.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def _neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.n_vertices
    for i, j in g.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def greedy_coloring(g: Graph) -> Coloring:
    """DSATUR greedy coloring: proper, not necessarily optimal."""
    n = g.n_vertices
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    for _ in range(n):
        # most saturated uncolored vertex; tie-break on degree then index
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
    return Coloring(tuple(colors), max(colors) + 1)


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    return all(coloring.colors[i] != coloring.colors[j] for i, j in g.edges)


def chromatic_number_exact(g: Graph, limit: int = EXACT_CHROMATIC_LIMIT) -> Coloring:
    """Optimal coloring by backtracking; n_colors is the chromatic number.

    Raises ValueError past `limit` so callers can fall back to greedy_coloring.
    """
    n = g.n_vertices
    if n > limit:
        raise ValueError(f"exact coloring limited to {limit} vertices (got {n})")
    if g.n_edges == 0:
        return Coloring((0,) * n, 1)
    upper = greedy_coloring(g)
    lower = len(_greedy_maximal_clique(_neighbor_masks(g), (1 << n) - 1))
    best = upper
    for k in range(lower, upper.n_colors):
        attempt = _color_with(g, k)
        if attempt is not None:
            best = attempt
            break
    return best


def _color_with(g: Graph, k: int) -> Coloring | None:
    """Backtracking k-colorability with saturation-ordered vertices."""
    n = g.n_vertices
    colors = [-1] * n

    def rec(used: int) -> bool:
        pending = [v for v in range(n) if colors[v] < 0]
        if not pending:
            return True
        v = max(
            pending,
            key=lambda u: (len({colors[w] for w in g.adjacency[u] if colors[w] >= 0}), g.degree(u)),
        )
        banned = {colors[w] for w in g.adjacency[v] if colors[w] >= 0}
        # trying at most one brand-new color kills color-permutation symmetry
        for c in range(min(used + 1, k)):
            if c in banned:
                continue
            colors[v] = c
            if rec(max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    if not rec(0):
        return None
    return Coloring(tuple(colors), max(colors) + 1)


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


def _mask_to_set(mask: int) -> list[int]:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(v)
        mask &= mask - 1
    return out


def _maximum_cliques(masks: list[int], vertex_mask: int) -> list[int]:
    """All maximum cliques (as bitmasks) of the subgraph induced by vertex_mask.

    Branches on every candidate (no pivoting) because all maximum cliques are
    wanted, not just one; candidates are consumed left to right so each clique
    is generated once, through its lowest-index member first.
    """
    found: list[int] = []
    best = 0

    def expand(current: int, cand: int, size: int) -> None:
        nonlocal best, found
        if cand == 0:
            if size > best:
                best = size
                found = [current]
            elif size == best and size > 0:
                found.append(current)
            return
        if size + cand.bit_count() < best:
            return
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            expand(current | (1 << v), rest & masks[v], size + 1)

    expand(0, vertex_mask, 0)
    if not found:
        return [0]
    return sorted(set(found))


def max_clique(g: Graph) -> frozenset[int]:
    """A maximum clique of g (N <= 32): the first one _maximum_cliques finds."""
    if g.n_vertices > EXACT_CLIQUE_LIMIT:
        raise ValueError(f"exact clique limited to {EXACT_CLIQUE_LIMIT} vertices")
    first = _maximum_cliques(_neighbor_masks(g), (1 << g.n_vertices) - 1)[0]
    return frozenset(_mask_to_set(first))


def clique_peel(g: Graph) -> CliquePeel:
    """Peel a greedily found maximal clique per step until no vertices remain.

    Any choice of maximal clique yields a valid coexistence upper bound; the
    minimum over maximum-clique peels is statics.clique_upper_bound's
    exact-enumerate mode.
    """
    masks = _neighbor_masks(g)
    remaining = (1 << g.n_vertices) - 1
    cliques = []
    while remaining:
        w = _greedy_maximal_clique(masks, remaining)
        wmask = 0
        for v in w:
            wmask |= 1 << v
        remaining &= ~wmask
        cliques.append((w, len(w)))
    return CliquePeel(tuple(cliques), 0)


def enumerate_peels(g: Graph) -> list[CliquePeel]:
    """All maximum-clique peel sequences of g (N <= 12), the tests' oracle.

    statics.clique_upper_bound finds the least peel value without this list;
    the tests hold it to the minimum over these sequences. Once a residual
    is edgeless every maximum clique is a single vertex and all removal
    orders are equivalent, so one canonical (index-ordered) tail is emitted
    instead of every permutation.
    """
    if g.n_vertices > PEEL_ENUM_LIMIT:
        raise ValueError(f"peel enumeration limited to {PEEL_ENUM_LIMIT} vertices")
    masks = _neighbor_masks(g)
    out: list[CliquePeel] = []

    def has_edge(vmask: int) -> bool:
        for v in _mask_to_set(vmask):
            if masks[v] & vmask:
                return True
        return False

    def rec(vmask: int, acc: list[tuple[frozenset[int], int]]) -> None:
        if vmask == 0:
            out.append(CliquePeel(tuple(acc), 0))
            return
        if not has_edge(vmask):
            tail = acc + [(frozenset([v]), 1) for v in _mask_to_set(vmask)]
            out.append(CliquePeel(tuple(tail), 0))
            return
        for wmask in _maximum_cliques(masks, vmask):
            members = frozenset(_mask_to_set(wmask))
            rec(vmask & ~wmask, acc + [(members, len(members))])

    rec((1 << g.n_vertices) - 1, [])
    return out
