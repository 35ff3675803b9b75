"""Finite graphs with a canonical edge orientation, plus exact small-graph solvers.

Edges are always stored as (i, j) with i < j: the orientation induced by the
total order on vertex indices. A Graph holds its vertex count and int32
endpoint arrays; all else derived from them is built on first use and kept
on the Graph, which is never changed after construction and so is safe to
share across threads and processes.
"""

from __future__ import annotations

import functools
import heapq
import operator
from dataclasses import dataclass

import numpy as np

EXACT_CHROMATIC_LIMIT = 16
EXACT_CLIQUE_LIMIT = 32
PEEL_ENUM_LIMIT = 12
# vertex indices are int32 in the arrays and in the event kernel
MAX_VERTICES = 2**31 - 1


class Graph:
    """A simple graph on the vertices 0 .. n_vertices - 1.

    e1 and e2 are read-only int32 arrays with e1[f] < e2[f] for each edge f,
    in a fixed order: the order of the active set, and so every draw of a
    run, follows it. Graph(n, e1, e2) trusts its arrays (make_graph checks
    input) and makes them read-only. The tuple views `edges` and
    `adjacency`, the CSR incidence (edge_arrays) and the connectivity
    (is_connected) are built on first use and kept (derived). Equality and
    hashing compare (n, e1, e2), and a pickle carries only those.
    """

    def __init__(self, n_vertices: int, e1: np.ndarray, e2: np.ndarray):
        e1.flags.writeable = e2.flags.writeable = False
        # the derived values and the kernel's cached addresses hold only while
        # these never change, so __setattr__ refuses any later assignment
        set_ = object.__setattr__
        set_(self, "n_vertices", n_vertices)
        set_(self, "e1", e1)
        set_(self, "e2", e2)
        set_(self, "_derived", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Graph is immutable: cannot delete {name!r}")

    def derived(self, key: str, build):
        """build(self), computed on the first call for key only and kept on self.

        setdefault, so that racing threads share one value, and with it the
        arrays whose addresses the event kernel reads.
        """
        try:
            return self._derived[key]
        except KeyError:
            return self._derived.setdefault(key, build(self))

    @property
    def n_edges(self) -> int:
        return len(self.e1)

    # the tuple views are kept in the instance's __dict__, where a later
    # lookup finds them as fast as a plain attribute (the statics' loops read
    # them often)
    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (e1[f], e2[f]) pairs as Python ints, in edge order."""
        return tuple(zip(self.e1.tolist(), self.e2.tolist()))

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, in the order of the edges joining them."""
        adj = [[] for _ in range(self.n_vertices)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(map(tuple, adj))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n_vertices == other.n_vertices
            and np.array_equal(self.e1, other.e1)
            and np.array_equal(self.e2, other.e2)
        )

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.e1.tobytes(), self.e2.tobytes()))

    def __reduce__(self):
        return Graph, (self.n_vertices, self.e1, self.e2)

    def __repr__(self) -> str:
        return f"Graph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


@dataclass(frozen=True)
class Coloring:
    """A proper vertex coloring; colors are 0-based, n_colors = distinct colors used."""

    colors: tuple[int, ...]
    n_colors: int


@dataclass(frozen=True)
class CliquePeel:
    """Sequence of disjoint cliques removed from a graph until no vertices remain."""

    cliques: tuple[tuple[frozenset[int], int], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self.cliques)


def make_graph(n_vertices: int, edges) -> Graph:
    """Build a validated Graph from (i, j) pairs, each stored as (min, max) in input order.

    The first bad edge in input order is reported: an entry that is not a
    pair of integers, a self-loop, an index out of range, or a duplicate of
    an earlier edge after orientation, checked in that order for each edge.
    """
    if n_vertices < 1:
        raise ValueError("graph needs at least one vertex")
    _check_vertex_count(n_vertices)
    e1, e2 = [], []
    seen = set()
    for pair in edges:
        try:
            i, j = pair
            i, j = operator.index(i), operator.index(j)
        except (TypeError, ValueError):
            raise ValueError(f"edge {pair!r} is not a pair of integers") from None
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (0 <= i < n_vertices and 0 <= j < n_vertices):
            raise ValueError(f"edge ({i}, {j}) out of range for {n_vertices} vertices")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        e1.append(i)
        e2.append(j)
    return Graph(n_vertices, np.array(e1, dtype=np.int32), np.array(e2, dtype=np.int32))


def _check_vertex_count(n: int) -> None:
    """Refuse, before anything is allocated, a graph too large for int32 indices."""
    if n > MAX_VERTICES:
        raise ValueError(f"graph limited to {MAX_VERTICES} vertices (got {n})")


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    _check_vertex_count(n)
    e1 = np.arange(n - 1, dtype=np.int32)
    return Graph(n, e1, e1 + 1)


def cycle_graph(n: int) -> Graph:
    """Edges (i, i + 1) for i < n - 1, then (0, n - 1), the closing edge (n - 1, 0)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    _check_vertex_count(n)
    e1 = np.arange(n, dtype=np.int32)
    e2 = e1 + 1
    e1[-1], e2[-1] = 0, n - 1
    return Graph(n, e1, e2)


def complete_graph(n: int) -> Graph:
    """Edges (i, j), i < j, in lexicographic order."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    _check_vertex_count(n)
    e1, e2 = np.triu_indices(n, 1)
    return Graph(n, e1.astype(np.int32), e2.astype(np.int32))


def torus_graph(width: int, height: int) -> Graph:
    """Lattice with periodic boundary in both axes; vertex = y*width + x (row-major).

    Each vertex in turn contributes the edge to its right, then the edge below it.
    """
    if width < 3 or height < 3:
        raise ValueError("torus needs width >= 3 and height >= 3")
    n = width * height
    _check_vertex_count(n)
    v = np.arange(n, dtype=np.int32).reshape(height, width)
    ends = np.empty((height, width, 2, 2), dtype=np.int32)
    ends[..., 0] = v[..., None]
    ends[..., 0, 1] = np.roll(v, -1, axis=1)
    ends[..., 1, 1] = np.roll(v, -1, axis=0)
    ends = ends.reshape(-1, 2)
    return Graph(n, ends.min(axis=1), ends.max(axis=1))


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
    out.extend(map("{} {}".format, g.e1.tolist(), g.e2.tolist()))
    return "\n".join(out) + "\n"


def edge_arrays(g: Graph) -> tuple[np.ndarray, ...]:
    """g's read-only int32 arrays e1, e2, inc_start and inc_edge; one tuple per Graph.

    e1 and e2 are the edge endpoints (e1 < e2); inc_start and inc_edge are the
    CSR incidence, built on the first call, which lists each vertex's edges
    in increasing index order.
    """
    return g.derived("edge_arrays", _incidence)


def _incidence(g: Graph) -> tuple[np.ndarray, ...]:
    ends = np.empty(2 * g.n_edges, dtype=np.int32)
    ends[0::2] = g.e1
    ends[1::2] = g.e2
    inc_edge = (np.argsort(ends, kind="stable") // 2).astype(np.int32)
    inc_start = np.zeros(g.n_vertices + 1, dtype=np.int32)
    np.cumsum(np.bincount(ends, minlength=g.n_vertices), out=inc_start[1:])
    inc_start.flags.writeable = inc_edge.flags.writeable = False
    return g.e1, g.e2, inc_start, inc_edge


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0; one search per Graph,
    run by the compiled kernel over the CSR incidence (_kernel.reaches_all)."""
    return g.derived("connected", _search)


def _search(g: Graph) -> bool:
    from . import _kernel  # it imports this module

    return _kernel.reaches_all(g)


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
    """DSATUR greedy coloring: proper, not necessarily optimal.

    The next vertex is the most saturated uncolored one, ties broken on
    degree then on the lower index: the least key (-saturation, -degree, v)
    of a heap that gets a new entry whenever a saturation grows. Saturation
    never falls, so an entry whose saturation is not its vertex's current
    one, or whose vertex is colored, is stale and skipped.
    """
    n = g.n_vertices
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    heap = [(0, -g.degree(v), v) for v in range(n)]
    heapq.heapify(heap)
    while heap:
        neg_sat, _, v = heapq.heappop(heap)
        if colors[v] >= 0 or -neg_sat != len(neighbor_colors[v]):
            continue
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for u in g.adjacency[v]:
            seen = neighbor_colors[u]
            if colors[u] < 0 and c not in seen:
                seen.add(c)
                heapq.heappush(heap, (-len(seen), -g.degree(u), u))
    return Coloring(tuple(colors), max(colors) + 1)


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    return all(coloring.colors[i] != coloring.colors[j] for i, j in g.edges)


def chromatic_number_exact(g: Graph) -> Coloring:
    """Optimal coloring by backtracking; n_colors is the chromatic number.

    Raises ValueError past EXACT_CHROMATIC_LIMIT vertices so callers can fall
    back to greedy_coloring.
    """
    n = g.n_vertices
    if n > EXACT_CHROMATIC_LIMIT:
        raise ValueError(f"exact coloring limited to {EXACT_CHROMATIC_LIMIT} vertices (got {n})")
    if g.n_edges == 0:
        return Coloring((0,) * n, 1)
    upper = greedy_coloring(g)
    masks = _neighbor_masks(g)
    lower = _greedy_maximal_clique(masks, (1 << n) - 1).bit_count()
    for k in range(lower, upper.n_colors):
        colors = _k_coloring(masks, k)
        if colors is not None:
            return Coloring(tuple(colors), max(colors) + 1)
    return upper


def _k_coloring(masks: list[int], k: int) -> list[int] | None:
    """A proper coloring with at most k colors by backtracking, or None if none exists.

    masks[v] is v's neighbour bitmask. Each step colors the most saturated
    uncolored vertex (most distinct colors among its neighbours), ties
    broken on degree, then on the lower index, and tries its free colors
    lowest first.
    """
    n = len(masks)
    colors = [-1] * n
    classes = [0] * k  # the vertices of each color, as a bitmask

    def rec(pending: int, used: int) -> bool:
        if not pending:
            return True
        seen = {u: [c for c in range(used) if masks[u] & classes[c]] for u in _mask_to_set(pending)}
        v = max(seen, key=lambda u: (len(seen[u]), masks[u].bit_count()))
        bit = 1 << v
        # trying at most one brand-new color kills color-permutation symmetry
        for c in range(min(used + 1, k)):
            if c not in seen[v]:
                colors[v] = c
                classes[c] |= bit
                if rec(pending & ~bit, max(used, c + 1)):
                    return True
                classes[c] &= ~bit
        return False

    return colors if rec((1 << n) - 1, 0) else None


def _greedy_maximal_clique(masks: list[int], vertex_mask: int) -> int:
    """Grow a clique inside the non-empty vertex_mask, returned as a bitmask.

    It starts at the vertex with the most neighbours in vertex_mask and adds
    the candidate with the most neighbours among the candidates; ties go to
    the lower index.
    """
    start = max(_mask_to_set(vertex_mask), key=lambda v: ((masks[v] & vertex_mask).bit_count(), -v))
    clique = 1 << start
    cand = masks[start] & vertex_mask
    while cand:
        v = max(_mask_to_set(cand), key=lambda u: ((masks[u] & cand).bit_count(), -u))
        clique |= 1 << v
        cand &= masks[v]
    return clique


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

    Any choice of maximal clique yields a valid coexistence upper bound;
    statics.clique_upper_bound takes the minimum over maximum-clique peels
    instead on graphs of at most PEEL_ENUM_LIMIT vertices.
    """
    masks = _neighbor_masks(g)
    remaining = (1 << g.n_vertices) - 1
    cliques = []
    while remaining:
        w = _greedy_maximal_clique(masks, remaining)
        remaining &= ~w
        cliques.append((frozenset(_mask_to_set(w)), w.bit_count()))
    return CliquePeel(tuple(cliques))


def enumerate_peels(g: Graph) -> list[CliquePeel]:
    """All maximum-clique peel sequences of g (N <= 12), the tests' oracle.

    statics.clique_upper_bound finds the least peel value without this list
    on graphs of at most PEEL_ENUM_LIMIT vertices; the tests hold it to the
    minimum over these sequences. Once a residual is edgeless every maximum
    clique is a single vertex and all removal orders are equivalent, so one
    canonical (index-ordered) tail is emitted instead of every permutation.
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
            out.append(CliquePeel(tuple(acc)))
            return
        if not has_edge(vmask):
            tail = acc + [(frozenset([v]), 1) for v in _mask_to_set(vmask)]
            out.append(CliquePeel(tuple(tail)))
            return
        for wmask in _maximum_cliques(masks, vmask):
            members = frozenset(_mask_to_set(wmask))
            rec(vmask & ~wmask, acc + [(members, len(members))])

    rec((1 << g.n_vertices) - 1, [])
    return out
