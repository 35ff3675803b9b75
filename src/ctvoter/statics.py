"""Static coexistence analysis: exact small-graph opinion index and bounds.

The opinion index of a graph at threshold eps is the maximum number of
distinct opinions an absorbing configuration can hold: every edge must join
equal opinions or opinions separated by more than eps. The exact oracle
maximises, over maps of the vertices into complete_index(n, eps) parts, the
total number of connected components the parts induce; the bounds come from
proper colorings (lower) and clique peeling (upper).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .common import ceil_recip, check_epsilon
from .dynamics import count_opinions, is_absorbing
from .graphs import (
    Graph,
    Coloring,
    chromatic_number_exact,
    clique_peel,
    greedy_coloring,
    is_proper_coloring,
    _maximum_cliques,
    _neighbor_masks,
    EXACT_CHROMATIC_LIMIT,
    PEEL_ENUM_LIMIT,
)

# unused here: kept bound so that callers which rebind statics.enumerate_peels
# (perfbench/child.py in its traced runs) still find it
from .graphs import enumerate_peels  # noqa: F401

BRUTE_FORCE_LIMIT = 8


@dataclass(frozen=True)
class IndexBounds:
    lower: int
    upper: int
    exact: int | None = None
    witness_lower: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "witness_lower": None
            if self.witness_lower is None
            else [float(v) for v in self.witness_lower],
        }


def complete_index(n: int, eps: float) -> int:
    """Exact index of the complete graph: min(n, ceil(1/eps)); n when eps = 0."""
    check_epsilon(eps)
    if n < 1:
        raise ValueError("need n >= 1")
    if eps == 0:
        return n
    return min(n, ceil_recip(eps))


def coloring_construction(g: Graph, coloring: Coloring, eps: float) -> np.ndarray:
    """Absorbing configuration built from a proper coloring.

    With c colors and eps < 1/(c-1): color j < c-1 puts vertex x_i (1-based
    rank i) at j/(c-1) + i*alpha and the last color at 1 - i*alpha, giving N
    distinct opinions. Otherwise the most popular color class spreads over
    i*alpha and everyone else sits at 1, giving (largest class)+1 opinions.
    alpha is set to half its maximal allowed value, which makes the
    construction deterministic. A few ulps below 1/(c-1) the first spread
    falls under the float resolution and values 1/(c-1) apart can differ by
    less than eps in floats; then the second construction is used.
    """
    check_epsilon(eps)
    if eps >= 1.0:
        raise ValueError("construction requires eps < 1")
    if not is_proper_coloring(g, coloring):
        raise ValueError("coloring is not proper")
    n = g.n_vertices
    c = coloring.n_colors
    if c <= 1:
        # edgeless graph: everything is absorbing, any distinct values do
        return np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.5])
    values = np.empty(n)
    if eps < 1.0 / (c - 1):
        alpha = (1.0 / (c - 1) - eps) / (4 * n)  # eps + 2n*alpha stays below 1/(c-1)
        for idx in range(n):
            i = idx + 1
            j = coloring.colors[idx]
            if j == c - 1:
                values[idx] = 1.0 - i * alpha
            else:
                values[idx] = j / (c - 1) + i * alpha
        if is_absorbing(g, values, eps):
            return values
    alpha = (1.0 - eps) / (2 * n)  # eps + n*alpha stays below 1
    sizes = [0] * c
    for col in coloring.colors:
        sizes[col] += 1
    j0 = max(range(c), key=lambda j: (sizes[j], -j))
    for idx in range(n):
        values[idx] = (idx + 1) * alpha if coloring.colors[idx] == j0 else 1.0
    return values


def _complete_comparison_witness(n: int, eps: float) -> np.ndarray:
    """Absorbing on any graph: up to complete_index(n, eps) values at least eps apart.

    The levels k/(J-1), J = ceil(1/eps), are more than eps apart exactly, but
    within a few ulps of eps their float differences can round below it; then
    the levels are packed from 0 in steps of the least float distance not
    below eps, which can hold one level fewer.
    """
    j_cap = ceil_recip(eps)
    if j_cap == 1:
        return np.full(n, 0.5)
    count = complete_index(n, eps)
    levels = [min(k / (j_cap - 1), 1.0) for k in range(count)]
    if any(b - a < eps for a, b in zip(levels, levels[1:])):
        levels = [0.0]
        while len(levels) < count:
            v = levels[-1] + eps
            while v - levels[-1] < eps:
                v = math.nextafter(v, 2.0)
            if v > 1.0:
                break
            levels.append(v)
    return np.array(levels + [levels[-1]] * (n - len(levels)))


def index_lower_bound(g: Graph, eps: float) -> tuple[int, np.ndarray]:
    """Best coloring-based lower bound with an absorbing witness configuration.

    Uses the exact chromatic number when feasible, otherwise a greedy proper
    coloring (valid bound with chi replaced by the greedy color count). The
    coloring bound is the number of distinct opinions in the witness that
    coloring_construction builds from it.
    """
    check_epsilon(eps)
    n = g.n_vertices
    if eps == 0:
        return n, (np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.5]))
    if eps >= 1.0:
        return 1, np.full(n, 0.5)
    if n <= EXACT_CHROMATIC_LIMIT:
        coloring = chromatic_number_exact(g)
    else:
        coloring = greedy_coloring(g)
    witness = coloring_construction(g, coloring, eps)
    color_bound = count_opinions(witness)
    complete = _complete_comparison_witness(n, eps)
    complete_bound = count_opinions(complete)
    if color_bound >= complete_bound:
        return color_bound, witness
    return complete_bound, complete


def peel_value(peel, eps: float) -> int:
    """Sum over the peel of each clique's complete-graph index, complete_index(size, eps)."""
    sizes = peel.sizes()
    cap = complete_index(max(sizes, default=1), eps)
    return sum(min(size, cap) for size in sizes)


def clique_upper_bound(g: Graph, eps: float) -> int:
    """Clique-peeling upper bound on the opinion index.

    Beyond PEEL_ENUM_LIMIT vertices it is the value of the greedy peel, one
    greedily chosen maximal clique per step (any choice gives a valid bound).
    Up to that size it is the minimum peel_value over every maximum-clique
    peel sequence, the minimum the peeling theorem refers to. It is found
    without listing the sequences: the value is a sum over the peeled
    cliques, and the cliques a peel may take next depend only on
    the vertices left, so the least value f(R) that peeling can add from a
    residual vertex set R is the least complete_index(|W|, eps) + f(R - W)
    over the maximum cliques W of R, memoised per R. f(R) = |R| once the
    maximum cliques of R have at most cap = complete_index(N, eps) vertices:
    cliques only shrink as the peel goes on, so every later term is |W|, and
    the peeled cliques partition R.
    graphs.enumerate_peels lists the sequences themselves, as a test oracle.
    """
    check_epsilon(eps)
    if g.n_vertices > PEEL_ENUM_LIMIT:
        return peel_value(clique_peel(g), eps)
    cap = complete_index(g.n_vertices, eps)
    masks = _neighbor_masks(g)

    @functools.cache
    def least(residual: int) -> int:
        cliques = _maximum_cliques(masks, residual)
        if cliques[0].bit_count() <= cap:
            return residual.bit_count()  # every later clique fits the cap
        return min(min(w.bit_count(), cap) + least(residual & ~w) for w in cliques)

    return least((1 << g.n_vertices) - 1)


def brute_force_index(g: Graph, eps: float) -> int:
    """Exact opinion index by depth-first search over K-part maps, oracle for N <= 8.

    Let K = complete_index(n, eps): the largest number of values in [0, 1]
    pairwise more than eps apart, exact on the true binary value of eps. The
    index is the largest sum of comp(G[V_i]) over maps V -> {0..K-1}, where
    V_i is the set of vertices mapped to i and comp counts the connected
    components of the subgraph it induces.
    - Lower. Put part i at level i/(K-1) (one level if K = 1), offset each
      of its components within the level by a distinct tiny amount, and push
      the top part down from 1. Every edge joins equal values or levels more than eps apart,
      since K-1 < 1/eps exactly, so the state is absorbing.
    - Upper. In an absorbing state give each value the length p of the
      longest chain of values below it whose steps each exceed eps; then
      p <= K-1. Adjacent vertices with unequal values have unequal p, so
      the part V_i = {p = i} holds at most comp(G[V_i]) values.

    Vertices are placed in index order. Each joins a part already in use or
    the first unused one, so no two maps differ by renaming parts. Each part
    keeps its components as vertex bitmasks; a vertex merges the components
    of its part that it touches, adding 1 - (number merged) to the count.
    Parts are tried fewest merged first, and a branch stops once even a new
    component for every vertex left cannot beat the best count.
    """
    check_epsilon(eps)
    n = g.n_vertices
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} vertices")
    if eps == 0 or g.n_edges == 0:
        return n
    k = complete_index(n, eps)
    masks = _neighbor_masks(g)
    parts: list[list[int]] = [[] for _ in range(k)]  # components, as vertex bitmasks
    best = 0

    def search(v: int, count: int, used: int) -> None:
        nonlocal best
        if v == n:
            best = count  # the cut below lets only a better count get here
            return
        m = masks[v]
        options = sorted((len([w for w in parts[c] if w & m]), c) for c in range(min(used + 1, k)))
        for merged, c in options:
            if count - merged + n - v <= best:
                break
            comps = parts[c]
            # components are disjoint, so their sum is their union
            parts[c] = [w for w in comps if not w & m] + [sum([w for w in comps if w & m], 1 << v)]
            search(v + 1, count + 1 - merged, max(used, c + 1))
            parts[c] = comps
            if best == n:
                return

    search(0, 0, 0)
    return best


def index_bounds(g: Graph, eps: float) -> IndexBounds:
    """Assemble lower/upper bounds and, on tiny graphs, the exact index."""
    lower, witness = index_lower_bound(g, eps)
    upper = clique_upper_bound(g, eps)
    exact = brute_force_index(g, eps) if g.n_vertices <= BRUTE_FORCE_LIMIT else None
    return IndexBounds(lower=lower, upper=upper, exact=exact, witness_lower=witness)
