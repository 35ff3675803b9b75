"""Static coexistence analysis: exact small-graph opinion index and bounds.

The opinion index of a graph at threshold eps is the maximum number of
distinct opinions an absorbing configuration can hold: every edge must join
equal opinions or opinions separated by more than eps. The exact oracle
enumerates equal-opinion partitions and searches value orderings; the bounds
come from proper colorings (lower) and clique peeling (upper).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .common import ceil_recip
from .dynamics import is_absorbing
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
    """Absorbing on any graph: up to min(n, ceil(1/eps)) values at least eps apart.

    The levels k/(J-1), J = ceil(1/eps), are more than eps apart exactly, but
    within a few ulps of eps their float differences can round below it; then
    the levels are packed from 0 in steps of the least float distance not
    below eps, which can hold one level fewer.
    """
    j_cap = ceil_recip(eps)
    if j_cap == 1:
        return np.full(n, 0.5)
    levels = [min(k / (j_cap - 1), 1.0) for k in range(min(n, j_cap))]
    if any(b - a < eps for a, b in zip(levels, levels[1:])):
        levels = [0.0]
        while len(levels) < min(n, j_cap):
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
    if not 0.0 <= eps <= 1.0:
        raise ValueError("epsilon out of range [0, 1]")
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
    color_bound = len(set(witness.tolist()))
    complete = _complete_comparison_witness(n, eps)
    complete_bound = len(set(complete.tolist()))
    if color_bound >= complete_bound:
        return color_bound, witness
    return complete_bound, complete


def _clique_term(eps: float):
    """A peeled clique's share of the bound: size -> min(size, ceil(1/eps)); size at eps=0."""
    if eps == 0:
        return lambda size: size
    j_cap = ceil_recip(eps)
    return lambda size: min(size, j_cap)


def peel_value(peel, eps: float) -> int:
    """Sum over the peel of min(clique size, ceil(1/eps)); plain sizes at eps=0."""
    term = _clique_term(eps)
    return sum(term(size) for _, size in peel.cliques)


def clique_upper_bound(g: Graph, eps: float, mode: str = "greedy") -> int:
    """Clique-peeling upper bound on the opinion index.

    greedy peels one greedily chosen maximal clique per step (any choice gives
    a valid bound). exact-enumerate (N <= 12) is the minimum peel_value over
    every maximum-clique peel sequence, the minimum the peeling theorem refers
    to. It is found without listing the sequences: the value is a sum over
    the peeled cliques, and the cliques a peel may take next depend only on
    the vertices left, so the least value f(R) that peeling can add from a
    residual vertex set R is the least term(|W|) + f(R - W) over the maximum
    cliques W of R, memoised per R; f(R) = |R| once R has no edges.
    graphs.enumerate_peels lists the sequences themselves, as a test oracle.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("epsilon out of range [0, 1]")
    if mode == "greedy":
        return peel_value(clique_peel(g), eps)
    if mode != "exact-enumerate":
        raise ValueError(f"unknown mode {mode!r}")
    if g.n_vertices > PEEL_ENUM_LIMIT:
        raise ValueError(f"exact peel minimum limited to {PEEL_ENUM_LIMIT} vertices")
    term = _clique_term(eps)
    masks = _neighbor_masks(g)

    @functools.cache
    def least(residual: int) -> int:
        cliques = _maximum_cliques(masks, residual)
        if cliques[0].bit_count() <= 1:
            return residual.bit_count()  # no edges left: one singleton per vertex
        return min(term(w.bit_count()) + least(residual & ~w) for w in cliques)

    return least((1 << g.n_vertices) - 1)


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
    """Is there a total order of the m classes whose value span fits in [0, 1]?

    Placing classes left to right, each class gets the longest-path label of
    the order-constraint system: at least its predecessor's label, and one
    eps-step above any already placed quotient neighbor. All labels are
    integer multiples of eps, so the infimum span is label*eps and the order
    is feasible exactly when the final label is at most k_allow (the largest
    k with k*eps < 1). Candidates are tried lowest-label first, which finds
    feasible orders greedily; a class whose label would exceed k_allow prunes
    the branch, since labels only grow down the order.
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


def _greedy_clique_size(qadj: list[int], m: int) -> int:
    best = 1
    for start in range(m):
        clique = 1 << start
        cand = qadj[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            clique |= 1 << v
            cand &= qadj[v]
        best = max(best, clique.bit_count())
    return best


def brute_force_index(g: Graph, eps: float) -> int:
    """Exact opinion index by enumeration, independent oracle for N <= 8.

    Every partition of the vertex set into equal-opinion classes induces a
    quotient graph (edge between classes joined by a graph edge); the
    partition is realizable iff some total ordering of class values keeps all
    pairwise separations above eps inside [0, 1], i.e. the longest chain of
    quotient edges in the ordering stays below 1/eps steps. Separations must
    strictly exceed eps; k_allow is computed by exact rational comparison so
    boundary thresholds are decided on the true binary value of eps.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("epsilon out of range [0, 1]")
    n = g.n_vertices
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} vertices")
    if eps == 0 or g.n_edges == 0:
        return n
    feps = Fraction(eps)
    k_allow = 0
    while k_allow < n - 1 and (k_allow + 1) * feps < 1:
        k_allow += 1

    grouped = _partitions_by_class_count(n)
    for m in range(n, 0, -1):
        for cls_of in grouped[m]:
            qadj = [0] * m
            for i, j in g.edges:
                a, b = cls_of[i], cls_of[j]
                if a != b:
                    qadj[a] |= 1 << b
                    qadj[b] |= 1 << a
            if _greedy_clique_size(qadj, m) - 1 > k_allow:
                continue
            if _exists_ordering(qadj, m, k_allow):
                return m
    return 1


def index_bounds(g: Graph, eps: float) -> IndexBounds:
    """Assemble lower/upper bounds and, on tiny graphs, the exact index."""
    lower, witness = index_lower_bound(g, eps)
    mode = "exact-enumerate" if g.n_vertices <= PEEL_ENUM_LIMIT else "greedy"
    upper = clique_upper_bound(g, eps, mode)
    exact = brute_force_index(g, eps) if g.n_vertices <= BRUTE_FORCE_LIMIT else None
    return IndexBounds(lower=lower, upper=upper, exact=exact, witness_lower=witness)
