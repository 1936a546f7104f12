"""Test-only code: graph fixtures, the n = k + 2 block matrix, the
brute-force oracle for gamma, and catalogues of small graphs.  No command
reaches any of it; pytest's default ``prepend`` import mode puts ``tests/``
on ``sys.path``, so a test reads it with ``from support import ...``.

``gamma_brute`` is the solver's independent oracle: subset enumeration in
increasing size order on ``itertools.combinations``.  It shares no code
with the solver, so ``_dominating_sets`` at its size also checks
``domination.each_minimum_set``, the sweep ``transform`` reads.

``hypothesis_oracle`` is ``transform.evaluate_hypothesis`` by its
definition: every minimum dominating set from the same enumeration, judged
per (set, side) by the ``Fraction`` gate and by m* found as the least s
with s / x strictly above the density, by linear search.

The catalogues are built by one-vertex extension with canonical-form dedup:
every isomorphism class on n vertices arises from some class on n-1
vertices plus one new neighbourhood, so the construction is exhaustive.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, count, permutations, product
from operator import or_

from domdensity.enumeration import BiadjacencyMatrix
from domdensity.errors import PreconditionError
from domdensity.graphs import (
    BipartiteGraph,
    Graph,
    bipartition,
    from_edges,
    is_connected,
    iter_bits,
)
from domdensity.transform import HypothesisReport

# The largest order the suites hand to gamma_brute.
BRUTE_FORCE_LIMIT = 24


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def path_graph(n: int) -> Graph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    left = (1 << a) - 1
    right = ((1 << b) - 1) << a
    return Graph(a + b, tuple(right if v < a else left for v in range(a + b)))


def star(leaves: int) -> Graph:
    """K_{1,leaves} with the centre at vertex 0."""
    return complete_bipartite(1, leaves)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    nb = list(g.neighbors) + [m << g.n for m in h.neighbors]
    return Graph(g.n + h.n, tuple(nb))


def unique_form_matrix(n: int) -> BiadjacencyMatrix:
    """All ones minus n/2 disjoint 2x2 zero blocks along the diagonal."""
    if n < 2 or n % 2:
        raise PreconditionError("the block form needs an even order >= 2")
    full = (1 << n) - 1
    rows = tuple(full ^ (0b11 << (2 * (i // 2))) for i in range(n))
    return BiadjacencyMatrix(n, n - 2, rows)


def _dominating_sets(g: Graph, size: int):
    """Each vertex set of ``size``, in ``combinations`` order, whose closed
    neighbourhoods cover V(g), as a bitmask."""
    closed = [nb | 1 << v for v, nb in enumerate(g.neighbors)]
    full = (1 << g.n) - 1
    for combo in combinations(range(g.n), size):
        if reduce(or_, (closed[v] for v in combo), 0) == full:
            yield sum(1 << v for v in combo)


def gamma_brute(g: Graph) -> int:
    """The least size of a vertex set whose closed neighbourhoods cover V(g)."""
    return next(size for size in range(g.n + 1)
                if next(_dominating_sets(g, size), None) is not None)


def m_star_oracle(x: int, rho_h: Fraction) -> int:
    """The least s with s / x strictly above ``rho_h``, by linear search."""
    return next(s for s in count() if Fraction(s, x) > rho_h)


def hypothesis_oracle(bg: BipartiteGraph, rho_h: Fraction) -> HypothesisReport:
    """``evaluate_hypothesis`` judged per (minimum dominating set, side)."""
    gamma = gamma_brute(bg.graph)
    gate_met = equality_flagged = False
    splits = []
    for mask in _dominating_sets(bg.graph, gamma):
        for side, side_mask in (("A", bg.side_a), ("B", bg.side_b)):
            x = side_mask.bit_count()
            d_in = mask & side_mask
            if x == 0 or Fraction(d_in.bit_count(), x) < rho_h:
                continue
            gate_met = True
            ms = m_star_oracle(x, rho_h)
            if ms > d_in.bit_count():
                equality_flagged = True
            else:
                splits.append((ms, side, mask, x, d_in))
    ms, side, _, x, d_in = min(splits, default=(None,) * 5)
    return HypothesisReport(rho_h, gamma, gate_met, equality_flagged,
                            side, x, d_in, ms)


def _refined_colors(g: Graph) -> list[int]:
    colors = [g.degree(v) for v in range(g.n)]
    distinct = len(set(colors))
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[u] for u in iter_bits(g.neighbors[v]))))
            for v in range(g.n)
        ]
        remap = {s: i for i, s in enumerate(sorted(set(sig)))}
        colors = [remap[s] for s in sig]
        if len(remap) == distinct:
            return colors
        distinct = len(remap)


def canonical_form(g: Graph) -> tuple[int, int]:
    """Minimal edge-set encoding over all relabelings, as (n, bitmask).

    Permutations are restricted to the colour classes of a degree/neighbour
    refinement, which is sound because the refinement is an isomorphism
    invariant and class order is fixed by the invariant values themselves.
    Exponential in the class sizes, so meant for small orders only.
    """
    colors = _refined_colors(g)
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(colors[v], []).append(v)
    ordered = [classes[c] for c in sorted(classes)]
    offsets = []
    off = 0
    for members in ordered:
        offsets.append(off)
        off += len(members)
    edge_list = list(g.edges())
    best = None
    pos = [0] * g.n
    for arrangement in product(*(permutations(members) for members in ordered)):
        for ci, arranged in enumerate(arrangement):
            base = offsets[ci]
            for i, v in enumerate(arranged):
                pos[v] = base + i
        key = 0
        for u, v in edge_list:
            i, j = pos[u], pos[v]
            if i > j:
                i, j = j, i
            key |= 1 << (j * (j - 1) // 2 + i)
        if best is None or key < best:
            best = key
    return g.n, best if best is not None else 0


@cache
def all_graphs(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of graphs on n vertices."""
    if n == 1:
        return (Graph(1, (0,)),)
    reps: dict[tuple[int, int], Graph] = {}
    top = n - 1
    for g in all_graphs(n - 1):
        for mask in range(1 << top):
            nb = [g.neighbors[v] | ((mask >> v & 1) << top) for v in range(top)]
            nb.append(mask)
            candidate = Graph(n, tuple(nb))
            key = canonical_form(candidate)
            if key not in reps:
                reps[key] = candidate
    return tuple(reps.values())


@cache
def connected_graphs(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in all_graphs(n) if is_connected(g))


@cache
def connected_bipartite_graphs(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in connected_graphs(n) if bipartition(g) is not None)
