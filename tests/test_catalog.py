"""Catalogue correctness: independent orbit counting at small orders plus
the published class counts above that."""

import pytest

from domdensity.graphs import bipartition, is_connected
from support import all_graphs, connected_bipartite_graphs, connected_graphs


def _orbit_count(n: int) -> int:
    """Count isomorphism classes of labelled graphs on n vertices by BFS
    over the relabeling orbit graph (adjacent transpositions as generators).
    Entirely independent of the canonical-form machinery."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    index = {p: t for t, p in enumerate(pairs)}

    def swap(mask: int, a: int, b: int) -> int:
        out = 0
        for t, (i, j) in enumerate(pairs):
            if not mask >> t & 1:
                continue
            u = a if i == b else (b if i == a else i)
            v = a if j == b else (b if j == a else j)
            if u > v:
                u, v = v, u
            out |= 1 << index[(u, v)]
        return out

    total = 1 << len(pairs)
    seen = bytearray(total)
    classes = 0
    for start in range(total):
        if seen[start]:
            continue
        classes += 1
        stack = [start]
        seen[start] = 1
        while stack:
            cur = stack.pop()
            for a in range(n - 1):
                nxt = swap(cur, a, a + 1)
                if not seen[nxt]:
                    seen[nxt] = 1
                    stack.append(nxt)
    return classes


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_counts_match_orbit_oracle(n):
    assert len(all_graphs(n)) == _orbit_count(n)


def test_counts_match_published_sequence():
    # class counts of simple graphs and of connected simple graphs
    assert [len(all_graphs(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert [len(connected_graphs(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_pairwise_distinct_at_small_orders():
    for n in range(1, 6):
        graphs = all_graphs(n)
        masks = {tuple(g.neighbors) for g in graphs}
        assert len(masks) == len(graphs)


def test_connected_filter_agrees():
    for n in range(1, 7):
        assert all(is_connected(g) for g in connected_graphs(n))
        assert set(map(id, connected_graphs(n))) <= set(map(id, all_graphs(n)))


def test_bipartite_filter_agrees():
    for n in range(1, 7):
        expected = [g for g in connected_graphs(n) if bipartition(g) is not None]
        assert list(connected_bipartite_graphs(n)) == expected
