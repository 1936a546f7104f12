"""Shared constructions for the suite.

The two worked 6x6 instances double as cross-module anchors: a 3-regular
matrix whose rational rank is full (so no 2-row disjoint cover can exist),
and the 4-regular all-ones-minus-three-2x2-blocks matrix, the unique
gamma = 4 shape at n = k + 2.
"""

import random

import pytest

from domdensity.enumeration import BiadjacencyMatrix
from domdensity.graphs import Graph, from_edges

# 3-regular, |A| = |B| = 6, full rational rank; minimum dominating set
# {a2, a5, b1, b4} has size 4.  Row masks use bit j for column j.
RANK6_ROWS = (0b001011, 0b010110, 0b101100, 0b011001, 0b110010, 0b100101)

# 4-regular, |A| = |B| = 6: all ones minus three diagonal 2x2 zero blocks.
BLOCK6_ROWS = (0b111100, 0b111100, 0b110011, 0b110011, 0b001111, 0b001111)


@pytest.fixture(scope="session")
def rank6_matrix():
    return BiadjacencyMatrix(6, 3, RANK6_ROWS)


@pytest.fixture(scope="session")
def block6_matrix():
    return BiadjacencyMatrix(6, 4, BLOCK6_ROWS)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return from_edges(n, edges)


def random_connected_bipartite(rng: random.Random, n: int) -> Graph:
    """Random connected bipartite graph: a random cross spanning tree plus
    random extra cross edges."""
    assert n >= 2
    a = rng.randrange(1, n)
    left = list(range(a))
    right = list(range(a, n))
    edges = set()
    # spanning tree over the bipartition
    connected = [rng.choice(left), rng.choice(right)]
    edges.add((connected[0], connected[1]))
    rest = [v for v in range(n) if v not in connected]
    rng.shuffle(rest)
    for v in rest:
        partner_pool = [u for u in connected if (u < a) != (v < a)]
        u = rng.choice(partner_pool)
        edges.add((min(u, v), max(u, v)))
        connected.append(v)
    for u in left:
        for v in right:
            if rng.random() < 0.3:
                edges.add((u, v))
    return from_edges(n, edges)
