"""Solver and oracle: exact domination numbers, witnesses, the product
inequality check, and the persistent gamma cache."""

import random
import sys
from functools import reduce
from itertools import combinations, permutations
from operator import or_

import pytest

from domdensity import domination
from domdensity.domination import (
    GammaCache,
    _Search,
    _automorphism,
    check_vizing,
    closed_neighborhoods,
    each_minimum_set,
    gamma_exact,
    gamma_value,
    is_dominating,
)
from domdensity.enumeration import to_graph
from domdensity.errors import CapacityError, PreconditionError
from domdensity.graphs import (
    attach_leaves,
    bit_list,
    cartesian_product,
    from_edges,
    graph_key,
)
from conftest import random_graph
from support import (
    BRUTE_FORCE_LIMIT,
    _dominating_sets,
    all_graphs,
    complete_bipartite,
    complete_graph,
    connected_bipartite_graphs,
    cycle_graph,
    disjoint_union,
    empty_graph,
    gamma_brute,
    path_graph,
    star,
)


def witness_oracle_graphs():
    rng = random.Random(7)
    graphs = [g for n in range(1, 7) for g in all_graphs(n)]
    return graphs + [random_graph(rng, rng.randrange(1, 13), rng.uniform(0.1, 0.9))
                     for _ in range(500)]


def first_minimum_set(g, gamma):
    # combinations() yields sorted tuples in lexicographic order, so the
    # first dominating one of size gamma is the lex-min witness.
    masks = (sum(1 << v for v in combo) for combo in combinations(range(g.n), gamma))
    return next(m for m in masks if is_dominating(g, m))


class TestIsDominating:
    def test_opposite_pair_dominates_c4(self):
        assert is_dominating(cycle_graph(4), 0b0101)
        assert is_dominating(cycle_graph(4), 0b0011)

    def test_worked_example_set(self, rank6_matrix):
        g = to_graph(rank6_matrix).graph
        d = (1 << 1) | (1 << 4) | (1 << 6) | (1 << 9)  # a2, a5, b1, b4
        assert is_dominating(g, d)

    def test_empty_set_never_dominates(self):
        assert not is_dominating(path_graph(3), 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            is_dominating(path_graph(2), 0b100)


class TestGammaBrute:
    def test_complete_bipartite_balanced(self):
        assert gamma_brute(complete_bipartite(2, 2)) == 2
        assert gamma_brute(complete_bipartite(3, 3)) == 2

    def test_c6(self):
        assert gamma_brute(cycle_graph(6)) == 2

    def test_edgeless(self):
        assert gamma_brute(empty_graph(6)) == 6


class TestGammaExact:
    def test_p3_center(self):
        gamma, witness = gamma_exact(path_graph(3))
        assert gamma == 1 and witness == 0b010

    def test_worked_3regular_example(self, rank6_matrix):
        g = to_graph(rank6_matrix).graph
        gamma, witness = gamma_exact(g)
        assert gamma == 4 == gamma_brute(g)
        assert is_dominating(g, witness)

    def test_block_form_example(self, block6_matrix):
        g = to_graph(block6_matrix).graph
        gamma, witness = gamma_exact(g)
        assert gamma == 4 == gamma_brute(g)
        assert is_dominating(g, witness)

    def test_a_solve_deeper_than_the_default_recursion_limit(self):
        # The witness probes descend about gamma levels: P3023 (gamma 1008)
        # overflowed the interpreter's default limit of 1000 frames.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            g = path_graph(3023)
            gamma, witness = gamma_exact(g)
        finally:
            sys.setrecursionlimit(limit)
        assert gamma == 1008 and is_dominating(g, witness)

    @pytest.mark.parametrize("g", [cycle_graph(4096), path_graph(3100)],
                             ids=["C4096", "P3100"])
    def test_large_sparse_graphs_in_reach(self, g):
        # gamma(C_n) = gamma(P_n) = ceil(n / 3); the seed is already optimal.
        gamma, witness = gamma_exact(g)
        assert gamma == -(-g.n // 3) and is_dominating(g, witness)

    def test_witness_is_lexicographically_first(self):
        # P4: {0,2} beats every other minimum dominating set in sorted order
        gamma, witness = gamma_exact(path_graph(4))
        assert gamma == 2 and bit_list(witness) == [0, 2]
        # C4: every pair dominates, so {0,1} wins
        gamma, witness = gamma_exact(cycle_graph(4))
        assert gamma == 2 and bit_list(witness) == [0, 1]

    def test_witness_is_first_minimum_set_in_combination_order(self):
        for g in witness_oracle_graphs():
            gamma, witness = gamma_exact(g)
            assert witness == first_minimum_set(g, gamma)

    def test_agrees_with_oracle_exhaustively_to_7(self):
        for n in range(1, 8):
            for g in all_graphs(n):
                assert gamma_value(g) == gamma_brute(g)

    def test_agrees_with_oracle_on_random_graphs(self):
        rng = random.Random(4242)
        for _ in range(1000):
            g = random_graph(rng, rng.randrange(1, 13), rng.uniform(0.1, 0.9))
            assert gamma_value(g) == gamma_brute(g)

    def test_witness_always_dominates(self):
        rng = random.Random(97)
        for _ in range(200):
            g = random_graph(rng, rng.randrange(1, 11), rng.uniform(0.1, 0.9))
            gamma, witness = gamma_exact(g)
            assert witness.bit_count() == gamma
            assert is_dominating(g, witness)

    def test_additive_over_components(self):
        g = disjoint_union(cycle_graph(4), path_graph(3))
        assert gamma_value(g) == 3

    def test_gamma_never_decreases_under_leaf_attachment(self):
        rng = random.Random(59)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(2, 9), rng.uniform(0.2, 0.8))
            targets = rng.randrange(1, 1 << g.n)
            assert gamma_value(attach_leaves(g, targets)) >= gamma_value(g)

    def test_gamma_unchanged_by_leaves_on_witness_vertices(self):
        rng = random.Random(53)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(2, 10), rng.uniform(0.2, 0.8))
            gamma, witness = gamma_exact(g)
            members = bit_list(witness)
            k = rng.randrange(1, len(members) + 1)
            subset = sum(1 << v for v in rng.sample(members, k))
            assert gamma_value(attach_leaves(g, subset)) == gamma


def no_automorphism(neighbors, x, y, budget):
    return None, 0


def new_search(g, one_packing=False):
    """A search; with ``one_packing`` it cuts by the ascending packing alone.

    A zeroed ``far`` stops the descending packing after one vertex, and a
    packing of one vertex never cuts where the ascending one does not.
    """
    search = _Search(g)
    if one_packing:
        search.far = [0] * g.n
    return search


def solve_passes(g, one_packing=False):
    """Value-pass nodes, then gamma, the value pass's cover and the witness."""
    search = new_search(g, one_packing)
    gamma = search.minimum_size(search.greedy_cover())
    return search.nodes, (gamma, search.found, search.lexmin_witness(gamma))


class TestSearchNodes:
    """The value pass keeps its search tree; its cover seeds the witness pass.
    The cases without a packing suffix pin the ascending packing alone."""

    @pytest.mark.parametrize("a, b, one_packing, value_nodes, unseeded_witness_nodes", [
        (7, 7, True, 4_490, 8_619),
        (8, 9, True, 46_616, 40_840),
        (7, 7, False, 2_769, 4_909),
        (8, 9, False, 28_404, 23_025),
    ], ids=["C7xC7", "C8xC9", "C7xC7-two-packings", "C8xC9-two-packings"])
    def test_descend_calls_per_pass(self, a, b, one_packing, value_nodes,
                                    unseeded_witness_nodes):
        # ``nodes`` counts every node both passes evaluate, cut or not, from
        # the value pass's start.
        search = new_search(cartesian_product(cycle_graph(a), cycle_graph(b)), one_packing)
        gamma = search.minimum_size(search.greedy_cover())
        assert search.nodes == value_nodes
        search.lexmin_witness(gamma)
        assert search.nodes - value_nodes < unseeded_witness_nodes / 2

    # With no automorphism found, the root searches every child, as it did
    # before orbit pruning: the old tree, with the same value, cover and witness.
    @pytest.mark.parametrize("a, b, one_packing, unpruned_nodes", [
        (7, 7, True, 10_451),
        (8, 9, True, 137_292),
        (7, 7, False, 6_920),
        (8, 9, False, 79_685),
    ], ids=["C7xC7", "C8xC9", "C7xC7-two-packings", "C8xC9-two-packings"])
    def test_unpruned_tree_keeps_the_answer(self, monkeypatch, a, b, one_packing,
                                            unpruned_nodes):
        g = cartesian_product(cycle_graph(a), cycle_graph(b))
        nodes, answer = solve_passes(g, one_packing)
        monkeypatch.setattr(domination, "_automorphism", no_automorphism)
        assert solve_passes(g, one_packing) == (unpruned_nodes, answer)

    def test_two_packings_keep_the_answer(self, monkeypatch):
        graphs = TestOrbitPruning.oracle_graphs() + TestOrbitPruning.vertex_transitive()
        two = [solve_passes(g)[1] for g in graphs]
        assert two == [solve_passes(g, one_packing=True)[1] for g in graphs]
        # Every cut of the ascending packing is a cut of both, so the tree
        # only shrinks; orbit pruning is off, as its step budget follows the
        # first root child's node count.  The descending packing cuts nodes
        # on 61 of these graphs.
        monkeypatch.setattr(domination, "_automorphism", no_automorphism)
        two = [solve_passes(g)[0] for g in graphs]
        one = [solve_passes(g, one_packing=True)[0] for g in graphs]
        assert all(b <= a for b, a in zip(two, one))
        assert sum(b < a for b, a in zip(two, one)) >= 50


def pref_order(g):
    """Vertices by descending degree, ties by index: the solver's pref order."""
    return sorted(range(g.n), key=lambda v: (-g.neighbors[v].bit_count(), v))


def plain_greedy(g):
    """Oracle of the lazy greedy: every gain recomputed each round, O(gamma n)."""
    closed = [g.neighbors[v] | 1 << v for v in range(g.n)]
    covered = chosen = 0
    while covered != g.vertex_mask:
        best_v, best_gain = -1, 0
        for v in pref_order(g):
            gain = (closed[v] & ~covered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        chosen |= 1 << best_v
        covered |= closed[best_v]
    return chosen


def dive(g):
    """Oracle of the dive: the uncovered vertex of smallest closed
    neighbourhood (lowest index on a tie) gets its dominator of largest gain
    (lowest pref on a tie), until the graph is covered."""
    closed = [g.neighbors[v] | 1 << v for v in range(g.n)]
    pref = {v: r for r, v in enumerate(pref_order(g))}
    covered = chosen = 0
    while covered != g.vertex_mask:
        v = min((w for w in range(g.n) if not covered >> w & 1),
                key=lambda w: (closed[w].bit_count(), w))
        u = min(bit_list(closed[v]),
                key=lambda u: (-(closed[u] & ~covered).bit_count(), pref[u]))
        chosen |= 1 << u
        covered |= closed[u]
    return chosen


class TestSeedRule:
    """The value pass starts from the smaller of the greedy cover and the
    dive's cover, the greedy one on a tie."""

    @staticmethod
    def seed_graphs():
        # Random graphs of every density (isolated vertices at the sparse
        # end), regular graphs whose gains tie in every round, and regular
        # graphs made irregular by leaves.  Order 0 is refused by Graph.
        rng = random.Random(26)
        graphs = [empty_graph(1), path_graph(2), complete_graph(5), star(6)]
        graphs += [random_graph(rng, rng.randrange(1, 25), rng.uniform(0.02, 0.9))
                   for _ in range(800)]
        regular = [cycle_graph(n) for n in range(3, 30)]
        regular += [cartesian_product(cycle_graph(a), cycle_graph(b))
                    for a in range(3, 8) for b in range(a, 9)]
        regular += [from_edges(n, [(v, (v + c) % n) for v in range(n) for c in (1, 3)])
                    for n in range(7, 31)]
        graphs += regular + [disjoint_union(g, h) for g, h in zip(regular, regular[1:])]
        graphs += [attach_leaves(g, rng.randrange(1, 1 << g.n)) for g in regular]
        return graphs

    def test_lazy_greedy_is_the_plain_greedy(self):
        graphs = self.seed_graphs()
        assert len(graphs) >= 1000
        for g in graphs:
            assert _Search(g).greedy_cover() == plain_greedy(g)

    def test_seed_is_the_smaller_cover_and_greedy_on_a_tie(self):
        wins = ties = 0
        for g in self.seed_graphs():
            greedy, dived = plain_greedy(g), dive(g)
            seed = _Search(g).seed_cover()
            assert is_dominating(g, dived)
            assert seed == (dived if dived.bit_count() < greedy.bit_count() else greedy)
            wins += seed != greedy
            ties += dived != greedy and dived.bit_count() == greedy.bit_count()
        # Both branches of the rule are taken.
        assert wins >= 20 and ties >= 20

    @staticmethod
    def product(rank6_matrix, name):
        factors = {
            "rank6xC5": (to_graph(rank6_matrix).graph, cycle_graph(5)),
            "P8xP8": (path_graph(8), path_graph(8)),
            "C7xC7": (cycle_graph(7), cycle_graph(7)),
            "C8xC9": (cycle_graph(8), cycle_graph(9)),
            "C9xC9": (cycle_graph(9), cycle_graph(9)),
        }
        return cartesian_product(*factors[name])

    # The dive wins on the first three; C8xC9 keeps the greedy seed's tree.
    # Value-pass nodes under the seed rule with the ascending packing alone.
    @pytest.mark.parametrize("name, greedy_size, seed_size, value_nodes", [
        ("rank6xC5", 14, 12, 7_789),
        ("P8xP8", 19, 18, 1_822),
        ("C7xC7", 13, 12, 2_640),
        ("C8xC9", 18, 18, 46_616),
    ])
    def test_value_pass_nodes(self, rank6_matrix, name, greedy_size, seed_size,
                              value_nodes):
        search = new_search(self.product(rank6_matrix, name), one_packing=True)
        assert search.greedy_cover().bit_count() == greedy_size
        seed = search.seed_cover()
        assert seed.bit_count() == seed_size
        search.minimum_size(seed)
        assert search.nodes == value_nodes

    # Value-pass nodes under the greedy seed with the ascending packing
    # alone, then with both packings under the greedy seed and the seed rule.
    @pytest.mark.parametrize("name, one_packing_greedy, greedy_seeded, seed_rule", [
        ("rank6xC5", 27_207, 20_028, 6_503),
        ("P8xP8", 2_702, 2_042, 1_303),
        ("C7xC7", 4_490, 2_769, 1_773),
        ("C8xC9", 46_616, 28_404, 28_404),
    ])
    def test_value_pass_nodes_with_two_packings(self, rank6_matrix, name,
                                                one_packing_greedy, greedy_seeded,
                                                seed_rule):
        g = self.product(rank6_matrix, name)
        assert solve_passes(g, one_packing=True)[0] == one_packing_greedy
        assert solve_passes(g)[0] == greedy_seeded
        search = _Search(g)
        search.minimum_size(search.seed_cover())
        assert search.nodes == seed_rule

    # gamma_exact's own path: the seed rule and both packings, then the
    # witness pass seeded with the value pass's cover.
    @pytest.mark.parametrize("name, value_nodes, witness_nodes", [
        ("C7xC7", 1_773, 2_442),
        ("C8xC9", 28_404, 6_187),
        ("P8xP8", 1_303, 3_956),
        ("rank6xC5", 6_503, 22_748),
        ("C9xC9", 48_516, 24_406),
    ])
    def test_gamma_exact_nodes_per_pass(self, rank6_matrix, name, value_nodes,
                                        witness_nodes):
        g = self.product(rank6_matrix, name)
        search = _Search(g)
        gamma = search.minimum_size(search.seed_cover())
        assert search.nodes == value_nodes
        assert (gamma, search.lexmin_witness(gamma)) == gamma_exact(g)
        assert search.nodes - value_nodes == witness_nodes

    def test_same_answer_as_greedy_seeded(self):
        for g in TestOrbitPruning.oracle_graphs() + TestOrbitPruning.vertex_transitive():
            _, (gamma, _, witness) = solve_passes(g)
            search = _Search(g)
            assert search.minimum_size(search.seed_cover()) == gamma
            assert is_dominating(g, search.found) and search.found.bit_count() == gamma
            assert search.lexmin_witness(gamma) == witness
            assert gamma_value(g) == gamma and gamma_exact(g) == (gamma, witness)
            if g.n <= BRUTE_FORCE_LIMIT:
                assert gamma == gamma_brute(g)


def mirror(mask, n):
    """``mask`` with vertex v moved to bit n-1-v, by reversing its digits."""
    return int(format(mask, f"0{n}b")[::-1], 2)


def distances(g):
    """All-pairs distances by breadth-first search; n + 2 where unreachable."""
    dist = []
    for source in range(g.n):
        d = [g.n + 2] * g.n
        d[source] = 0
        queue = [source]
        for v in queue:
            for u in bit_list(g.neighbors[v]):
                if d[u] == g.n + 2:
                    d[u] = d[v] + 1
                    queue.append(u)
        dist.append(d)
    return dist


def greedy_packing(dist, order):
    """Each vertex of ``order`` that is at distance >= 3 from those taken."""
    taken = []
    for v in order:
        if all(dist[v][u] >= 3 for u in taken):
            taken.append(v)
    return taken


def top_bit_packing(far, m):
    """The solver's packing step: take m's highest bit v, keep m & far[v]."""
    taken = []
    while m:
        taken.append(m.bit_length() - 1)
        m &= far[taken[-1]]
    return taken


class TestPackings:
    """Each node is cut by two greedy 2-packings of its uncovered vertices,
    one in descending order over ``far`` and one in ascending order taken as
    descending over the mirrored masks (vertex v at bit n-1-v)."""

    @staticmethod
    def cases():
        rng = random.Random(27)
        for _ in range(150):
            g = random_graph(rng, rng.randrange(1, 15), rng.uniform(0.05, 0.6))
            for _ in range(4):
                yield g, rng.getrandbits(g.n)

    def test_mirrored_masks_are_bit_reversals(self):
        for g, _ in self.cases():
            search, dist = _Search(g), distances(g)
            for v in range(g.n):
                assert search.far[v] == sum(1 << w for w in range(g.n) if dist[v][w] >= 3)
                assert search.mclosed[v] == mirror(search.closed[v], g.n)
                assert search.mfar[g.n - 1 - v] == mirror(search.far[v], g.n)

    def test_packings_are_admissible(self):
        descending_larger = ascending_larger = 0
        for g, covered in self.cases():
            search, dist = _Search(g), distances(g)
            uncovered = g.vertex_mask & ~covered
            members = bit_list(uncovered)
            descending = top_bit_packing(search.far, uncovered)
            ascending = [g.n - 1 - w
                         for w in top_bit_packing(search.mfar, mirror(uncovered, g.n))]
            assert descending == greedy_packing(dist, members[::-1])
            assert ascending == greedy_packing(dist, members)
            # Vertices pairwise at distance >= 3 have disjoint closed
            # neighbourhoods, so no vertex dominates two of them.
            closed = closed_neighborhoods(g)
            needed = next(k for k in range(g.n + 1) for combo in combinations(closed, k)
                          if not uncovered & ~reduce(or_, combo, 0))
            for packing in (descending, ascending):
                assert all(dist[u][v] >= 3 for u, v in combinations(packing, 2))
                assert len(packing) <= needed
            descending_larger += len(descending) > len(ascending)
            ascending_larger += len(ascending) > len(descending)
        # Each order is sometimes the larger packing.
        assert descending_larger >= 10 and ascending_larger >= 10

    def test_a_node_is_cut_by_the_larger_bound(self):
        # A state enters the kernel as the one child v of a prefix that
        # chose nothing and allows every vertex: the child leaves
        # uncovered & ~closed[v], and its need is best - 1.  Every dominator
        # of a vertex it leaves uncovered is still allowed, so a child that
        # is not cut evaluates one of its own: the child is cut iff the
        # search counts one node.  The value pass's root, which
        # ``minimum_size`` bounds by its own copy, is the whole vertex set
        # at need = the seed's size; orbit pruning never skips its first
        # child.
        def bound(search, g, uncovered):
            return max(-(-uncovered.bit_count() // search.cover_span),
                       len(top_bit_packing(search.far, uncovered)),
                       len(top_bit_packing(search.mfar, mirror(uncovered, g.n))))

        cuts = survivors = 0
        for g, covered in self.cases():
            search = _Search(g)
            with search._kernel() as descend:
                for v in range(g.n):
                    uncovered = g.vertex_mask & ~covered & ~search.closed[v]
                    if not uncovered:
                        continue
                    cut_from = bound(search, g, uncovered)
                    for need in range(1, g.n + 2):
                        search.goal, search.best, search.nodes = -1, need + 1, 0
                        found = descend(0, 0, g.vertex_mask & ~covered,
                                        mirror(g.vertex_mask & ~covered, g.n),
                                        g.vertex_mask, 0, (v,))
                        assert (search.nodes == 1) == (need <= cut_from)
                        if need <= cut_from:
                            assert found is False
                        cuts += need <= cut_from
                        survivors += need > cut_from
            cut_from = bound(search, g, g.vertex_mask)
            for need in range(1, g.n + 1):
                assert search.minimum_size((1 << need) - 1) <= need
                assert (search.nodes == 1) == (need <= cut_from)
        assert cuts >= 1000 and survivors >= 1000


def hypercube(d):
    return from_edges(1 << d, [(v, v ^ 1 << i) for v in range(1 << d)
                               for i in range(d) if not v >> i & 1])


def petersen():
    return from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def assert_automorphism(g, perm, x, y):
    """Checked from the definition, not through the finder's own test."""
    assert sorted(perm) == list(range(g.n))
    assert perm[x] == y
    for v in range(g.n):
        for u in bit_list(g.neighbors[v]):
            assert g.has_edge(perm[u], perm[v])


class TestAutomorphism:
    UNBOUNDED = 10**9

    @pytest.mark.parametrize("g", [
        cycle_graph(3), cycle_graph(12),
        cartesian_product(cycle_graph(3), cycle_graph(5)),
        cartesian_product(cycle_graph(4), cycle_graph(6)),
        hypercube(4), petersen(), complete_bipartite(3, 3),
    ], ids=["C3", "C12", "C3xC5", "C4xC6", "Q4", "Petersen", "K3,3"])
    def test_vertex_transitive_maps_every_pair(self, g):
        for x in range(g.n):
            for y in range(g.n):
                perm, steps = _automorphism(g.neighbors, x, y, self.UNBOUNDED)
                assert_automorphism(g, perm, x, y)

    def test_worked_example_shifts_each_side(self, rank6_matrix):
        g = to_graph(rank6_matrix).graph
        for side in (range(6), range(6, 12)):
            for x in side:
                for y in side:
                    perm, steps = _automorphism(g.neighbors, x, y, self.UNBOUNDED)
                    assert_automorphism(g, perm, x, y)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_path_reflection(self, n):
        g = path_graph(n)
        perm, steps = _automorphism(g.neighbors, 0, n - 1, self.UNBOUNDED)
        assert_automorphism(g, perm, 0, n - 1)
        assert perm == list(range(n))[::-1]
        assert _automorphism(g.neighbors, 0, 1, self.UNBOUNDED)[0] is None

    def test_degree_mismatch(self):
        g = star(3)
        assert _automorphism(g.neighbors, 0, 1, self.UNBOUNDED)[0] is None
        assert _automorphism(g.neighbors, 1, 0, self.UNBOUNDED)[0] is None

    def test_rigid_graph(self):
        # The only automorphism of this 6-vertex graph is the identity, as
        # the check over all 720 permutations shows.
        g = from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 4), (2, 5), (3, 5)])
        edges = {(u, v) for v in range(6) for u in bit_list(g.neighbors[v])}
        autos = [p for p in permutations(range(6))
                 if all((p[u], p[v]) in edges for u, v in edges)]
        assert autos == [tuple(range(6))]
        for x in range(6):
            for y in range(6):
                perm, steps = _automorphism(g.neighbors, x, y, self.UNBOUNDED)
                assert perm == (list(range(6)) if x == y else None)

    def test_other_component_stays_fixed(self):
        g = disjoint_union(cycle_graph(4), cycle_graph(4))
        assert _automorphism(g.neighbors, 0, 4, self.UNBOUNDED)[0] is None
        perm, steps = _automorphism(g.neighbors, 0, 2, self.UNBOUNDED)
        assert_automorphism(g, perm, 0, 2)
        assert perm[4:] == [4, 5, 6, 7]

    @pytest.mark.parametrize("g, x, y", [
        (cycle_graph(40), 0, 17),
        (cartesian_product(cycle_graph(4), cycle_graph(6)), 0, 23),
        (hypercube(4), 0, 15),
        (petersen(), 0, 7),
        (from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 4), (2, 5), (3, 5)]), 0, 3),
    ], ids=["C40", "C4xC6", "Q4", "Petersen", "rigid"])
    def test_step_budget(self, g, x, y):
        perm, needed = _automorphism(g.neighbors, x, y, self.UNBOUNDED)
        assert _automorphism(g.neighbors, x, y, needed) == (perm, needed)
        for budget in range(needed):
            short, steps = _automorphism(g.neighbors, x, y, budget)
            assert short is None and steps <= budget


class TestOrbitPruning:
    """The root skips only subtrees whose covers have images already searched."""

    @staticmethod
    def vertex_transitive():
        cycles = [cycle_graph(n) for n in range(3, 19)]
        tori = [cartesian_product(cycle_graph(a), cycle_graph(b))
                for a in range(3, 7) for b in range(a, 9) if a * b <= 24]
        rooks = [cartesian_product(complete_graph(a), complete_graph(b))
                 for a in (2, 3, 4) for b in range(a, 7) if a * b <= 24]
        circulants = [from_edges(n, [(v, (v + c) % n) for v in range(n) for c in (1, 3)])
                      for n in range(7, 21)]
        return (cycles + tori + rooks + circulants
                + [hypercube(3), hypercube(4), petersen(), complete_bipartite(3, 3)])

    def test_vertex_transitive_matches_brute(self, rank6_matrix):
        for g in self.vertex_transitive() + [to_graph(rank6_matrix).graph]:
            assert gamma_value(g) == gamma_brute(g)

    @staticmethod
    def oracle_graphs():
        rng = random.Random(24)
        graphs = [random_graph(rng, rng.randrange(1, 17), rng.uniform(0.05, 0.9))
                  for _ in range(300)]
        for first in (cycle_graph, path_graph):
            for second in (cycle_graph, path_graph):
                graphs += [cartesian_product(first(a), second(b))
                           for a in range(3, 9) for b in range(a, 9) if a * b <= 40]
        return graphs

    def test_same_answer_as_unpruned(self, monkeypatch):
        graphs = self.oracle_graphs() + self.vertex_transitive()
        pruned = [solve_passes(g) for g in graphs]
        monkeypatch.setattr(domination, "_automorphism", no_automorphism)
        unpruned = [solve_passes(g) for g in graphs]
        assert [answer for _, answer in pruned] == [answer for _, answer in unpruned]
        # Pruning is exercised: it cuts nodes on 28 of these graphs.
        saved = sum(a > b for (b, _), (a, _) in zip(pruned, unpruned))
        assert all(b <= a for (b, _), (a, _) in zip(pruned, unpruned)) and saved >= 20


class TestEachMinimumSet:
    """The enumeration of the minimum dominating sets against every vertex
    subset of ``gamma_brute``'s size."""

    @staticmethod
    def oracle_graphs():
        return ([g for n in range(2, 8) for g in connected_bipartite_graphs(n)]
                + [path_graph(n) for n in range(2, 17)]
                + [cycle_graph(n) for n in range(4, 17)])

    def test_each_set_once(self):
        for g in self.oracle_graphs():
            gamma = gamma_brute(g)
            seen = []
            each_minimum_set(g, gamma, seen.append)
            assert len(seen) == len(set(seen))
            assert set(seen) == set(_dominating_sets(g, gamma))

    # The enumeration's probes keep their search trees: nodes over all the
    # probes, and the sets visited.
    @pytest.mark.parametrize("name, gamma, nodes, sets", [
        ("rank6", 4, 129, 51),
        ("P12", 4, 20, 1),
    ])
    def test_probe_nodes(self, monkeypatch, rank6_matrix, name, gamma, nodes, sets):
        g = to_graph(rank6_matrix).graph if name == "rank6" else path_graph(12)
        searches, seen = [], []

        class Recorded(_Search):
            def __init__(self, *args):
                super().__init__(*args)
                searches.append(self)

        monkeypatch.setattr(domination, "_Search", Recorded)
        each_minimum_set(g, gamma, seen.append)
        assert (searches[0].nodes, len(seen)) == (nodes, sets)

    # Every probe that meets a minimum dominating set reaches a cover below a
    # gamma that is too large, so no such gamma passes.
    def test_a_gamma_above_the_minimum_is_refused(self):
        for g in self.oracle_graphs():
            gamma = gamma_brute(g)
            with pytest.raises(ValueError, match=f"^{gamma + 1} is not this graph's"
                               f" domination number: {gamma} vertices dominate it"):
                each_minimum_set(g, gamma + 1, lambda mask: None)


class TestKnownValues:
    """Published domination numbers of grids and cycle products."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_narrow_grids(self, n):
        # Jacobson & Kinch 1984
        p2 = cartesian_product(path_graph(2), path_graph(n))
        p3 = cartesian_product(path_graph(3), path_graph(n))
        assert gamma_value(p2) == (n + 2) // 2
        assert gamma_value(p3) == (3 * n + 4) // 4

    def test_narrow_grid_against_oracle(self):
        assert gamma_brute(cartesian_product(path_graph(3), path_graph(8))) == 7

    @pytest.mark.parametrize("n", range(4, 10))
    def test_c4_cycle_products(self, n):
        assert gamma_value(cartesian_product(cycle_graph(4), cycle_graph(n))) == n

    @pytest.mark.parametrize("g,members", [
        (cycle_graph(7), [0, 1, 2, 11, 16, 20, 25, 28, 29, 34, 38, 47]),
        (path_graph(8), [0, 2, 6, 12, 17, 22, 23, 27, 32, 37, 42, 47, 48, 52, 58, 62]),
    ])
    def test_pinned_square_witnesses(self, g, members):
        gamma, witness = gamma_exact(cartesian_product(g, g))
        assert gamma == len(members) and bit_list(witness) == members


class TestCheckVizing:
    def test_k2_square(self):
        report = check_vizing(complete_bipartite(1, 1), complete_bipartite(1, 1))
        assert (report.gamma_g, report.gamma_h, report.gamma_product) == (1, 1, 2)
        assert report.holds

    def test_c4_square_matches_oracle(self):
        g = cycle_graph(4)
        product = cartesian_product(g, g)
        assert gamma_brute(product) == 4
        report = check_vizing(g, g)
        assert report.gamma_product == 4 and report.holds

    def test_p3_square(self):
        assert check_vizing(path_graph(3), path_graph(3)).holds

    def test_witnesses_dominate(self):
        g, h = path_graph(4), cycle_graph(5)
        report = check_vizing(g, h)
        assert is_dominating(g, report.witness_g)
        assert is_dominating(h, report.witness_h)
        product = cartesian_product(g, h)
        assert is_dominating(product, report.witness_product)

    def test_capacity_propagates(self):
        with pytest.raises(CapacityError):
            check_vizing(complete_graph(65), complete_graph(65))


class TestGammaCache:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "gamma.cache"
        cache = GammaCache(path)
        g = cycle_graph(6)
        assert gamma_value(g, cache) == 2
        assert len(cache) == 1
        reloaded = GammaCache(path)
        assert bit_list(reloaded.get(graph_key(g))) == [0, 3]
        assert path.read_text() == f"{graph_key(g)} 2 9\n"

    def test_append_only_accumulates(self, tmp_path):
        path = tmp_path / "gamma.cache"
        cache = GammaCache(path)
        gamma_value(cycle_graph(4), cache)
        gamma_value(cycle_graph(5), cache)
        assert len(path.read_text().splitlines()) == 2

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "gamma.cache"
        path.write_text("justonetoken\n")
        with pytest.raises(ValueError):
            GammaCache(path)

    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "gamma.cache"
        path.write_text("Cl 2 3\nCl")
        cache = GammaCache(path)
        assert len(cache) == 1 and cache.get("Cl") == 3
        # a torn "Cm 2 30" must not read as the witness {0, 1}
        path.write_text("Cl 2 3\nCm 2 3")
        cache = GammaCache(path)
        assert cache.get("Cm") is None and len(cache) == 1
        cache.put("Cm", 0x30)
        assert path.read_text() == "Cl 2 3\nCm 2 30\n"
        assert GammaCache(path).get("Cm") == 0x30

    @pytest.mark.parametrize("text, error", [
        ("Cl 3 7\nCl 2 3\n", ":2: conflicting cache line"),
        ("Cl 2 3\nCl 2 5\n", ":2: conflicting cache line"),
        ("Cl 2 3\nCl 3 7\n", ":2: conflicting cache line"),
        ("Cl 2 3 3\n", ":1: malformed cache line"),
        ("Cl 2 0x3\n", ":1: malformed cache line"),
        ("Cl 2 3A\n", ":1: malformed cache line"),
        ("Cl 2 7\n", ":1: malformed cache line"),
        ("Cl 0\n", ":1: malformed cache line"),
        ("Cl -3\n", ":1: malformed cache line"),
        ("Cl x\n", ":1: malformed cache line"),
        ("Cl 2\n", ":1: malformed cache line"),
        ("Cl 0 0\n", ":1: malformed cache line"),
        ("Cl x 3\n", ":1: malformed cache line"),
    ])
    def test_inconsistent_or_malformed_lines_rejected(self, tmp_path, text, error):
        path = tmp_path / "gamma.cache"
        path.write_text(text)
        with pytest.raises(ValueError, match=error):
            GammaCache(path)

    def test_logged_witness_is_the_uncached_one(self, tmp_path):
        rng = random.Random(1010)
        graphs = [g for n in range(1, 7) for g in all_graphs(n)]
        graphs += [random_graph(rng, rng.randrange(1, 15), rng.uniform(0.1, 0.9))
                   for _ in range(200)]
        expected = {graph_key(g): gamma_exact(g) for g in graphs}
        path = tmp_path / "gamma.cache"
        cache = GammaCache(path)
        for g in graphs:
            assert gamma_exact(g, cache) == expected[graph_key(g)]
        lines = [line.split() for line in path.read_text().splitlines()]
        assert len(lines) == len(expected)
        for key, value, mask in lines:
            gamma, witness = expected[key]
            assert (int(value), int(mask, 16)) == (gamma, witness)
        reloaded = GammaCache(path)
        for g in graphs:
            assert gamma_exact(g, reloaded) == expected[graph_key(g)]
        assert path.read_text().count("\n") == len(expected)

    def test_in_memory_mode(self):
        cache = GammaCache()
        assert gamma_value(star(4), cache) == 1
        assert gamma_value(star(4), cache) == 1
        assert len(cache) == 1

    def test_hit_skips_search(self):
        cache = GammaCache()
        # the three leaves are minimal but not minimum: proves the hit is used
        cache.put(graph_key(star(3)), 0b1110)
        assert gamma_value(star(3), cache) == 3
        g = cycle_graph(7)
        cache.put(graph_key(g), 0b11)  # {0, 1} misses vertices 3 and 4
        with pytest.raises(ValueError, match="does not dominate"):
            gamma_value(g, cache)


def test_product_inequality_sampled_pairs_to_6():
    # the known-true regime one size above the exhaustive acceptance sweep
    from support import connected_graphs
    rng = random.Random(313)
    pool = [g for n in range(1, 7) for g in connected_graphs(n)]
    for _ in range(200):
        g, h = rng.choice(pool), rng.choice(pool)
        product = cartesian_product(g, h)
        assert gamma_value(product) >= gamma_value(g) * gamma_value(h)


def test_star_product_gamma():
    # K_{1,9} box K_{1,9}: the centre row dominates everything, and the 81
    # leaf-leaf vertices force ten vertices (nine disjoint lines plus one
    # more for the untouched head row), so gamma is exactly 10.
    g = star(9)
    report = check_vizing(g, g)
    assert report.gamma_product == 10
    assert report.holds
