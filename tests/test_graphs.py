"""Graph core: construction, graph6 round trips, bipartitions, products,
leaf attachment."""

import random

import pytest

from domdensity.cli import load_graph_text
from domdensity.errors import CapacityError, ParseError
from domdensity.graphs import (
    BipartiteGraph,
    Graph,
    attach_leaves,
    bipartition,
    cartesian_product,
    emit_graph6,
    from_edges,
    graph_key,
    is_connected,
    max_degree,
    parse_graph6,
)
from conftest import RANK6_ROWS, random_graph
from support import (
    all_graphs,
    canonical_form,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    star,
)


# ---------------------------------------------------------------------------
# an independent graph6 codec, string-based, used as the oracle
# ---------------------------------------------------------------------------

def reference_decode(line: str):
    """Second graph6 decoder: builds the whole bit string explicitly."""
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    n = ord(line[0]) - 63
    assert 0 <= n <= 62, "reference decoder handles single-byte orders only"
    stream = ""
    for ch in line[1:]:
        stream += format(ord(ch) - 63, "06b")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if stream[pos] == "1":
                edges.append((i, j))
            pos += 1
    return n, sorted(edges)


def reference_encode(n: int, edges) -> str:
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    bits = ""
    for j in range(1, n):
        for i in range(j):
            bits += "1" if (i, j) in edge_set else "0"
    while len(bits) % 6:
        bits += "0"
    out = chr(n + 63)
    for t in range(0, len(bits), 6):
        out += chr(int(bits[t:t + 6], 2) + 63)
    return out


def pairwise_emit(g: Graph) -> str:
    """graph6 encoder that walks the vertex pairs one at a time."""
    n = g.n
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~", chr(63 + (n >> 12 & 63)), chr(63 + (n >> 6 & 63)), chr(63 + (n & 63))]
    cur = filled = 0
    for j in range(1, n):
        for i in range(j):
            cur = cur << 1 | (g.neighbors[j] >> i & 1)
            filled += 1
            if filled == 6:
                out.append(chr(63 + cur))
                cur = filled = 0
    if filled:
        out.append(chr(63 + (cur << (6 - filled))))
    return "".join(out)


def pairwise_decode(line: str) -> Graph:
    """graph6 decoder for well-formed lines that walks the pairs one at a time."""
    if line[0] == "~":
        n = sum(ord(line[1 + t]) - 63 << 6 * (2 - t) for t in range(3))
        line = line[4:]
    else:
        n, line = ord(line[0]) - 63, line[1:]
    vals = [ord(c) - 63 for c in line]
    nb = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if vals[k // 6] >> (5 - k % 6) & 1:
                nb[i] |= 1 << j
                nb[j] |= 1 << i
            k += 1
    return Graph(n, tuple(nb))


class TestGraphType:
    def test_rejects_empty_order(self):
        with pytest.raises(ValueError, match="^graph order must be a positive integer$"):
            Graph(0, ())

    def test_rejects_short_neighbor_table(self):
        with pytest.raises(ValueError, match="^neighbor table length does not match order$"):
            Graph(2, (0b10,))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="^self-loop at vertex 0$"):
            Graph(2, (0b01, 0b01))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="^asymmetric adjacency between 0 and 1$"):
            Graph(2, (0b10, 0b00))

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(ValueError,
                           match="^neighbour mask of vertex 0 references vertices >= n$"):
            Graph(2, (0b100, 0b000))

    def test_graph_types_are_immutable(self):
        g = cycle_graph(4)
        for record, field in ((g, "n"), (bipartition(g), "side_a")):
            with pytest.raises(AttributeError):
                setattr(record, field, 1)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_edge_count_and_edges(self):
        g = cycle_graph(5)
        assert g.edge_count() == 5
        assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


class TestGraph6:
    def test_k2_emits_canonical_string(self):
        assert emit_graph6(complete_bipartite(1, 1)) == "A_"

    def test_single_vertex(self):
        assert emit_graph6(empty_graph(1)) == "@"
        g = parse_graph6("@")
        assert g.n == 1 and g.neighbors == (0,)

    def test_parse_k2(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.has_edge(0, 1)

    def test_known_5_vertex_example(self):
        g = parse_graph6("D?{")
        n, edges = reference_decode("D?{")
        assert g.n == n == 5
        assert sorted(g.edges()) == edges == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<A_").has_edge(0, 1)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_graph6("")

    def test_truncated_payload_names_offset(self):
        # C5 needs 2 payload bytes; supply one
        line = emit_graph6(cycle_graph(5))[:2]
        with pytest.raises(ParseError) as err:
            parse_graph6(line)
        assert err.value.offset == 2

    def test_trailing_garbage_names_offset(self):
        with pytest.raises(ParseError) as err:
            parse_graph6("A_?")
        assert err.value.offset == 2

    def test_invalid_byte(self):
        with pytest.raises(ParseError):
            parse_graph6("A" + chr(200))

    def test_nonzero_padding_rejected(self):
        # K2 payload with a stray low bit set
        with pytest.raises(ParseError):
            parse_graph6("A" + chr(63 + 0b100001))

    def test_zero_order_rejected(self):
        with pytest.raises(ParseError):
            parse_graph6("?")

    def test_exhaustive_round_trip_n_le_5(self):
        # every labelled graph on 3..5 vertices, against the reference codec
        for n in range(3, 6):
            pairs = [(i, j) for j in range(1, n) for i in range(j)]
            for mask in range(1 << len(pairs)):
                edges = [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
                g = from_edges(n, edges)
                line = emit_graph6(g)
                assert line == reference_encode(n, edges)
                back = parse_graph6(line)
                assert back == g

    # The codec packs whole columns through binascii; the pairwise loops
    # are its oracle, on single- and multi-byte orders.
    def test_codec_matches_the_pairwise_oracle(self):
        rng = random.Random(2027)
        graphs = [g for n in range(1, 8) for g in all_graphs(n)]
        graphs += [random_graph(rng, rng.choice([8, 13, 62, 63, 100, 130]), rng.random())
                   for _ in range(40)]
        graphs += [cycle_graph(400), complete_graph(90)]
        for g in graphs:
            line = emit_graph6(g)
            assert line == pairwise_emit(g)
            assert parse_graph6(line) == pairwise_decode(line) == g

    def test_random_round_trip_10_vertices(self):
        rng = random.Random(1009)
        for _ in range(1000):
            g = random_graph(rng, 10, rng.random())
            assert parse_graph6(emit_graph6(g)) == g

    def test_multibyte_order_round_trip(self):
        g = empty_graph(63)
        line = emit_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g
        g2 = attach_leaves(empty_graph(70), (1 << 70) - 1)
        assert parse_graph6(emit_graph6(g2)) == g2

    def test_graph_key_forms(self):
        assert graph_key(complete_bipartite(1, 1)) == "A_"
        assert graph_key(empty_graph(63)).startswith("sha256:")

    def test_graph_keys_pinned_on_both_sides_of_the_hash_cutoff(self):
        # Keys already in cache files: n <= 62 is raw graph6, n >= 63 is
        # the sha256 of the graph6 string.
        assert graph_key(cycle_graph(62)) == emit_graph6(cycle_graph(62))
        assert graph_key(cycle_graph(5)) == "Dhc"
        assert graph_key(cycle_graph(63)) == (
            "sha256:56a3cdea739a3cf261e541715563196d34f5a7d9c51515a5daae447e3dd00883")


class TestEdgeList:
    def test_parse_with_comments(self):
        g = load_graph_text("# triangle plus tail\n0 1\n1 2\n2 0\n2 3 # tail\n")
        assert g.n == 4 and g.edge_count() == 4

    def test_rejects_self_loop(self):
        with pytest.raises(ParseError):
            load_graph_text("0 0\n")

    def test_rejects_malformed_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_graph_text("0 1\n0 1 2\n")

    def test_rejects_empty(self):
        with pytest.raises(ParseError, match="^the input holds no graph$"):
            load_graph_text("# nothing\n")

    def test_duplicate_edges_collapse(self):
        g = load_graph_text("0 1\n1 0\n")
        assert g.edge_count() == 1


class TestBipartition:
    def test_c4_splits_evenly(self):
        bg = bipartition(cycle_graph(4))
        assert bg.size_a == bg.size_b == 2

    def test_c5_has_no_bipartition(self):
        assert bipartition(cycle_graph(5)) is None

    def test_star_center_is_small_side(self):
        bg = bipartition(star(9))
        assert bg.size_a == 1 and bg.side_a == 1  # the centre, vertex 0

    def test_deterministic_tie_break_toward_lowest_vertex(self):
        bg = bipartition(from_edges(2, [(0, 1)]))
        assert bg.side_a == 0b01 and bg.side_b == 0b10

    def test_multi_component_assignment(self):
        g = disjoint_union(from_edges(2, [(0, 1)]), star(2))
        bg = bipartition(g)
        # component K2: {0} to A; component star(2): centre {2} is smaller
        assert bg.side_a == 0b00101

    def test_matches_brute_force_two_coloring(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(2, 9)
            g = random_graph(rng, n, rng.uniform(0.1, 0.7))
            colourable = any(
                all((assign >> u & 1) != (assign >> v & 1) for u, v in g.edges())
                for assign in range(1 << n)
            )
            assert (bipartition(g) is not None) == colourable

    def test_normalization_invariant(self):
        rng = random.Random(11)
        kept = 0
        while kept < 200:
            g = random_graph(rng, rng.randrange(2, 10), 0.3)
            bg = bipartition(g)
            if bg is None:
                continue
            kept += 1
            assert bg.size_a <= bg.size_b
            assert bg.side_a | bg.side_b == g.vertex_mask

    def test_side_validation(self):
        c4, p3 = cycle_graph(4), path_graph(3)
        for g, side_a, side_b, message in [
            (c4, 0b0101, 0b1011, "sides overlap"),
            (c4, 0b0001, 0b1010, "sides do not cover the vertex set"),
            (p3, 0b101, 0b010, "side A must not be larger than side B"),
            (c4, 0b0011, 0b1100, "edge inside side A"),
            (p3, 0b001, 0b110, "edge inside side B"),
        ]:
            with pytest.raises(ValueError) as exc:
                BipartiteGraph(g, side_a, side_b)
            assert str(exc.value) == message


class TestProducts:
    def test_square_of_k2_is_c4(self):
        prod = cartesian_product(complete_bipartite(1, 1), complete_bipartite(1, 1))
        assert canonical_form(prod) == canonical_form(cycle_graph(4))

    def test_grid_2x3_edge_count(self):
        prod = cartesian_product(path_graph(2), path_graph(3))
        assert prod.n == 6
        assert prod.edge_count() == 7  # 2*2 + 3*1

    def test_edge_count_formula(self):
        rng = random.Random(23)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(1, 7), 0.5)
            h = random_graph(rng, rng.randrange(1, 7), 0.5)
            prod = cartesian_product(g, h)
            assert prod.edge_count() == (
                g.n * h.edge_count() + h.n * g.edge_count())

    def test_max_degree_is_sum(self):
        prod = cartesian_product(cycle_graph(4), cycle_graph(4))
        assert max_degree(prod) == 4
        rng = random.Random(29)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(1, 7), 0.5)
            h = random_graph(rng, rng.randrange(1, 7), 0.5)
            prod = cartesian_product(g, h)
            expected = max(g.degree(a) + h.degree(b)
                           for a in range(g.n) for b in range(h.n))
            assert max_degree(prod) == expected

    def test_index_bijection(self):
        # vertex (a, b) is a * h.n + b
        g, h = path_graph(3), path_graph(4)
        prod = cartesian_product(g, h)
        for a in range(3):
            for b in range(4):
                assert divmod(a * h.n + b, h.n) == (a, b)
                assert prod.degree(a * h.n + b) == g.degree(a) + h.degree(b)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            cartesian_product(complete_graph(65), complete_graph(64))

    def test_commutes_up_to_swap_bijection(self):
        # (a,b) -> (b,a) must be an isomorphism between G box H and H box G
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 6), 0.5)
            h = random_graph(rng, rng.randrange(1, 6), 0.5)
            gh = cartesian_product(g, h)
            hg = cartesian_product(h, g)
            for u in range(gh.n):
                a, b = divmod(u, h.n)
                for v in range(u + 1, gh.n):
                    c, d = divmod(v, h.n)
                    assert gh.has_edge(u, v) == hg.has_edge(
                        b * g.n + a, d * g.n + c)
            if gh.n <= 10:
                assert canonical_form(gh) == canonical_form(hg)


class TestAttachLeaves:
    def test_single_leaf_on_k2_gives_p3(self):
        g = attach_leaves(complete_bipartite(1, 1), 0b01)
        assert canonical_form(g) == canonical_form(path_graph(3))

    def test_two_leaves_on_c4(self):
        g = attach_leaves(cycle_graph(4), 0b0011)
        assert g.n == 6 and max_degree(g) == 3

    def test_empty_targets_is_identity(self):
        g = cycle_graph(4)
        assert attach_leaves(g, 0) is g

    def test_original_adjacency_unchanged(self):
        g = cycle_graph(5)
        grown = attach_leaves(g, 0b10101)
        for v in range(g.n):
            assert grown.neighbors[v] & g.vertex_mask == g.neighbors[v]

    def test_leaves_join_side_b_when_targets_in_a(self):
        rng = random.Random(37)
        from conftest import random_connected_bipartite
        for _ in range(100):
            g = random_connected_bipartite(rng, rng.randrange(2, 9))
            bg = bipartition(g)
            targets = bg.side_a
            grown = attach_leaves(g, targets)
            regrown = bipartition(grown)
            leaf_mask = grown.vertex_mask ^ g.vertex_mask
            assert regrown is not None
            assert leaf_mask & regrown.side_b == leaf_mask

    def test_delta_grows_by_at_most_one(self):
        rng = random.Random(41)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(2, 9), 0.4)
            targets = rng.randrange(1, 1 << g.n)
            grown = attach_leaves(g, targets)
            assert max_degree(grown) <= max_degree(g) + 1


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randrange(2, 8)
            g = random_graph(rng, n, 0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert canonical_form(g) == canonical_form(relabeled)

    def test_distinguishes_nonisomorphic(self):
        assert canonical_form(path_graph(4)) != canonical_form(star(3))
        assert canonical_form(cycle_graph(6)) != canonical_form(
            disjoint_union(cycle_graph(3), cycle_graph(3)))


def test_max_degree_values():
    assert max_degree(complete_bipartite(3, 3)) == 3
    assert max_degree(empty_graph(1)) == 0
    from domdensity.enumeration import BiadjacencyMatrix, to_graph
    worked = to_graph(BiadjacencyMatrix(6, 3, RANK6_ROWS)).graph
    assert max_degree(worked) == 3


def test_is_connected():
    assert is_connected(path_graph(5))
    assert not is_connected(disjoint_union(path_graph(2), path_graph(2)))
    assert is_connected(empty_graph(1))
    assert not is_connected(empty_graph(2))

