"""Closed-form bounds, imbalance criteria, thresholds, and the remainder list."""

import random
from fractions import Fraction

import pytest

from domdensity.criteria import (
    REFERENCE_NK,
    bipartition_upper_bound,
    build_threshold_table,
    conjectured_kreg_bound,
    degree_lower_bound,
    finite_remainder,
    imbalance_criterion,
    imbalance_vs_arbitrary,
    kreg_order_bound,
    min_threshold_order,
    threshold_condition,
)
from domdensity.domination import check_vizing, gamma_value
from domdensity.enumeration import to_graph
from domdensity.errors import PreconditionError
from domdensity.graphs import bipartition, max_degree
from conftest import random_connected_bipartite
from support import complete_bipartite, cycle_graph, disjoint_union, empty_graph, star


class TestElementaryBounds:
    def test_bipartition_upper_bound_values(self, rank6_matrix):
        assert bipartition_upper_bound(bipartition(star(9))) == 1
        assert bipartition_upper_bound(bipartition(complete_bipartite(3, 3))) == 3
        assert bipartition_upper_bound(bipartition(cycle_graph(6))) == 3
        assert bipartition_upper_bound(to_graph(rank6_matrix)) == 6

    def test_bipartition_bound_rejects_degenerate(self):
        with pytest.raises(PreconditionError):
            bipartition_upper_bound(bipartition(empty_graph(1)))
        with pytest.raises(PreconditionError):
            bipartition_upper_bound(bipartition(disjoint_union(
                complete_bipartite(1, 1), empty_graph(1))))

    def test_degree_lower_bound_values(self, rank6_matrix):
        assert degree_lower_bound(complete_bipartite(3, 3)) == 2
        assert degree_lower_bound(cycle_graph(6)) == 2
        g = to_graph(rank6_matrix).graph
        assert degree_lower_bound(g) == 3  # ceil(12 / 4), below gamma = 4
        assert degree_lower_bound(empty_graph(5)) == 5

    def test_sandwich_on_random_connected_bipartite(self):
        rng = random.Random(71)
        for _ in range(300):
            g = random_connected_bipartite(rng, rng.randrange(2, 11))
            bg = bipartition(g)
            gamma = gamma_value(g)
            assert degree_lower_bound(g) <= gamma <= bipartition_upper_bound(bg)


class TestImbalanceCriterion:
    def test_star_pair_fires(self):
        bg = bipartition(star(9))
        verdict = imbalance_criterion(bg, bg)
        assert verdict.satisfied
        assert verdict.lhs == 100 and verdict.rhs == 19
        # and the certified pair really does satisfy the product inequality
        assert check_vizing(star(9), star(9)).holds

    def test_c4_pair_silent(self):
        bg = bipartition(cycle_graph(4))
        verdict = imbalance_criterion(bg, bg)
        assert not verdict.satisfied
        assert verdict.lhs == 4 and verdict.rhs == 5

    def test_balanced_k33_silent(self):
        bg = bipartition(complete_bipartite(3, 3))
        verdict = imbalance_criterion(bg, bg)
        assert not verdict.satisfied
        assert verdict.lhs == 4 and verdict.rhs == 7

    def test_disconnected_marked_out_of_hypothesis(self):
        g = disjoint_union(complete_bipartite(1, 2), complete_bipartite(1, 2))
        verdict = imbalance_criterion(bipartition(g), bipartition(g))
        assert "out-of-hypothesis" in verdict.note


class TestImbalanceVsArbitrary:
    def test_star_against_c6_parameters(self):
        verdict = imbalance_vs_arbitrary(10, 1, 9, 2, Fraction(1, 3))
        assert verdict.satisfied
        assert verdict.lhs == 10 and verdict.rhs == 4
        # rho 1/3 and max degree 2 describe C6 exactly; confirm the pair
        assert check_vizing(star(9), cycle_graph(6)).holds

    def test_balanced_side_with_unit_density_silent(self):
        verdict = imbalance_vs_arbitrary(4, 2, 2, 1, Fraction(1))
        assert not verdict.satisfied
        assert verdict.lhs == 2 and verdict.rhs >= 3

    def test_matches_two_sided_criterion_with_side_ratio(self):
        # feeding |A_H| / |V(H)| as the density reproduces the two-sided test
        rng = random.Random(73)
        for _ in range(100):
            g = random_connected_bipartite(rng, rng.randrange(2, 9))
            h = random_connected_bipartite(rng, rng.randrange(2, 9))
            bg, bh = bipartition(g), bipartition(h)
            one_sided = imbalance_vs_arbitrary(
                g.n, bg.size_a, max_degree(g), max_degree(h), Fraction(bh.size_a, h.n))
            assert one_sided.satisfied == imbalance_criterion(bg, bh).satisfied


class TestKregularArithmetic:
    def test_conjectured_bound_values(self):
        assert conjectured_kreg_bound(6, 3) == 4
        assert conjectured_kreg_bound(6, 4) == 4
        assert conjectured_kreg_bound(5, 5) == 2

    def test_order_bound_values(self):
        assert kreg_order_bound(4, 3) == 2
        assert kreg_order_bound(5, 3) == 4
        assert kreg_order_bound(6, 3) == 6

    def test_order_bound_precondition(self):
        with pytest.raises(PreconditionError):
            kreg_order_bound(4, 4)
        with pytest.raises(PreconditionError):
            kreg_order_bound(3, 4)


class TestThresholds:
    def test_condition_boundary_at_k4_n12(self):
        verdict = threshold_condition(4, 12, 12)
        assert verdict.satisfied and verdict.boundary
        assert verdict.lhs == Fraction(1, 9) == verdict.rhs

    def test_condition_k9_at_n_equals_k(self):
        assert threshold_condition(9, 9, 9).satisfied

    def test_condition_k3_below_threshold(self):
        assert not threshold_condition(3, 22, 22).satisfied
        assert threshold_condition(3, 23, 23).satisfied

    def test_min_threshold_orders(self):
        assert min_threshold_order(3).n_min == 23
        entry4 = min_threshold_order(4)
        assert entry4.n_min == 12 and entry4.boundary
        assert REFERENCE_NK[4] == 13  # published value surfaced alongside
        assert [min_threshold_order(k).n_min for k in (5, 6, 7, 8)] == [10, 10, 9, 9]

    def test_neighbouring_orders_bracket_the_threshold(self):
        for k in range(3, 51):
            n = min_threshold_order(k).n_min
            assert threshold_condition(k, n, n).satisfied
            if n > k:
                assert not threshold_condition(k, n - 1, n - 1).satisfied

    def test_integer_rule_matches_the_rational_condition(self):
        # min_threshold_order decides k^2 n^2 >= (2k+1)(n+k)^2 in integers.
        # The rational condition only loosens as n grows, so it holds from
        # N(k) on, and it can meet equality at N(k) alone.
        for k in range(3, 51):
            entry = min_threshold_order(k)
            for n in range(k, 301):
                verdict = threshold_condition(k, n, n)
                assert verdict.satisfied == (n >= entry.n_min)
                assert verdict.boundary == (n == entry.n_min and entry.boundary)

    def test_table_and_auto_regime(self):
        table = build_threshold_table(12)
        assert [entry.k for entry in table] == list(range(3, 13))
        assert table[0].n_min == 23
        assert [entry.k for entry in table if entry.n_min == entry.k] == [9, 10, 11, 12]

    def test_rejects_small_k(self):
        with pytest.raises(PreconditionError):
            min_threshold_order(2)


def test_finite_remainder_contents():
    remainder = finite_remainder()
    assert (4, 6) in remainder and (4, 12) in remainder
    assert (4, 13) not in remainder
    assert (6, 9) in remainder and (6, 10) not in remainder
    assert len(remainder) == 12


def test_order_bound_not_comparable_to_conjectured_bound():
    # 2r is looser for large r, tighter near n = k; neither dominates
    assert kreg_order_bound(4, 3) < conjectured_kreg_bound(4, 3)
    assert kreg_order_bound(7, 2) > conjectured_kreg_bound(7, 2)
