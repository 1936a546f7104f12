"""Exact density arithmetic and its equivalence with the integer form."""

import random
from fractions import Fraction

import pytest

from domdensity import (
    Density,
    bipartition,
    cartesian_product,
    check_vizing,
    complete_bipartite,
    constructive_inequality_check,
    cycle_graph,
    density_vizing_check,
    disjoint_union,
    empty_graph,
    gamma_value,
    iterate_leaves,
    max_degree,
    min_threshold_order,
    rho,
    to_graph,
)
from domdensity.catalog import connected_graphs
from conftest import random_graph


def test_density_value_reduces_but_keeps_order():
    d = Density(2, 6)
    assert d.value == Fraction(1, 3)
    assert d.order == 6 and d.gamma == 2


def test_density_validation():
    for gamma, order, message in [(1, 0, "density needs a positive order"),
                                  (0, 5, "gamma must lie in 1..order"),
                                  (6, 5, "gamma must lie in 1..order")]:
        with pytest.raises(ValueError) as exc:
            Density(gamma, order)
        assert str(exc.value) == message


def test_report_records_are_immutable():
    c4 = cycle_graph(4)
    constructive = constructive_inequality_check(bipartition(c4), c4)
    trace = iterate_leaves(bipartition(c4), 2, constructive.hypothesis, max_rounds=4)
    records = [
        (Density(1, 2), "gamma"),
        (check_vizing(c4, c4), "holds"),
        (min_threshold_order(3), "n_min"),
        (constructive, "holds"),
        (constructive.hypothesis, "gamma"),
        (constructive.hypothesis.chosen, "side"),
        (trace, "satisfied"),
        (trace.rounds[0], "gamma"),
        (trace.rounds[0].verdict, "satisfied"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_rho_small_cases(rank6_matrix):
    assert rho(complete_bipartite(3, 3)).value == Fraction(1, 3)
    assert rho(empty_graph(1)).value == 1
    # the 12-vertex worked example: gamma 4 over 12 vertices
    d = rho(to_graph(rank6_matrix).graph)
    assert (d.gamma, d.order) == (4, 12)
    assert d.value == Fraction(1, 3)


def test_density_check_trivial_pairs():
    k2 = complete_bipartite(1, 1)
    assert density_vizing_check(k2, k2, check_vizing(k2, k2))
    c4 = cycle_graph(4)
    report = check_vizing(c4, c4)
    assert density_vizing_check(c4, c4, report)
    # 3/16 < (2/4)(2/4): the form reads the report, not the graphs
    assert not density_vizing_check(c4, c4, report._replace(gamma_product=3))


def test_density_form_equals_integer_form():
    rng = random.Random(61)
    pool = [g for n in range(1, 5) for g in connected_graphs(n)]
    for _ in range(60):
        g, h = rng.choice(pool), rng.choice(pool)
        report = check_vizing(g, h)
        assert density_vizing_check(g, h, report) == report.holds


def test_rho_invariant_under_duplication():
    for g in (cycle_graph(4), cycle_graph(5), complete_bipartite(1, 3)):
        assert rho(disjoint_union(g, g)).value == rho(g).value


def test_product_density_above_degree_bound():
    rng = random.Random(67)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 6), 0.5)
        h = random_graph(rng, rng.randrange(1, 6), 0.5)
        product = cartesian_product(g, h)
        rho_p = Fraction(gamma_value(product), product.n)
        assert rho_p >= Fraction(1, max_degree(g) + max_degree(h) + 1)
