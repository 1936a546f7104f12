"""Exact density arithmetic and its equivalence with the integer form."""

import random
from fractions import Fraction

import pytest

from domdensity.criteria import min_threshold_order
from domdensity.density import density_vizing_check
from domdensity.domination import check_vizing, gamma_value
from domdensity.enumeration import to_graph
from domdensity.graphs import bipartition, cartesian_product, max_degree
from domdensity.transform import (
    constructive_inequality_check,
    evaluate_hypothesis,
    iterate_leaves,
)
from conftest import random_graph
from support import (
    complete_bipartite,
    connected_graphs,
    cycle_graph,
    disjoint_union,
    empty_graph,
)


def test_report_records_are_immutable():
    c4 = cycle_graph(4)
    bg = bipartition(c4)
    hyp = evaluate_hypothesis(bg, Fraction(1, 2))
    constructive = constructive_inequality_check(bg, c4, 2, hyp)
    trace = iterate_leaves(bg, 2, hyp)
    records = [
        (check_vizing(c4, c4), "holds"),
        (min_threshold_order(3), "n_min"),
        (constructive, "holds"),
        (hyp, "gamma"),
        (trace, "satisfied"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            record.extra = 1


def density(g):
    return Fraction(gamma_value(g), g.n)


def test_rho_small_cases(rank6_matrix):
    assert density(complete_bipartite(3, 3)) == Fraction(1, 3)
    assert density(empty_graph(1)) == 1
    # the 12-vertex worked example: gamma 4 over 12 vertices
    g = to_graph(rank6_matrix).graph
    assert (gamma_value(g), g.n) == (4, 12)
    assert density(g) == Fraction(1, 3)


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
        assert density(disjoint_union(g, g)) == density(g)


def test_product_density_above_degree_bound():
    rng = random.Random(67)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 6), 0.5)
        h = random_graph(rng, rng.randrange(1, 6), 0.5)
        product = cartesian_product(g, h)
        rho_p = Fraction(gamma_value(product), product.n)
        assert rho_p >= Fraction(1, max_degree(g) + max_degree(h) + 1)
