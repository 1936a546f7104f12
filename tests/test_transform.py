"""Transform engine: escalation subsets, the constructive
inequality, and the iterated leaf-attachment traces."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from domdensity.domination import (
    each_minimum_set,
    gamma_exact,
    gamma_value,
    is_dominating,
)
from domdensity.graphs import (
    attach_leaves,
    bipartition,
    cartesian_product,
    max_degree,
)
from domdensity.transform import (
    HypothesisReport,
    constructive_inequality_check,
    evaluate_hypothesis,
    iterate_leaves,
)
from support import (
    complete_bipartite,
    connected_bipartite_graphs,
    connected_graphs,
    cycle_graph,
    gamma_brute,
    hypothesis_oracle,
    m_star_oracle,
    path_graph,
    star,
)


def partner_terms(bg, h):
    """gamma(H) and the hypothesis of ``bg`` against rho(H), as
    ``constructive_inequality_check`` takes them."""
    gamma_h = gamma_value(h)
    return gamma_h, evaluate_hypothesis(bg, Fraction(gamma_h, h.n))


class TestHypothesis:
    # P8's sides have 4 vertices and every minimum set at most 2 on either:
    # at 1/2 that meets the gate 2 but not m* = 3, which is strictly above.
    def test_exact_boundary_needs_strictly_more(self):
        bg = bipartition(path_graph(8))
        hyp = evaluate_hypothesis(bg, Fraction(1, 2))
        assert hyp.gate_met and hyp.equality_flagged and not hyp.usable
        hyp = evaluate_hypothesis(bg, Fraction(2, 5))
        assert hyp.m_star == 2 and not hyp.equality_flagged

    # At rho = 0 every set meets the gate 0 and m* is 1, not 0: the centre
    # of K_{1,3} is a split, and the empty leaf side is only flagged.
    def test_zero_density_needs_one_vertex(self):
        hyp = evaluate_hypothesis(bipartition(star(3)), Fraction(0))
        assert hyp.gate_met and hyp.equality_flagged
        assert (hyp.side, hyp.side_size, hyp.d_in_side, hyp.m_star) == ("A", 1, 1, 1)

    # C6 at 2/5: each minimum set has 1 of 3 vertices on a side, short of
    # both the gate ceil(6/5) = 2 and m* = 2.
    def test_set_too_small_for_m_star(self):
        hyp = evaluate_hypothesis(bipartition(cycle_graph(6)), Fraction(2, 5))
        assert not hyp.gate_met and not hyp.equality_flagged
        assert not hyp.usable

    def test_c4_at_half_density(self):
        bg = bipartition(cycle_graph(4))
        hyp = evaluate_hypothesis(bg, Fraction(1, 2))
        assert hyp.gate_met and hyp.usable
        assert hyp.m_star == 2 and hyp.side == "A"
        # the {0,1}-style splits meet the gate exactly but admit no strict subset
        assert hyp.equality_flagged

    def test_c6_vs_k2_gate_fails(self):
        bg = bipartition(cycle_graph(6))
        hyp = evaluate_hypothesis(bg, Fraction(1, 2))
        assert not hyp.gate_met and not hyp.usable
        assert hyp.side is hyp.side_size is hyp.d_in_side is hyp.m_star is None

    def test_c6_at_own_density_equality_gap(self):
        # every minimum set splits 1 + 1, so both sides sit exactly at 1/3
        bg = bipartition(cycle_graph(6))
        hyp = evaluate_hypothesis(bg, Fraction(1, 3))
        assert hyp.gate_met and not hyp.usable and hyp.equality_flagged

    # Above 14 vertices only the lex-min witness used to be tried: P17 at
    # 2/5 was reported as "hypothesis not met", and P19 at 1/3 took side B.
    def test_p17_sweeps_past_the_lexmin_witness(self):
        bg = bipartition(path_graph(17))
        hyp = evaluate_hypothesis(bg, Fraction(2, 5))
        assert hyp.usable and hyp.side == "A" and hyp.m_star == 4
        trace = iterate_leaves(bg, 2, hyp)
        assert trace.satisfied and trace.final_round == 0

    # The documented rule, from gamma_brute and every subset of that size:
    # the smallest m_star, then side A, then the smallest set mask.
    @pytest.mark.parametrize("g, rho_h", [
        (path_graph(17), Fraction(2, 5)), (path_graph(19), Fraction(1, 2)),
        (cycle_graph(16), Fraction(2, 5)), (path_graph(19), Fraction(1, 3)),
    ], ids=["P17", "P19", "C16", "P19-side-A"])
    def test_chosen_split_is_the_rule_over_every_minimum_set(self, g, rho_h):
        bg = bipartition(g)
        gamma = gamma_brute(g)
        splits = []
        for combo in combinations(range(g.n), gamma):
            mask = sum(1 << v for v in combo)
            if not is_dominating(g, mask):
                continue
            for side, side_mask in (("A", bg.side_a), ("B", bg.side_b)):
                ms = m_star_oracle(side_mask.bit_count(), rho_h)
                if ms <= (mask & side_mask).bit_count():
                    splits.append((ms, side, mask, mask & side_mask))
        ms, side, _, d_in = min(splits)
        hyp = evaluate_hypothesis(bg, rho_h)
        assert (hyp.gamma, hyp.m_star, hyp.side, hyp.d_in_side) == (gamma, ms, side, d_in)

    # The per-side gate and m* against the per-set rule of the oracle, on
    # every density with a small denominator, zero and the boundaries where
    # |X| rho is an integer included.  The graphs are built when the test
    # runs, not when it is collected.
    @pytest.mark.parametrize("graphs, max_q", [
        (lambda: [g for n in range(2, 8) for g in connected_bipartite_graphs(n)], 7),
        (lambda: [path_graph(n) for n in range(2, 17)]
         + [cycle_graph(n) for n in range(4, 17, 2)], 5),
    ], ids=["catalogue-2-7", "paths-cycles"])
    def test_report_matches_the_oracle(self, graphs, max_q):
        densities = sorted({Fraction(p, q) for q in range(1, max_q + 1)
                            for p in range(q + 1)})
        for g in graphs():
            bg = bipartition(g)
            for rho_h in densities:
                assert evaluate_hypothesis(bg, rho_h) == hypothesis_oracle(bg, rho_h)

    # P30 has one minimum dominating set, {1, 4, ..., 28}, and C30 three,
    # {r, r + 3, ..., r + 27} for r < 3; each has 5 vertices on each side of
    # 15.  At 2/5 the gate is 6, so neither graph meets it.  At 1/5 the gate
    # is 3 and m* is 4 on both sides: side A (the evens), with P30's set or
    # C30's smallest mask, r = 0.
    @pytest.mark.parametrize("g, d_in_side", [
        (path_graph(30), [4, 10, 16, 22, 28]),
        (cycle_graph(30), [0, 6, 12, 18, 24]),
    ], ids=["P30", "C30"])
    def test_thirty_vertices_by_hand(self, g, d_in_side):
        bg = bipartition(g)
        assert bg.side_a == sum(1 << v for v in range(0, 30, 2))
        rho_h = Fraction(2, 5)
        assert evaluate_hypothesis(bg, rho_h) == HypothesisReport(
            rho_h, 10, False, False, None, None, None, None)
        rho_h = Fraction(1, 5)
        assert evaluate_hypothesis(bg, rho_h) == HypothesisReport(
            rho_h, 10, True, False, "A", 15, sum(1 << v for v in d_in_side), 4)

    def test_minimum_set_sweep_matches_brute(self):
        g = cycle_graph(6)
        covers = []
        each_minimum_set(g, 2, covers.append)
        assert sorted(covers) == [0b001001, 0b010010, 0b100100]


class TestConstructiveInequality:
    def test_star_vs_k2_trivial_slack(self):
        bg = bipartition(star(3))
        k2 = complete_bipartite(1, 1)
        report = constructive_inequality_check(bg, k2, *partner_terms(bg, k2))
        assert report.applicable and report.holds
        assert report.gamma_g == 1 and report.gamma_h == 1
        assert report.m_star == 1

    def test_c4_square_exact_terms(self):
        bg = bipartition(cycle_graph(4))
        h = cycle_graph(4)
        report = constructive_inequality_check(bg, h, *partner_terms(bg, h))
        product = cartesian_product(bg.graph, h)
        assert report.gamma_product == gamma_brute(product) == 4
        assert report.m_star == 2
        assert report.lhs == 4 + 2 * 4 and report.rhs == 4
        assert report.holds

    def test_c6_vs_k2_out_of_hypothesis(self):
        bg = bipartition(cycle_graph(6))
        k2 = complete_bipartite(1, 1)
        report = constructive_inequality_check(bg, k2, *partner_terms(bg, k2))
        assert not report.applicable
        assert report.gamma_product is None and report.holds is None
        assert report.gamma_g == 2 and report.gamma_h == 1

    def test_p4_vs_k2_full_terms(self):
        bg = bipartition(path_graph(4))
        h = complete_bipartite(1, 1)
        report = constructive_inequality_check(bg, h, *partner_terms(bg, h))
        assert report.applicable
        product = cartesian_product(bg.graph, h)
        assert report.gamma_product == gamma_brute(product)
        assert report.lhs == report.gamma_product + report.m_star * 2
        assert report.rhs == 2
        assert report.holds


class TestIterateLeaves:
    def test_star_already_satisfied(self):
        bg = bipartition(star(3))
        trace = iterate_leaves(bg, 2, evaluate_hypothesis(bg, Fraction(1, 3)))
        assert trace.satisfied and trace.final_round == 0
        assert len(trace.rounds) == 1

    def test_c4_multi_round_slopes(self):
        bg = bipartition(cycle_graph(4))
        trace = iterate_leaves(bg, 2, evaluate_hypothesis(bg, Fraction(1, 2)))
        assert trace.satisfied and trace.final_round == 1
        assert trace.m_star == 2 and trace.round_bound == 2
        lhs = [Fraction(r["criterion_lhs"]) for r in trace.rounds]
        rhs = [Fraction(r["criterion_rhs"]) for r in trace.rounds]
        # lhs climbs by m*/|X| = 1 per round, rhs by at most rho = 1/2
        assert lhs[1] - lhs[0] == Fraction(2, 2)
        assert rhs[1] - rhs[0] <= Fraction(1, 2)
        assert all(r["gamma"] == trace.rounds[0]["gamma"] for r in trace.rounds)

    def test_balanced_k33_out_of_hypothesis(self):
        bg = bipartition(complete_bipartite(3, 3))
        trace = iterate_leaves(bg, 2, evaluate_hypothesis(bg, Fraction(1)))
        assert not trace.gate_met
        assert not trace.satisfied and trace.rounds == ()

    def test_side_b_growth_strictly_widens_gap(self):
        bg = bipartition(cycle_graph(4))
        trace = iterate_leaves(bg, 2, evaluate_hypothesis(bg, Fraction(1, 2)))
        diffs = [r["size_b"] - r["size_a"] for r in trace.rounds]
        assert diffs == sorted(diffs) and len(set(diffs)) == len(diffs)

    def test_trace_serializes(self):
        bg = bipartition(cycle_graph(4))
        trace = iterate_leaves(bg, 2, evaluate_hypothesis(bg, Fraction(1, 2)))
        payload = trace._asdict()
        assert payload["satisfied"] is True
        assert payload["rounds"][0]["criterion_name"] == "imbalance-arbitrary"

    # C4 at rho = 49/100 gains m*/|X| - rho = 1/100 a round on a gap of 96/50;
    # a target has maximum degree, so the slope bound is met exactly.
    def test_runs_to_the_slope_bound_past_64_rounds(self):
        bg = bipartition(cycle_graph(4))
        trace = iterate_leaves(bg, 5, evaluate_hypothesis(bg, Fraction(49, 100)))
        assert trace.satisfied and trace.round_bound == 193
        assert trace.final_round == 192 and len(trace.rounds) == 193
        assert not any(r["criterion_satisfied"] for r in trace.rounds[:-1])


class TestProofAccounting:
    def test_per_round_product_bound(self):
        # gamma(G' box H) <= gamma(G box H) + m* |V(H)| after one escalation
        h = complete_bipartite(1, 1)
        for g in (path_graph(4), cycle_graph(4), star(3)):
            bg = bipartition(g)
            gamma_h, hyp = partner_terms(bg, h)
            report = constructive_inequality_check(bg, h, gamma_h, hyp)
            if not report.applicable:
                continue
            targets = 0
            pool = hyp.d_in_side
            for _ in range(hyp.m_star):
                low = pool & -pool
                targets |= low
                pool ^= low
            grown = attach_leaves(g, targets)
            lhs = gamma_value(cartesian_product(grown, h))
            assert lhs <= report.gamma_product + report.m_star * h.n

    def test_end_to_end_grown_pair_satisfies_inequality(self):
        bg = bipartition(cycle_graph(4))
        h = cycle_graph(4)
        hyp = partner_terms(bg, h)[1]
        trace = iterate_leaves(bg, 2, hyp)
        assert trace.satisfied
        g = bg.graph
        for _ in range(trace.final_round):
            g = attach_leaves(g, sum(1 << v for v in trace.targets))
        gamma_grown = gamma_value(g)
        assert gamma_grown == hyp.gamma
        product = cartesian_product(g, h)
        assert gamma_value(product) >= gamma_grown * gamma_value(h)

    def test_termination_within_slope_bound_on_samples(self):
        rng = random.Random(101)
        pool_g = [g for n in range(2, 6) for g in connected_bipartite_graphs(n)]
        pool_h = [h for n in range(1, 5) for h in connected_graphs(n)]
        checked = 0
        for g in pool_g:
            for h in pool_h:
                bg = bipartition(g)
                hyp = partner_terms(bg, h)[1]
                if not hyp.usable:
                    continue
                trace = iterate_leaves(bg, max_degree(h), hyp)
                assert trace.satisfied
                # The slope bound is exact when a target has maximum degree:
                # the right side then grows by exactly rho(H) a round.
                last = max(trace.round_bound - 1, 0)
                if max(g.degree(v) for v in trace.targets) == max_degree(g):
                    assert trace.final_round == last
                else:
                    assert trace.final_round <= last
                checked += 1
        assert checked >= 20
