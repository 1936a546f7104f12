"""Acceptance suite: the desk-scale reproduction criteria, one test each.

Every test prints a single PASS line with its runtime once its assertions
hold; stated runtime budgets are asserted too.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines as they complete.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from domdensity.criteria import (
    REFERENCE_NK,
    bipartition_upper_bound,
    conjectured_kreg_bound,
    degree_lower_bound,
    imbalance_criterion,
    min_threshold_order,
    threshold_condition,
)
from domdensity.domination import (
    GammaCache,
    check_vizing,
    gamma_exact,
    gamma_value,
    is_dominating,
)
from domdensity.enumeration import (
    canonical_key,
    class_record,
    enumerate_kreg,
    is_unique_form,
    record_findings,
    to_graph,
)
from domdensity.graphs import bipartition, cartesian_product, max_degree
from domdensity.rankcheck import disjoint_row_cover, obstruction_report, rank_exact
from domdensity.transform import (
    constructive_inequality_check,
    evaluate_hypothesis,
    iterate_leaves,
)
from conftest import random_connected_bipartite
from support import connected_bipartite_graphs, connected_graphs, gamma_brute
from test_rankcheck import naive_rank


@pytest.fixture(scope="module")
def cache():
    return GammaCache()


def _finish(number: int, name: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} overran {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_threshold_table():
    started = time.perf_counter()
    computed = {k: min_threshold_order(k) for k in range(3, 9)}
    assert {k: computed[k].n_min for k in (3, 5, 6, 7, 8)} == \
           {3: 23, 5: 10, 6: 10, 7: 9, 8: 9}
    assert computed[4].n_min == 12 and computed[4].boundary
    assert REFERENCE_NK[4] == 13  # published value carried alongside
    _finish(1, "balanced-order thresholds", started, 1.0)


def test_criterion_02_worked_3regular_example(rank6_matrix):
    started = time.perf_counter()
    g = to_graph(rank6_matrix).graph
    gamma, witness = gamma_exact(g)
    assert gamma == 4
    assert gamma_brute(g) == 4
    assert is_dominating(g, witness)
    assert rank_exact([[row >> j & 1 for j in range(6)]
                       for row in rank6_matrix.rows]) == 6
    assert disjoint_row_cover(rank6_matrix, 2) is None
    assert conjectured_kreg_bound(6, 3) == 4 == gamma
    named = (1 << 1) | (1 << 4) | (1 << 6) | (1 << 9)  # {a2, a5, b1, b4}
    assert is_dominating(g, named)
    _finish(2, "full-rank 3-regular worked example", started, 1.0)


def test_criterion_03_block_form_example(block6_matrix, cache):
    started = time.perf_counter()
    g = to_graph(block6_matrix).graph
    assert gamma_value(g, cache) == 4 == gamma_brute(g)
    assert is_unique_form(block6_matrix)
    records = [class_record(m) for m in enumerate_kreg(6, 4)]
    gamma4 = [r for r in records if r["gamma"] == 4]
    assert len(gamma4) == 1
    assert gamma4[0]["key"] == canonical_key(block6_matrix)
    assert gamma4[0]["case"] == "gamma4-unique-form"
    _finish(3, "triple-block (6,4) example and scan", started, 30.0)


def test_criterion_04_small_balanced_cases():
    started = time.perf_counter()
    from support import unique_form_matrix
    cells = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5),
             (3, 5), (4, 6), (5, 7), (6, 8)]  # (k, n)
    for k, n in cells:
        gamma4 = []
        seen_any = False
        for matrix in enumerate_kreg(n, k):
            seen_any = True
            record = class_record(matrix)
            findings = record_findings(record)
            assert not findings, (k, n, findings)
            if n <= k + 1:
                assert record["gamma"] == 2, (k, n, record["key"])
                continue
            assert n == k + 2
            assert record["gamma"] in (3, 4)
            assert (record["gamma"] == 4) == is_unique_form(matrix)
            if record["gamma"] == 4:
                gamma4.append(record["key"])
        assert seen_any
        if n == k + 2:
            if n % 2 == 0:
                # exactly one gamma-4 class, the block form
                assert gamma4 == [canonical_key(unique_form_matrix(n))]
            else:
                assert gamma4 == []
    _finish(4, "n in {k, k+1, k+2} exhaustive verification", started, 300.0)


def test_criterion_05_conjecture_scan_to_7():
    started = time.perf_counter()
    confirmed = []
    for n in range(1, 8):
        for k in range(1, n + 1):
            findings = [f for m in enumerate_kreg(n, k)
                        for f in record_findings(class_record(m))]
            for finding in findings:
                if finding.kind != "conjecture-bound":
                    continue
                # guard against solver bugs: only an oracle-confirmed
                # violation fails the criterion
                matrix = next(m for m in enumerate_kreg(n, k)
                              if canonical_key(m) == finding.key)
                oracle = gamma_brute(to_graph(matrix).graph)
                if oracle > conjectured_kreg_bound(n, k):
                    confirmed.append(finding)
    assert confirmed == []
    _finish(5, "conjectured bound scan, all classes n <= 7", started, 600.0)


def test_criterion_06_sandwich_property():
    started = time.perf_counter()
    rng = random.Random(20260810)
    for _ in range(1000):
        g = random_connected_bipartite(rng, rng.randrange(2, 13))
        bg = bipartition(g)
        gamma = gamma_value(g)
        assert degree_lower_bound(g) <= gamma <= bipartition_upper_bound(bg)
    _finish(6, "degree/bipartition sandwich on 1000 random graphs", started, 60.0)


def test_criterion_07_imbalance_soundness(cache):
    started = time.perf_counter()
    pool = [g for n in range(2, 7) for g in connected_bipartite_graphs(n)]
    fired = 0
    for g, h in combinations_with_replacement(pool, 2):
        verdict = imbalance_criterion(bipartition(g), bipartition(h))
        if not verdict.satisfied:
            continue
        fired += 1
        assert check_vizing(g, h, cache).holds, "criterion fired on a violating pair"
    assert fired > 0
    _finish(7, f"imbalance criterion sound on {fired} fired pairs", started, 600.0)


def test_criterion_08_vizing_desk_scale(cache):
    started = time.perf_counter()
    pool = [g for n in range(1, 6) for g in connected_graphs(n)]
    for g, h in combinations_with_replacement(pool, 2):
        gamma_p = gamma_value(cartesian_product(g, h), cache)
        assert gamma_p >= gamma_value(g, cache) * gamma_value(h, cache)
    _finish(8, "product inequality, all connected pairs n <= 5", started, 300.0)


def test_criterion_09_auto_regime():
    started = time.perf_counter()
    for k in range(9, 51):
        assert threshold_condition(k, k, k).satisfied
    assert not threshold_condition(8, 8, 8).satisfied
    _finish(9, "automatic regime for k >= 9", started, 1.0)


def test_criterion_10_obstruction_and_rank_oracle():
    """Full rank must preclude a disjoint row cover wherever the argument
    applies.

    The derivation needs k >= 2 (it divides by k - 1): every 1-regular
    class is a permutation matrix, trivially full-rank with the all-rows
    cover.  So the assertion here is the exact truth: zero violations among
    classes with k >= 2, and the 1-regular family as the complete, pinned
    exception set.  Anything outside that set is a genuine finding and
    fails loudly.
    """
    started = time.perf_counter()
    violations = []
    for n in range(1, 7):
        for k in range(1, n + 1):
            for m in enumerate_kreg(n, k):
                report = obstruction_report(m)
                if not report.implication_holds:
                    violations.append((n, k))
                    assert report.cover_witness == tuple(range(n))
    assert violations == [(n, 1) for n in range(1, 7)], \
        "obstruction broke outside the degenerate 1-regular family"
    rng = random.Random(5050)
    for _ in range(500):
        rows = [[rng.randrange(2) for _ in range(rng.randrange(1, 11))]]
        width = len(rows[0])
        for _ in range(rng.randrange(0, 10)):
            rows.append([rng.randrange(2) for _ in range(width)])
        assert rank_exact(rows) == naive_rank(rows)
    _finish(10, "rank obstruction and elimination oracle", started, 120.0)


def test_criterion_11_transform_engine(cache):
    started = time.perf_counter()
    pool_g = [g for n in range(2, 6) for g in connected_bipartite_graphs(n)]
    pool_h = [h for n in range(1, 5) for h in connected_graphs(n)]
    verified = 0
    for g in pool_g:
        for h in pool_h:
            bg = bipartition(g)
            gamma_h = gamma_value(h, cache)
            hyp = evaluate_hypothesis(bg, Fraction(gamma_h, h.n), cache)
            if not hyp.usable:
                continue
            report = constructive_inequality_check(bg, h, gamma_h, hyp, cache)
            assert report.applicable and report.holds
            trace = iterate_leaves(bg, max_degree(h), hyp, cache=cache)
            assert trace.satisfied
            last = max(trace.round_bound - 1, 0)
            if max(g.degree(v) for v in trace.targets) == max_degree(g):
                assert trace.final_round == last
            else:
                assert trace.final_round <= last
            base = trace.rounds[0]["gamma"]
            assert all(r["gamma"] == base for r in trace.rounds)
            verified += 1
    assert verified >= 20
    _finish(11, f"constructive inequality on {verified} pairs", started, 300.0)
