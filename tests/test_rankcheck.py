"""Exact rank and the disjoint-cover obstruction."""

import random
from fractions import Fraction

import pytest

from domdensity.enumeration import BiadjacencyMatrix, enumerate_kreg
from domdensity.rankcheck import (
    biadjacency_rank,
    disjoint_row_cover,
    obstruction_report,
    rank_exact,
)


# ---------------------------------------------------------------------------
# oracles: naive rational Gaussian elimination and subset-determinant rank
# ---------------------------------------------------------------------------

def naive_rank(rows) -> int:
    mat = [list(map(Fraction, row)) for row in rows]
    if not mat:
        return 0
    cols = len(mat[0])
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def det_recursive(rows) -> Fraction:
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [[row[t] for t in range(n) if t != j] for row in rows[1:]]
            total += sign * rows[0][j] * det_recursive(minor)
        sign = -sign
    return total


def subset_det_rank(rows) -> int:
    """Largest r with a nonsingular r x r submatrix (cofactor expansion)."""
    from itertools import combinations
    n = len(rows)
    for size in range(n, 0, -1):
        for ri in combinations(range(n), size):
            for ci in combinations(range(n), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_recursive(sub) != 0:
                    return size
    return 0


def _bits_to_lists(masks, n):
    return [[mask >> j & 1 for j in range(n)] for mask in masks]


class TestRankExact:
    def test_worked_example_full_rank(self, rank6_matrix):
        assert biadjacency_rank(rank6_matrix) == 6

    def test_all_ones_rank_one(self):
        assert rank_exact([[1] * 5] * 5) == 1

    def test_block_matrix_rank_by_subset_determinants(self, block6_matrix):
        rows = _bits_to_lists(block6_matrix.rows, 6)
        assert biadjacency_rank(block6_matrix) == subset_det_rank(rows) == 3

    def test_agrees_with_naive_elimination_on_random(self):
        rng = random.Random(89)
        for _ in range(200):
            r = rng.randrange(1, 11)
            c = rng.randrange(1, 11)
            rows = [[rng.randrange(2) for _ in range(c)] for _ in range(r)]
            assert rank_exact(rows) == naive_rank(rows)

    def test_rejects_empty_and_ragged_rows(self):
        with pytest.raises(ValueError):
            rank_exact([])
        with pytest.raises(ValueError):
            rank_exact([[1, 0], [1]])


class TestDisjointRowCover:
    def test_worked_example_has_no_two_row_cover(self, rank6_matrix):
        assert disjoint_row_cover(rank6_matrix, 2) is None

    def test_all_ones_single_row(self):
        m = BiadjacencyMatrix(3, 3, (0b111,) * 3)
        assert disjoint_row_cover(m, 1) == (0,)

    def test_permutation_matrix_full_cover(self):
        m = BiadjacencyMatrix(4, 1, (1, 2, 4, 8))
        assert disjoint_row_cover(m, 4) == (0, 1, 2, 3)

    def test_lexicographically_first_witness(self):
        # two disjoint covers exist: {0,1} and {2,3}; the first wins
        m = BiadjacencyMatrix(4, 2, (0b0011, 0b1100, 0b0101, 0b1010))
        assert disjoint_row_cover(m, 2) == (0, 1)

    def test_wrong_budget_finds_nothing(self):
        m = BiadjacencyMatrix(4, 1, (1, 2, 4, 8))
        assert disjoint_row_cover(m, 3) is None


class TestObstruction:
    def test_worked_example_report(self, rank6_matrix):
        report = obstruction_report(rank6_matrix)
        assert report.rank == 6 and report.full_rank
        assert report.m_rows == 2 and report.m_integral
        assert not report.cover_exists
        assert report.implication_holds

    def test_all_ones_report(self):
        m = BiadjacencyMatrix(4, 4, (0b1111,) * 4)
        report = obstruction_report(m)
        assert report.rank == 1 and not report.full_rank
        assert report.cover_exists and report.cover_witness == (0,)
        assert report.implication_holds

    def test_non_integral_ratio_noted(self, block6_matrix):
        report = obstruction_report(block6_matrix)
        assert not report.m_integral and report.m_rows == 2
        assert not report.cover_exists  # disjoint 4+4 supports cannot fit 6

    def test_implication_on_every_class_at_6_3(self):
        for m in enumerate_kreg(6, 3):
            report = obstruction_report(m)
            assert report.implication_holds
