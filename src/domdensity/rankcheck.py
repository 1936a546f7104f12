"""Exact rank of integer matrices and the disjoint row-cover obstruction.

A full-rank biadjacency matrix cannot admit an m-row disjoint covering of
the all-ones vector: a cover would force the dependency
sum(cover rows) - (1/k) sum(all rows) = 0, whose coefficients only vanish
when k = 1.  The obstruction is therefore a theorem for k >= 2, while every
1-regular (permutation) matrix is full-rank with the all-rows cover; scans
surface those as the exact degenerate exception family.  Both sides of the
implication are computed independently here: the rational rank of the
integer matrix by fraction-free elimination, the covering by explicit
backtracking search.  The implication is checked, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import PreconditionError

if TYPE_CHECKING:  # enumeration imports this module
    from .enumeration import BiadjacencyMatrix


def rank_exact(rows) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    (Bareiss) elimination: every division is exact, no floating point
    anywhere.  ``rows`` must be nonempty and of one nonzero length.
    """
    mat = [list(row) for row in rows]
    if not mat:
        raise ValueError("matrix needs at least one row")
    cols = len(mat[0])
    if cols == 0 or any(len(r) != cols for r in mat):
        raise ValueError("rows must be nonempty and of equal length")
    n_rows = len(mat)
    rank = 0
    prev = 1
    for col in range(cols):
        pivot = next((i for i in range(rank, n_rows) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for i in range(rank + 1, n_rows):
            factor = mat[i][col]
            for j in range(col + 1, cols):
                value = mat[i][j] * lead - factor * mat[rank][j]
                q, r = divmod(value, prev)
                assert r == 0, "fraction-free elimination produced a remainder"
                mat[i][j] = q
            mat[i][col] = 0
        prev = lead
        rank += 1
        if rank == n_rows:
            break
    return rank


def biadjacency_rank(m: BiadjacencyMatrix) -> int:
    return rank_exact([[row >> j & 1 for j in range(m.n)] for row in m.rows])


def complement_identity_check(m) -> bool:
    """Verify sum of rows = k * all-ones, entry by entry.

    That identity makes the complement of every row r equal to
    (1/k) * (sum of rows) - r, a rational combination of rows.  Inputs whose
    column sums break regularity are rejected.
    """
    n, k, rows = m.n, m.k, m.rows
    col_sums = [sum(r >> j & 1 for r in rows) for j in range(n)]
    if any(s != k for s in col_sums):
        raise PreconditionError("column sums are not constant k; not k-regular")
    for row in rows:
        for j in range(n):
            lhs = Fraction(col_sums[j], k) - (row >> j & 1)
            if lhs != 1 - (row >> j & 1):
                return False
    return True


def disjoint_row_cover(m: BiadjacencyMatrix, rows_wanted: int):
    """Rows with pairwise-disjoint supports whose union is every column.

    Backtracks on the least-covered column; all solutions are collected and
    the lexicographically first row set (as a sorted index tuple) is
    returned, or None.
    """
    if rows_wanted < 1:
        raise PreconditionError("need rows_wanted >= 1")
    n = m.n
    full = (1 << n) - 1
    rows = m.rows
    solutions: list[tuple[int, ...]] = []

    def descend(covered: int, chosen: list[int], budget: int):
        if covered == full:
            if budget == 0:
                solutions.append(tuple(sorted(chosen)))
            return
        if budget == 0:
            return
        best_col = -1
        best_cands: list[int] | None = None
        for j in range(n):
            if covered >> j & 1:
                continue
            cands = [i for i in range(n)
                     if rows[i] >> j & 1 and not rows[i] & covered]
            if best_cands is None or len(cands) < len(best_cands):
                best_col, best_cands = j, cands
                if not cands:
                    return
        for i in best_cands:
            chosen.append(i)
            descend(covered | rows[i], chosen, budget - 1)
            chosen.pop()

    descend(0, [], rows_wanted)
    return min(solutions) if solutions else None


@dataclass(frozen=True)
class ObstructionReport:
    rank: int
    full_rank: bool
    m_rows: int
    m_integral: bool
    cover_exists: bool
    cover_witness: tuple[int, ...] | None

    @property
    def implication_holds(self) -> bool:
        return not (self.full_rank and self.cover_exists)


def obstruction_report(m: BiadjacencyMatrix) -> ObstructionReport:
    """Rank and cover search, both computed independently.

    m = n/k rows when k divides n; otherwise the non-integrality is noted
    and ceil(n/k) is used for the search (a disjoint cover then cannot
    exist, but the search still runs rather than being shortcut).
    """
    rank = biadjacency_rank(m)
    integral = m.n % m.k == 0
    m_rows = m.n // m.k if integral else -(-m.n // m.k)
    witness = disjoint_row_cover(m, m_rows)
    return ObstructionReport(
        rank=rank,
        full_rank=rank == m.n,
        m_rows=m_rows,
        m_integral=integral,
        cover_exists=witness is not None,
        cover_witness=witness,
    )


def cover_to_dominating_set(m: BiadjacencyMatrix, row_witness) -> int:
    """Grow a one-sided cover into an explicit dominating set of the graph.

    The witness rows dominate every column vertex; the smallest column set
    covering the remaining rows is found exactly and added.  Returns a
    vertex bitmask in ``to_graph`` indexing (rows 0..n-1, columns n..2n-1).
    """
    n = m.n
    chosen_rows = set(row_witness)
    remaining = [i for i in range(n) if i not in chosen_rows]
    cols = [m.column(j) for j in range(n)]
    need = 0
    for i in remaining:
        need |= 1 << i
    if need == 0:
        best_cols: tuple[int, ...] = ()
    else:
        best_cols = None
        for size in range(n + 1):
            for combo in combinations(range(n), size):
                covered = 0
                for j in combo:
                    covered |= cols[j]
                if covered & need == need:
                    best_cols = combo
                    break
            if best_cols is not None:
                break
    mask = 0
    for i in chosen_rows:
        mask |= 1 << i
    for j in best_cols:
        mask |= 1 << (n + j)
    return mask
