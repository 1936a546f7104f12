"""Exact rank of integer matrices and the disjoint row-cover obstruction.

A full-rank biadjacency matrix cannot admit an m-row disjoint covering of
the all-ones vector: a cover would force the dependency
sum(cover rows) - (1/k) sum(all rows) = 0, whose coefficients only vanish
when k = 1.  The obstruction is therefore a theorem for k >= 2, while every
1-regular (permutation) matrix is full-rank with the all-rows cover; scans
surface those as the exact degenerate exception family.  Both sides of the
implication are computed independently here: the rational rank of the
integer matrix by fraction-free elimination, the covering by a scan of
the row subsets of the wanted size.  The implication is checked, never
assumed.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_
from typing import TYPE_CHECKING, NamedTuple

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


def disjoint_row_cover(m: BiadjacencyMatrix, rows_wanted: int):
    """The lexicographically first ``rows_wanted`` rows (a sorted index
    tuple) with pairwise-disjoint supports whose union is every column, or
    None.  The rows of a cover are pairwise disjoint iff their sizes sum to
    n, the number of columns.
    """
    if rows_wanted < 1:
        raise PreconditionError("need rows_wanted >= 1")
    full = (1 << m.n) - 1
    for combo in combinations(range(len(m.rows)), rows_wanted):
        rows = [m.rows[i] for i in combo]
        if reduce(or_, rows) == full and sum(r.bit_count() for r in rows) == m.n:
            return combo
    return None


class ObstructionReport(NamedTuple):
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

