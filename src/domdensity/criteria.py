"""Closed-form bounds and sufficient conditions, all in exact rationals.

Covers the two elementary domination bounds (small bipartition side above,
degree count below), the bipartition-imbalance criteria they combine into,
the conjectured k-regular bound 2*ceil(n/k), the balanced-order thresholds
N(k) derived from it, and the finite remainder list of unresolved (k, n)
cells.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import PreconditionError
from .graphs import BipartiteGraph, is_connected, max_degree

if TYPE_CHECKING:  # loaded by the functions that build one: scan never does
    from fractions import Fraction


class CriterionVerdict(NamedTuple):
    """Uniform envelope: satisfied iff lhs >= rhs, exact sides kept."""

    name: str
    satisfied: bool
    lhs: Fraction
    rhs: Fraction
    boundary: bool
    note: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "satisfied": self.satisfied,
            "lhs": f"{self.lhs.numerator}/{self.lhs.denominator}",
            "rhs": f"{self.rhs.numerator}/{self.rhs.denominator}",
            "boundary": self.boundary,
            "note": self.note,
        }


def _verdict(name: str, lhs: Fraction, rhs: Fraction, note: str = "") -> CriterionVerdict:
    return CriterionVerdict(name, lhs >= rhs, lhs, rhs, lhs == rhs, note)


def _hypothesis_note(*graphs) -> str:
    if all(is_connected(g) for g in graphs):
        return ""
    return "out-of-hypothesis: disconnected input"


def bipartition_upper_bound(bg: BipartiteGraph) -> int:
    """|A| as an upper bound on gamma: side A dominates every B vertex.

    Valid whenever no B vertex is isolated (in particular for connected
    hosts with n >= 2); degenerate inputs are rejected rather than bounded
    wrongly.
    """
    if bg.size_a == 0:
        raise PreconditionError("side A is empty; the bound is undefined")
    g = bg.graph
    for v in range(g.n):
        if bg.side_b >> v & 1 and g.neighbors[v] == 0:
            raise PreconditionError(
                "isolated vertex on side B; side A does not dominate")
    return bg.size_a


def degree_lower_bound(g) -> int:
    """ceil(n / (max degree + 1)): each chosen vertex covers at most that many."""
    return -(-g.n // (max_degree(g) + 1))


def imbalance_criterion(bg_g: BipartiteGraph, bg_h: BipartiteGraph) -> CriterionVerdict:
    """(1 + |B_G|/|A_G|)(1 + |B_H|/|A_H|) >= max degrees + 1.

    When satisfied, the product inequality holds for the pair; silence is
    not a counterexample.
    """
    if bg_g.size_a == 0 or bg_h.size_a == 0:
        raise PreconditionError("degenerate bipartition with empty side A")
    from fractions import Fraction

    lhs = (1 + Fraction(bg_g.size_b, bg_g.size_a)) * (1 + Fraction(bg_h.size_b, bg_h.size_a))
    rhs = Fraction(max_degree(bg_g.graph) + max_degree(bg_h.graph) + 1)
    return _verdict("imbalance", lhs, rhs, _hypothesis_note(bg_g.graph, bg_h.graph))


def imbalance_vs_arbitrary(order: int, side: int, delta_g: int, delta_h: int,
                           rho_h: Fraction, note: str = "") -> CriterionVerdict:
    """|V(G)| / |X| >= (Delta_G + Delta_H + 1) * rho_H.

    One-sided variant: only G needs to be bipartite, with ``side`` the size
    of its side X; H enters through its maximum degree and exact density.
    """
    if side < 1:
        raise PreconditionError("degenerate bipartition with empty side X")
    if delta_h < 0:
        raise PreconditionError("negative maximum degree")
    from fractions import Fraction

    return _verdict("imbalance-arbitrary", Fraction(order, side),
                    (delta_g + delta_h + 1) * rho_h, note)


def conjectured_kreg_bound(n: int, k: int) -> int:
    """The conjectured bound 2*ceil(n/k) for balanced k-regular bipartite graphs."""
    if not 1 <= k <= n:
        raise PreconditionError("need 1 <= k <= n")
    return 2 * (-(-n // k))


def threshold_condition(k: int, n_g: int, n_h: int) -> CriterionVerdict:
    """1/(2k+1) >= (1/k + 1/n_G)(1/k + 1/n_H), exactly.

    Under the conjectured k-regular bound this certifies the product
    inequality for a balanced k-regular bipartite pair.
    """
    if k < 1 or n_g < k or n_h < k:
        raise PreconditionError("need k >= 1 and both orders >= k")
    from fractions import Fraction

    lhs = Fraction(1, 2 * k + 1)
    rhs = (Fraction(1, k) + Fraction(1, n_g)) * (Fraction(1, k) + Fraction(1, n_h))
    return _verdict("k-regular-threshold", lhs, rhs)


class ThresholdEntry(NamedTuple):
    k: int
    n_min: int
    boundary: bool


# Published reference thresholds for comparison output.  The k = 4 entry
# disagrees with the non-strict computation, which hits exact equality at
# n = 12; both values are surfaced, never merged.
REFERENCE_NK = {3: 23, 4: 13, 5: 10, 6: 10, 7: 9, 8: 9}


def min_threshold_order(k: int) -> ThresholdEntry:
    """Smallest n >= k with threshold_condition(k, n, n) satisfied (non-strict).

    Decided in integers: 1/(2k+1) >= (1/k + 1/n)^2 = ((n + k)/(kn))^2 iff
    k^2 n^2 >= (2k+1)(n + k)^2.  Terminates for k >= 3 because the right
    side of the condition tends to 1/k^2 < 1/(2k+1).  The boundary flag
    marks exact equality at the minimal order.
    """
    if k < 3:
        raise PreconditionError("threshold scan needs k >= 3")
    n = k
    while k * k * n * n < (2 * k + 1) * (n + k) ** 2:
        n += 1
    return ThresholdEntry(k, n, k * k * n * n == (2 * k + 1) * (n + k) ** 2)


def kreg_order_bound(n: int, k: int) -> int:
    """2r with r = n - k > 0: order-based bound for balanced k-regular graphs.

    Scanned empirically downstream, never assumed (its derivation covers a
    special neighbourhood structure only).
    """
    r = n - k
    if r <= 0 or n <= 1:
        raise PreconditionError("need n = k + r with r > 0 and n > 1")
    return 2 * r


def finite_remainder() -> frozenset:
    """The unresolved (k, n) cells; the structural case among them is
    n = k + 2 with gamma = 4."""
    pairs = {(4, n) for n in range(6, 13)}
    pairs |= {(5, n) for n in range(7, 10)}
    pairs |= {(6, n) for n in range(8, 10)}
    return frozenset(pairs)


def build_threshold_table(kmax: int) -> list[ThresholdEntry]:
    """N(k) for k = 3..kmax, in order of k."""
    if kmax < 3:
        raise PreconditionError("table needs kmax >= 3")
    return [min_threshold_order(k) for k in range(3, kmax + 1)]
