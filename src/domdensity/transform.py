"""Leaf-attachment transforms toward the imbalance regime.

A minimum dominating set splits across the two sides of a bipartition; when
one side's proportion of dominating vertices reaches the density of the
partner graph, attaching one leaf per vertex of a minimal escalation subset
S grows the opposite side by |S| per round while the degree term grows by
at most one.  Since |S|/|X| strictly exceeds the partner density, the
imbalance criterion fires after finitely many rounds, and the whole time
the domination number stays fixed (leaves hang off dominating vertices).

The driver records every round so the accounting above is checkable, and
evaluates the constructive inequality
gamma(G box H) + m_star * |V(H)| >= gamma(G) gamma(H) term by term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ceil, floor
from typing import NamedTuple

from .criteria import CriterionVerdict
from .density import rho
from .domination import (
    GammaCache,
    closed_neighborhoods,
    gamma_exact,
    gamma_value,
)
from .errors import FindingError, PreconditionError
from .graphs import (
    DEFAULT_MAX_PRODUCT_VERTICES,
    BipartiteGraph,
    Graph,
    attach_leaves,
    bit_list,
    cartesian_product,
    graph_key,
    max_degree,
)

EXHAUSTIVE_SWEEP_LIMIT = 14


def m_star(x_size: int, dx_size: int, rho_h: Fraction) -> int | None:
    """Smallest s with s / x_size strictly above rho_h, if s <= dx_size.

    Strict inequality matches the escalation-subset definition; the
    hypothesis gate elsewhere is non-strict, and the two can disagree
    exactly at equality.
    """
    if x_size < 1 or not 0 <= dx_size <= x_size:
        raise PreconditionError("need 0 <= dx_size <= x_size with x_size >= 1")
    if rho_h < 0:
        raise PreconditionError("negative density")
    s = floor(x_size * rho_h) + 1
    return s if s <= dx_size else None


class SplitCandidate(NamedTuple):
    """One (minimum dominating set, side) option for the escalation;
    ``dset`` is the set's vertex mask."""

    dset: int
    side: str
    side_size: int
    d_in_side: int
    meets: bool
    m_star: int | None
    equality_gap: bool


class HypothesisReport(NamedTuple):
    """Outcome of the side-proportion hypothesis over minimum dominating sets.

    ``gate_met`` is the non-strict proportion test on some side; ``chosen``
    is the usable candidate minimising m_star (ties toward side A, then the
    smallest set mask), None when no candidate admits a strict escalation
    subset.  ``equality_flagged`` marks the gate/strictness disagreement.
    """

    rho_h: Fraction
    gamma: int
    gate_met: bool
    chosen: SplitCandidate | None
    equality_flagged: bool
    swept_all_minimum_sets: bool

    @property
    def usable(self) -> bool:
        return self.chosen is not None


def minimum_dominating_sets(g: Graph, gamma: int) -> list[int]:
    """All minimum dominating sets as masks (exhaustive, small orders only)."""
    closed = closed_neighborhoods(g)
    full = g.vertex_mask
    out = []
    for combo in combinations(range(g.n), gamma):
        covered = 0
        mask = 0
        for v in combo:
            covered |= closed[v]
            mask |= 1 << v
        if covered == full:
            out.append(mask)
    return out


def evaluate_hypothesis(bg: BipartiteGraph, rho_h: Fraction,
                        cache: GammaCache | None = None) -> HypothesisReport:
    gamma, witness = gamma_exact(bg.graph, cache)
    swept = bg.graph.n <= EXHAUSTIVE_SWEEP_LIMIT
    masks = minimum_dominating_sets(bg.graph, gamma) if swept else [witness]
    candidates = []
    for mask in masks:
        for side, side_mask in (("A", bg.side_a), ("B", bg.side_b)):
            size = side_mask.bit_count()
            if size == 0:
                continue
            d_in = mask & side_mask
            prop = Fraction(d_in.bit_count(), size)
            meets = prop >= rho_h
            ms = m_star(size, d_in.bit_count(), rho_h) if meets else None
            candidates.append(SplitCandidate(
                dset=mask,
                side=side,
                side_size=size,
                d_in_side=d_in,
                meets=meets,
                m_star=ms,
                equality_gap=meets and ms is None,
            ))
    usable = [c for c in candidates if c.m_star is not None]
    chosen = min(
        usable,
        key=lambda c: (c.m_star, 0 if c.side == "A" else 1, c.dset),
    ) if usable else None
    return HypothesisReport(
        rho_h=rho_h,
        gamma=gamma,
        gate_met=any(c.meets for c in candidates),
        chosen=chosen,
        equality_flagged=any(c.equality_gap for c in candidates),
        swept_all_minimum_sets=swept,
    )


# ---------------------------------------------------------------------------
# the constructive inequality
# ---------------------------------------------------------------------------

class ConstructiveReport(NamedTuple):
    applicable: bool
    hypothesis: HypothesisReport
    gamma_g: int
    gamma_h: int
    order_h: int
    gamma_product: int | None
    m_star: int | None
    side: str | None
    lhs: int | None
    rhs: int
    holds: bool | None

    def to_json(self) -> dict:
        return {
            "applicable": self.applicable,
            "gate_met": self.hypothesis.gate_met,
            "equality_flagged": self.hypothesis.equality_flagged,
            "gamma_g": self.gamma_g,
            "gamma_h": self.gamma_h,
            "order_h": self.order_h,
            "gamma_product": self.gamma_product,
            "m_star": self.m_star,
            "side": self.side,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
        }


def constructive_inequality_check(bg: BipartiteGraph, h: Graph,
                                  cache: GammaCache | None = None,
                                  max_vertices: int = DEFAULT_MAX_PRODUCT_VERTICES,
                                  ) -> ConstructiveReport:
    """gamma(G box H) + m_star |V(H)| >= gamma(G) gamma(H), term by term.

    The side achieving the hypothesis with the smaller m_star is chosen.
    When no minimum dominating set admits a usable side, the result is an
    out-of-hypothesis report rather than an error.
    """
    rho_h = rho(h, cache)
    hyp = evaluate_hypothesis(bg, rho_h.value, cache)
    rhs = hyp.gamma * rho_h.gamma
    if not hyp.usable:
        return ConstructiveReport(
            applicable=False, hypothesis=hyp, gamma_g=hyp.gamma,
            gamma_h=rho_h.gamma, order_h=h.n, gamma_product=None,
            m_star=None, side=None, lhs=None, rhs=rhs, holds=None)
    gamma_p = gamma_value(cartesian_product(bg.graph, h, max_vertices), cache)
    chosen = hyp.chosen
    lhs = gamma_p + chosen.m_star * h.n
    return ConstructiveReport(
        applicable=True, hypothesis=hyp, gamma_g=hyp.gamma,
        gamma_h=rho_h.gamma, order_h=h.n, gamma_product=gamma_p,
        m_star=chosen.m_star, side=chosen.side, lhs=lhs, rhs=rhs,
        holds=lhs >= rhs)


# ---------------------------------------------------------------------------
# iterated leaf attachment
# ---------------------------------------------------------------------------

class TransformRound(NamedTuple):
    index: int
    key: str
    delta: int
    size_a: int
    size_b: int
    verdict: CriterionVerdict
    gamma: int
    relabeled: bool

    def to_json(self) -> dict:
        return {
            "round": self.index,
            "key": self.key,
            "delta": self.delta,
            "size_a": self.size_a,
            "size_b": self.size_b,
            "gamma": self.gamma,
            "relabeled": self.relabeled,
            **{f"criterion_{k}": v for k, v in self.verdict.to_json().items()},
        }


class TransformTrace(NamedTuple):
    hypothesis: HypothesisReport
    side_x: str | None
    m_star: int | None
    targets: int | None
    rounds: tuple[TransformRound, ...]
    final_round: int | None
    satisfied: bool
    round_bound: int | None

    def to_json(self) -> dict:
        return {
            "hypothesis_met": self.hypothesis.usable,
            "gate_met": self.hypothesis.gate_met,
            "equality_flagged": self.hypothesis.equality_flagged,
            "side_x": self.side_x,
            "m_star": self.m_star,
            "targets": None if self.targets is None else bit_list(self.targets),
            "final_round": self.final_round,
            "satisfied": self.satisfied,
            "round_bound": self.round_bound,
            "policy": "reuse-targets",
            "rounds": [r.to_json() for r in self.rounds],
        }


def _round_bound(lhs0: Fraction, rhs0: Fraction, slope_gap: Fraction) -> int:
    if lhs0 >= rhs0:
        return 0
    return ceil((rhs0 - lhs0) / slope_gap) + 1


def iterate_leaves(bg: BipartiteGraph, h_delta: int, hyp: HypothesisReport,
                   max_rounds: int, cache: GammaCache | None = None) -> TransformTrace:
    """Attach one leaf per escalation vertex per round until the one-sided
    imbalance criterion fires (or max_rounds is hit).

    ``hyp`` is ``evaluate_hypothesis`` of ``bg`` against the partner density
    rho(H), which is read from it; its gamma is the round-0 domination
    number.  The same target set S receives a leaf every round, matching the
    one-new-edge-per-vertex accounting; the criterion is evaluated with the
    originally chosen side X as the fixed denominator, and rounds note when
    the |A| <= |B| normalisation would relabel the sides.  The domination
    number is recomputed for every grown graph and must stay at its round-0
    value.
    """
    if max_rounds < 1:
        raise PreconditionError("need max_rounds >= 1")
    if h_delta < 0:
        raise PreconditionError("negative partner degree")
    r = hyp.rho_h
    if not hyp.usable:
        return TransformTrace(
            hypothesis=hyp, side_x=None, m_star=None, targets=None,
            rounds=(), final_round=None, satisfied=False, round_bound=None)

    chosen = hyp.chosen
    x_size = chosen.side_size
    m = chosen.m_star
    targets = sum(1 << v for v in bit_list(chosen.d_in_side)[:m])

    g = bg.graph
    gamma0 = hyp.gamma
    lhs0 = Fraction(g.n, x_size)
    rhs0 = (max_degree(g) + h_delta + 1) * r
    bound = _round_bound(lhs0, rhs0, Fraction(m, x_size) - r)

    rounds: list[TransformRound] = []
    final = None
    satisfied = False
    for t in range(max_rounds + 1):
        delta = max_degree(g)
        lhs = Fraction(g.n, x_size)
        rhs = (delta + h_delta + 1) * r
        verdict = CriterionVerdict(
            "imbalance-arbitrary", lhs >= rhs, lhs, rhs, lhs == rhs,
            note="denominator fixed to the chosen side X")
        gamma_t = gamma_value(g, cache) if t else gamma0
        if gamma_t != gamma0:
            raise FindingError(
                "domination number drifted under leaf attachment",
                record={"round": t, "gamma0": gamma0, "gamma": gamma_t})
        opposite = g.n - x_size
        relabeled = chosen.side == "B" and opposite > x_size
        rounds.append(TransformRound(
            index=t,
            key=graph_key(g),
            delta=delta,
            size_a=min(x_size, opposite),
            size_b=max(x_size, opposite),
            verdict=verdict,
            gamma=gamma_t,
            relabeled=relabeled,
        ))
        if verdict.satisfied:
            final = t
            satisfied = True
            break
        if t == max_rounds:
            break
        g = attach_leaves(g, targets)

    return TransformTrace(
        hypothesis=hyp,
        side_x=chosen.side,
        m_star=m,
        targets=targets,
        rounds=tuple(rounds),
        final_round=final,
        satisfied=satisfied,
        round_bound=bound,
    )
