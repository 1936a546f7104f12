"""Leaf-attachment transforms toward the imbalance regime.

A minimum dominating set splits across the two sides of a bipartition.  On
a side X of size x, against the partner density rho, the hypothesis gate
is the non-strict count ceil(x rho) and the escalation size is the strict
m* = floor(x rho) + 1, the least s with s / x > rho; a set that meets the
gate with fewer than m* vertices on X (exactly x rho of them) is only
noted.  Attaching one leaf per vertex of an escalation subset S, m* of a
set's vertices on X, grows the opposite side by m* per round while the
degree term grows by at most one, so the imbalance criterion fires after
finitely many rounds, and the whole time the domination number stays
fixed (leaves hang off dominating vertices).

The driver records every round so the accounting above is checkable, and
evaluates the constructive inequality
gamma(G box H) + m* |V(H)| >= gamma(G) gamma(H) term by term.
"""

from __future__ import annotations

from math import ceil, floor
from typing import TYPE_CHECKING, NamedTuple

from .criteria import imbalance_vs_arbitrary
from .domination import GammaCache, each_minimum_set, gamma_value
from .errors import FindingError, PreconditionError
from .graphs import (
    BipartiteGraph,
    Graph,
    attach_leaves,
    bit_list,
    cartesian_product,
    check_order,
    graph_key,
    max_degree,
)

if TYPE_CHECKING:  # loaded by the functions that build one
    from fractions import Fraction


class HypothesisReport(NamedTuple):
    """Outcome of the side-proportion hypothesis over minimum dominating sets.

    ``gate_met`` says some set meets the gate ceil(x rho_h) on some side,
    and ``equality_flagged`` that some set met it with fewer than m* =
    floor(x rho_h) + 1 vertices there.  The chosen split is the (set, side)
    with the smallest m* that the set reaches (ties toward side A, then the
    smallest set mask): ``side``, its size, ``d_in_side`` (the set's
    vertices on it, as a mask) and ``m_star``, all None when no split is
    usable.
    """

    rho_h: Fraction
    gamma: int
    gate_met: bool
    equality_flagged: bool
    side: str | None
    side_size: int | None
    d_in_side: int | None
    m_star: int | None

    @property
    def usable(self) -> bool:
        return self.m_star is not None


def evaluate_hypothesis(bg: BipartiteGraph, rho_h: Fraction,
                        cache: GammaCache | None = None) -> HypothesisReport:
    """Sweep every minimum dominating set of ``bg`` against ``rho_h >= 0``.
    The gate and m* depend only on the side, so each is fixed once per
    non-empty side, and a set is judged by its count there alone; the
    judgement does not depend on the order the sets come in."""
    gamma = gamma_value(bg.graph, cache)
    sides = [(side, side_mask, ceil(x * rho_h), floor(x * rho_h) + 1, x)
             for side, side_mask in (("A", bg.side_a), ("B", bg.side_b))
             if (x := side_mask.bit_count())]
    gate_met = equality_flagged = False
    # (m*, side, set mask, side size, set on the side); "A" sorts first
    best = None

    def judge(mask: int):
        nonlocal gate_met, equality_flagged, best
        for side, side_mask, gate, ms, size in sides:
            count = (mask & side_mask).bit_count()
            gate_met |= count >= gate
            equality_flagged |= gate <= count < ms
            if count >= ms and (best is None or (ms, side, mask) < best[:3]):
                best = (ms, side, mask, size, mask & side_mask)

    each_minimum_set(bg.graph, gamma, judge)
    ms, side, _, size, d_in = best or (None,) * 5
    return HypothesisReport(rho_h, gamma, gate_met, equality_flagged, side, size, d_in, ms)


# ---------------------------------------------------------------------------
# the constructive inequality
# ---------------------------------------------------------------------------

class ConstructiveReport(NamedTuple):
    """The terms of the constructive inequality; the fields are the keys of
    the ``constructive`` record ``transform`` prints."""

    applicable: bool
    gate_met: bool
    equality_flagged: bool
    gamma_g: int
    gamma_h: int
    order_h: int
    m_star: int | None
    side: str | None
    rhs: int
    gamma_product: int | None = None
    lhs: int | None = None
    holds: bool | None = None


def constructive_inequality_check(bg: BipartiteGraph, h: Graph, gamma_h: int,
                                  hyp: HypothesisReport,
                                  cache: GammaCache | None = None) -> ConstructiveReport:
    """gamma(G box H) + m_star |V(H)| >= gamma(G) gamma(H), term by term.

    ``gamma_h`` is gamma(H) and ``hyp`` is ``evaluate_hypothesis`` of ``bg``
    against rho(H) = gamma_h / |V(H)|; its chosen split gives m_star.  When
    no minimum dominating set admits a usable side, the result is an
    out-of-hypothesis report rather than an error, and no product is built.
    """
    terms = dict(gate_met=hyp.gate_met, equality_flagged=hyp.equality_flagged,
                 gamma_g=hyp.gamma, gamma_h=gamma_h, order_h=h.n,
                 m_star=hyp.m_star, side=hyp.side, rhs=hyp.gamma * gamma_h)
    if not hyp.usable:
        return ConstructiveReport(applicable=False, **terms)
    gamma_p = gamma_value(cartesian_product(bg.graph, h), cache)
    lhs = gamma_p + hyp.m_star * h.n
    return ConstructiveReport(applicable=True, gamma_product=gamma_p, lhs=lhs,
                              holds=lhs >= terms["rhs"], **terms)


# ---------------------------------------------------------------------------
# iterated leaf attachment
# ---------------------------------------------------------------------------

class TransformTrace(NamedTuple):
    """The leaf-attachment trace; the fields are the keys of the ``trace``
    record ``transform`` prints.  Each round is a dict: its index, the grown
    graph's key, max degree, side sizes, gamma and relabel note, plus the
    round's ``CriterionVerdict.to_json()`` under keys prefixed
    ``criterion_``."""

    hypothesis_met: bool
    gate_met: bool
    equality_flagged: bool
    side_x: str | None = None
    m_star: int | None = None
    targets: list[int] | None = None
    final_round: int | None = None
    satisfied: bool = False
    round_bound: int | None = None
    rounds: tuple[dict, ...] = ()
    policy: str = "reuse-targets"


def iterate_leaves(bg: BipartiteGraph, h_delta: int, hyp: HypothesisReport,
                   cache: GammaCache | None = None) -> TransformTrace:
    """Attach one leaf per escalation vertex per round until the one-sided
    imbalance criterion fires.

    ``hyp`` is ``evaluate_hypothesis`` of ``bg`` against the partner density
    rho(H), which is read from it; its gamma is the round-0 domination
    number.  The same target set S receives a leaf every round, matching the
    one-new-edge-per-vertex accounting; the criterion is evaluated with the
    originally chosen side X as the fixed denominator, and rounds note when
    the |A| <= |B| normalisation would relabel the sides.  The domination
    number is recomputed for every grown graph and must stay at its round-0
    value.

    Each round the left side grows by m*/|X| and the right by at most
    rho(H), so the criterion fires by round ``max(round_bound - 1, 0)``;
    passing it is a finding, and that round's graph is held to the vertex
    cap before any round is solved.
    """
    if h_delta < 0:
        raise PreconditionError("negative partner degree")
    r = hyp.rho_h
    if not hyp.usable:
        return TransformTrace(False, hyp.gate_met, hyp.equality_flagged)

    x_size = hyp.side_size
    m = hyp.m_star
    target_list = bit_list(hyp.d_in_side)[:m]
    targets = sum(1 << v for v in target_list)

    g = bg.graph
    gamma0 = hyp.gamma
    note = "denominator fixed to the chosen side X"
    verdict = imbalance_vs_arbitrary(g.n, x_size, max_degree(g), h_delta, r, note)
    from fractions import Fraction

    gap = Fraction(m, x_size) - r
    bound = 0 if verdict.satisfied else ceil((verdict.rhs - verdict.lhs) / gap) + 1
    last = max(bound - 1, 0)
    check_order(g.n + m * last, f"the round-{last} graph's order")

    rounds: list[dict] = []
    for t in range(last + 1):
        if t:
            g = attach_leaves(g, targets)
            verdict = imbalance_vs_arbitrary(g.n, x_size, max_degree(g), h_delta, r, note)
        gamma_t = gamma_value(g, cache) if t else gamma0
        if gamma_t != gamma0:
            raise FindingError(
                "domination number drifted under leaf attachment",
                record={"round": t, "gamma0": gamma0, "gamma": gamma_t})
        opposite = g.n - x_size
        rounds.append({
            "round": t,
            "key": graph_key(g),
            "delta": max_degree(g),
            "size_a": min(x_size, opposite),
            "size_b": max(x_size, opposite),
            "gamma": gamma_t,
            "relabeled": hyp.side == "B" and opposite > x_size,
            **{f"criterion_{k}": v for k, v in verdict.to_json().items()},
        })
        if verdict.satisfied:
            break
    else:
        raise FindingError(
            "the imbalance criterion did not fire within the round bound",
            record={"round": last, "round_bound": bound})

    return TransformTrace(
        hypothesis_met=True,
        gate_met=hyp.gate_met,
        equality_flagged=hyp.equality_flagged,
        side_x=hyp.side,
        m_star=m,
        targets=target_list,
        final_round=t,
        satisfied=True,
        round_bound=bound,
        rounds=tuple(rounds),
    )
