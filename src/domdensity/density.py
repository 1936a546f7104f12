"""Exact rational domination densities.

All inequality decisions in the toolkit happen in exact arithmetic:
integers or ``fractions.Fraction``; floats only ever appear in
human-readable rendering, next to the exact value.  The density form of
the product inequality is decided from the domination numbers a
``VizingReport`` already holds, so no graph is solved twice.
"""

from __future__ import annotations

from .domination import VizingReport
from .graphs import Graph


def density_vizing_check(g: Graph, h: Graph, report: VizingReport) -> bool:
    """The density form rho(G box H) >= rho(G) rho(H) of ``report``, the
    ``check_vizing`` report of (g, h), where rho is gamma / |V|.

    Decided in integers, as a/b >= c/d iff ad >= cb for b, d > 0, so that
    ``check-vizing`` builds no rational.  Algebraically equivalent to the
    integer form, and asserted to agree with ``report.holds`` in the test
    suite (exact arithmetic makes the equivalence literally testable).
    """
    # a/b = rho(G box H), on |V(G)| |V(H)| vertices; c/d = rho(G) rho(H).
    a, b = report.gamma_product, g.n * h.n
    c, d = report.gamma_g * report.gamma_h, g.n * h.n
    return a * d >= c * b
