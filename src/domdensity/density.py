"""Exact rational domination densities.

All inequality decisions in the toolkit happen on ``fractions.Fraction``;
floats only ever appear in human-readable rendering, next to the exact
value.  The density form of the product inequality is decided from the
domination numbers a ``VizingReport`` already holds, so no graph is solved
twice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .domination import GammaCache, VizingReport, gamma_value
from .graphs import Graph


class _DensityFields(NamedTuple):
    gamma: int
    order: int


class Density(_DensityFields):
    """gamma / order, with the unreduced denominator kept alongside."""

    __slots__ = ()

    def __new__(cls, gamma: int, order: int):
        self = super().__new__(cls, gamma, order)
        if self.order < 1:
            raise ValueError("density needs a positive order")
        if not 1 <= self.gamma <= self.order:
            raise ValueError("gamma must lie in 1..order")
        return self

    @property
    def value(self) -> Fraction:
        return Fraction(self.gamma, self.order)


def rho(g: Graph, cache: GammaCache | None = None) -> Density:
    """Domination density gamma(g) / |V(g)|."""
    return Density(gamma_value(g, cache), g.n)


def density_vizing_check(g: Graph, h: Graph, report: VizingReport) -> bool:
    """The density form rho(G box H) >= rho(G) rho(H) of ``report``, the
    ``check_vizing`` report of (g, h), in exact rationals.

    Algebraically equivalent to the integer form, and asserted to agree with
    ``report.holds`` in the test suite (exact arithmetic makes the
    equivalence literally testable).
    """
    rho_p = Density(report.gamma_product, g.n * h.n).value
    return rho_p >= Density(report.gamma_g, g.n).value * Density(report.gamma_h, h.n).value


__all__ = [
    "Density",
    "rho",
    "density_vizing_check",
]
