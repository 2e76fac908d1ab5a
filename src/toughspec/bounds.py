"""Classical spectral-radius upper bounds and the toughness margin of the
(proved) Brouwer conjecture for regular graphs.

Each bound check reports the slack rhs - rho and whether the graph sits in the
bound's exact equality class, which is decided structurally rather than by
floating-point coincidence alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .graphs import Graph, SidePartition, bipartition_of
from .spectra import second_largest_absolute_eigenvalue, spectral_radius
from .toughness import toughness

EQUALITY_SLACK = 1e-7


class Bound(str, Enum):
    HONG = "hong"  # rho <= sqrt(2m - n + 1)
    DEGREE = "degree"  # rho <= (d-1)/2 + sqrt(2m - n*d + (d+1)^2/4), d = min degree
    NOSAL = "nosal"  # rho <= sqrt(m) for bipartite graphs


@dataclass
class BoundReport:
    bound: Bound
    lhs: float  # spectral radius
    rhs: float  # bound value
    slack: float  # rhs - lhs, >= -1e-8 when the hypotheses hold
    equality_case: bool


def _is_star(g: Graph) -> bool:
    if g.n < 2:
        return False
    degs = sorted(g.degrees())
    return degs[-1] == g.n - 1 and all(d == 1 for d in degs[:-1])


def _hong(g: Graph) -> float:
    if g.n > 1 and g.min_degree() < 1:
        raise ValueError("bound requires minimum degree >= 1")
    return math.sqrt(2 * g.m - g.n + 1)


def _degree_refined(g: Graph) -> float:
    d = g.min_degree()
    if d < 1:
        raise ValueError("bound requires minimum degree >= 1")
    return (d - 1) / 2 + math.sqrt(2 * g.m - g.n * d + (d + 1) ** 2 / 4)


def _nosal_equality(g: Graph, sides: SidePartition) -> bool:
    # complete bipartite plus isolated vertices (edgeless counts degenerately):
    # the m edges fill every pair between the non-isolated vertices of X and of Y
    x, y = (sum(1 for v in side if g.masks[v]) for side in (sides.x, sides.y))
    return g.m == x * y


def _bound_value(g: Graph, bound: Bound) -> tuple[float, bool]:
    """The bound's value on g and whether g has its equality structure;
    ValueError when g fails the bound's hypotheses."""
    if bound is Bound.HONG:
        return _hong(g), _is_star(g) or g.is_complete()
    if bound is Bound.DEGREE:
        degs = set(g.degrees())
        return _degree_refined(g), len(degs) == 1 or degs == {g.min_degree(), g.n - 1}
    sides = bipartition_of(g)
    if sides is None:
        raise ValueError("bound applies to bipartite graphs only")
    return math.sqrt(g.m), _nosal_equality(g, sides)


def _report(bound: Bound, rhs: float, structural: bool, lhs: float) -> BoundReport:
    slack = rhs - lhs
    return BoundReport(bound, lhs, rhs, slack, slack <= EQUALITY_SLACK and structural)


def check_bound(g: Graph, bound: Bound | str) -> BoundReport:
    """Evaluate one spectral upper bound on g and report slack and equality."""
    bound = Bound(bound)
    rhs, structural = _bound_value(g, bound)
    return _report(bound, rhs, structural, spectral_radius(g).radius)


def check_all_bounds(g: Graph) -> list[BoundReport]:
    """Every bound whose hypotheses hold on g, in ``Bound`` order, from one
    radius solve; ValueError with each bound's reason when none applies."""
    values, reasons = {}, []
    for bound in Bound:
        try:
            values[bound] = _bound_value(g, bound)
        except ValueError as exc:
            reasons.append(f"{bound.value}: {exc}")
    if not values:
        raise ValueError("no bound applies (" + "; ".join(reasons) + ")")
    lhs = spectral_radius(g).radius
    return [_report(bound, rhs, structural, lhs) for bound, (rhs, structural) in values.items()]


@dataclass
class BrouwerReport:
    """Toughness margin t - (d / lambda - 1) for a connected regular graph."""

    t: Fraction
    d: int
    lam: float
    margin: float


def brouwer_margin(g: Graph) -> BrouwerReport:
    """Margin of the toughness-vs-eigenvalue inequality t > d/lambda - 1.

    The toughness term is exact (enumeration); lambda is the second largest
    absolute eigenvalue from the dense solver.  Complete graphs are excluded
    since their toughness is INFINITE.
    """
    if not g.is_connected():
        raise ValueError("margin needs a connected graph")
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("margin is defined for regular graphs")
    if g.is_complete():
        raise ValueError("complete graphs have infinite toughness; margin undefined")
    d = g.degrees()[0]
    t, _ = toughness(g)
    # lam >= 1: the other eigenvalues' squares sum to d(n - d) >= n - 1
    lam = second_largest_absolute_eigenvalue(g)
    return BrouwerReport(t, d, lam, float(t) - (d / lam - 1.0))
