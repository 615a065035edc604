"""Utility families and symmetric-equilibrium conditions.

A player keeping ``x`` euros after contributing gets utility ``u(x)`` with
``u(0) = 0`` and ``u`` strictly increasing; the objective at own contribution
``c_i`` and others' total ``C_-i`` is ``u(endowment - c_i) * p(c_i + C_-i)``,
whose comparisons ``solver.PayoffTable`` tabulates over the grid.

Every payoff comparison has one exact rule.  Comparing u(m) * q with
u(m') * q', monotonicity of u settles it unless one side keeps more money at
a lower step; then it is an ``EqCondition`` u(L) < k * u(m) with exact
rational ``k``, which ``condition_sign`` decides.  A symmetric equilibrium's
condition at a canonical total is the conjunction of the open comparisons of
staying with each deviation, or "never"; for the built-in scenarios it is one
``u(5) < k * u(m)`` or the empty conjunction, "holds for any u".  It is
derived from the success curve itself, not hardcoded per treatment.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .game import DEFAULT_GAME, GameSpec, SuccessCurve
from .money import Money


class PowerUtility:
    """u(x) = x ** rho, x in euros.  rho=1 risk neutral, rho<1 averse, rho>1 loving."""

    def __init__(self, rho: float):
        if not rho > 0:
            raise ValueError(f"power exponent must be positive, got {rho}")
        self.rho = float(rho)

    def __call__(self, euros: float) -> float:
        if euros < 0:
            raise ValueError(f"utility undefined for negative amounts: {euros}")
        return euros ** self.rho

    def __repr__(self) -> str:
        return f"PowerUtility(rho={self.rho})"


class TableUtility:
    """Piecewise-linear utility through given (euros, value) points.

    Requires u(0) = 0 and strictly increasing values; interpolation keeps both
    properties on refined grids.
    """

    def __init__(self, points: list[tuple[float, float]]):
        pts = sorted((float(x), float(v)) for x, v in points)
        if not pts or pts[0] != (0.0, 0.0):
            raise ValueError("table utility must start at (0, 0)")
        for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
            if x1 <= x0 or v1 <= v0:
                raise ValueError("table utility must be strictly increasing")
        self.points = pts

    def __call__(self, euros: float) -> float:
        pts = self.points
        if euros < pts[0][0] or euros > pts[-1][0]:
            raise ValueError(f"{euros} outside table domain [{pts[0][0]}, {pts[-1][0]}]")
        for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
            if euros <= x1:
                return v0 + (v1 - v0) * (euros - x0) / (x1 - x0)
        return pts[-1][1]

    def __repr__(self) -> str:
        return f"TableUtility({self.points!r})"


UtilityFn = Union[PowerUtility, TableUtility]

RISK_NEUTRAL = PowerUtility(1.0)


def utility_from_json(doc: dict) -> UtilityFn:
    """Config form: {"family":"power","rho":1.0} or {"family":"table","points":[[0,0],...]}."""
    family = doc.get("family")
    if family == "power":
        rho = doc.get("rho")
        if not is_real(rho):
            raise ValueError(f"utility.rho must be a number, got {rho!r}")
        return PowerUtility(rho)
    if family == "table":
        points = doc.get("points")
        if not (isinstance(points, list) and all(
                isinstance(p, list) and len(p) == 2 and all(map(is_real, p)) for p in points)):
            raise ValueError(f"utility.points must be [euros, value] number pairs, got {points!r}")
        return TableUtility([tuple(p) for p in points])
    raise ValueError(f"unknown utility.family: {family!r}")


def is_real(value: object) -> bool:
    """A config number: an int, float or Fraction, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class EqCondition:
    """The inequality u(lhs_point) < factor * u(rhs_point) with exact rational
    factor: an upper bound on u's curvature when lhs_point > rhs_point, a
    lower bound when lhs_point < rhs_point."""

    lhs_point: Money
    factor: Fraction
    rhs_point: Money

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("condition factor must be positive")
        if self.lhs_point == self.rhs_point or min(self.lhs_point, self.rhs_point) <= Money(0):
            raise ValueError("condition requires distinct positive points")

    def __str__(self) -> str:
        return f"u({self.lhs_point.compact()}) < {self.factor}*u({self.rhs_point.compact()})"


#: The empty conjunction: a symmetric equilibrium for every admissible utility.
HOLDS_FOR_ANY_U: tuple[EqCondition, ...] = ()
#: A total that is not a strict symmetric equilibrium for any admissible utility.
NEVER_EQUILIBRIUM = "never"

#: A conjunction of inequalities, or NEVER_EQUILIBRIUM.
ConditionResult = Union[tuple[EqCondition, ...], str]


def power_threshold(cond: EqCondition) -> float:
    """Critical exponent rho* = ln(k) / ln(lhs/rhs): a power utility meets the
    condition exactly when rho < rho* (lhs > rhs) or rho > rho* (lhs < rhs)."""
    ratio = cond.lhs_point.euros / cond.rhs_point.euros
    return math.log(float(cond.factor)) / math.log(ratio)


def condition_sign(cond: ConditionResult, u: UtilityFn) -> int | None:
    """The least sign over the comparisons of ``cond`` under ``u``: 1 if each
    holds strictly (so 1 for "any"), 0 if the least ties, -1 if one fails;
    None for "never".  A power utility compares rho with each rho*; any other
    compares its float values exactly, as Fractions."""
    if cond == NEVER_EQUILIBRIUM:
        return None
    return min(_sign(c, u) for c in cond) if cond else 1


def _sign(cond: EqCondition, u: UtilityFn) -> int:
    if isinstance(u, PowerUtility):
        gap = power_threshold(cond) - u.rho
        gap = -gap if cond.lhs_point.cents < cond.rhs_point.cents else gap
    else:
        gap = cond.factor * Fraction(u(cond.rhs_point.euros)) - Fraction(u(cond.lhs_point.euros))
    return (gap > 0) - (gap < 0)


def condition_from_curve(
    curve: SuccessCurve, target_total: Money, game: GameSpec = DEFAULT_GAME
) -> ConditionResult:
    """The strict-symmetric-equilibrium requirement at ``target_total``: the
    conjunction of the comparisons that monotonicity of u leaves open, or
    "never".

    Candidate totals are 0 and the curve's breakpoints; each player contributes
    target_total / n.  Deviation payoffs q*u(m) are compared against the stay
    payoff p*u(m_stay) using only monotonicity of u, which settles every
    comparison except a deviation to a lower step that keeps more money (an
    upper bound on u's curvature) or to a higher step that keeps less (a lower
    bound).  Only the maximal ones are kept, in grid order: beating (q', m')
    implies beating (q, m) when q <= q' and m <= m'.  For the built-in games
    the only one is the deviation to zero, giving the u(5) < k*u(m) form.
    """
    candidates = curve.canonical_totals()
    if target_total not in candidates:
        raise ValueError(
            f"total {target_total} is not a candidate equilibrium total; "
            f"expected one of {sorted(m.compact() for m in candidates)}")
    n = game.n_players
    if target_total.cents % n != 0:
        raise ValueError(f"total {target_total} not divisible across {n} players")
    c_each = Money(target_total.cents // n)
    if not game.on_grid(c_each):
        raise ValueError(f"per-player contribution {c_each} is off the grid")

    p_stay = curve.value_at(target_total)
    m_stay = game.endowment - c_each
    if p_stay == 0 or m_stay == Money(0):
        # Stay payoff is identically zero; every deviation at least ties.
        return NEVER_EQUILIBRIUM

    others = target_total - c_each
    open_: list[tuple[Fraction, Money]] = []
    for c_dev in game.contribution_grid():
        q = curve.value_at(others + c_dev)
        m_dev = game.endowment - c_dev
        if c_dev == c_each or q == 0 or m_dev == Money(0):
            continue  # staying itself, or a deviation that earns nothing
        if q >= p_stay and m_dev > m_stay:
            return NEVER_EQUILIBRIUM  # deviation at least as good for every u
        if q > p_stay or m_dev > m_stay:  # a higher step, or more money kept
            open_.append((q, m_dev))
    return tuple(
        EqCondition(lhs_point=m, factor=p_stay / q, rhs_point=m_stay) for q, m in open_
        if not any(q2 >= q and m2 >= m and (q2, m2) != (q, m) for q2, m2 in open_))
