"""Utility families and symmetric-equilibrium conditions.

A player keeping ``x`` euros after contributing gets utility ``u(x)`` with
``u(0) = 0`` and ``u`` strictly increasing; the objective at own contribution
``c_i`` and others' total ``C_-i`` is ``u(endowment - c_i) * p(c_i + C_-i)``,
which ``solver.PayoffTable`` tabulates over the grid.

The condition governing a symmetric equilibrium at a canonical total reduces,
for the built-in scenarios, to a single inequality ``u(5) < k * u(m)`` with an
exact rational ``k`` (or to "holds for any u" / "never holds").  The reduction
is derived from the success curve itself, not hardcoded per treatment.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .game import DEFAULT_GAME, GameSpec, SuccessCurve
from .money import Money

#: Payoff comparisons with no exact condition to decide them treat
#: |difference| <= TIE_TOL as a tie (double rounding on products of rationals).
TIE_TOL = 1e-12


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
    """The inequality u(lhs_point) < factor * u(rhs_point) with exact rational factor."""

    lhs_point: Money
    factor: Fraction
    rhs_point: Money

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("condition factor must be positive")
        if not Money(0) < self.rhs_point < self.lhs_point:
            raise ValueError("condition requires 0 < rhs_point < lhs_point")

    def __str__(self) -> str:
        return f"u({self.lhs_point.compact()}) < {self.factor}*u({self.rhs_point.compact()})"


#: A symmetric equilibrium that holds for every admissible utility.
HOLDS_FOR_ANY_U = "any"
#: A total that is not a strict symmetric equilibrium for any admissible utility.
NEVER_EQUILIBRIUM = "never"
#: A strict symmetric equilibrium whose condition does not reduce to a single
#: inequality (``condition_from_curve`` raises ``NotImplementedError``).
UNREDUCED = "unreduced"

ConditionResult = Union[EqCondition, str]


def power_threshold(cond: EqCondition) -> float:
    """Critical exponent rho* = ln(k) / ln(lhs/rhs): the condition holds for
    power utility exactly when rho < rho*."""
    ratio = cond.lhs_point.euros / cond.rhs_point.euros
    return math.log(float(cond.factor)) / math.log(ratio)


def condition_sign(cond: ConditionResult, u: UtilityFn) -> int | None:
    """1 if ``cond`` holds strictly under ``u``, 0 at a tie, -1 if it fails, None
    for "never" and "does not reduce".  A power utility compares rho with rho*;
    any other compares its float values exactly, as Fractions."""
    if cond == HOLDS_FOR_ANY_U:
        return 1
    if not isinstance(cond, EqCondition):
        return None
    if isinstance(u, PowerUtility):
        gap = power_threshold(cond) - u.rho
    else:
        gap = cond.factor * Fraction(u(cond.rhs_point.euros)) - Fraction(u(cond.lhs_point.euros))
    return (gap > 0) - (gap < 0)


def condition_from_curve(
    curve: SuccessCurve, target_total: Money, game: GameSpec = DEFAULT_GAME
) -> ConditionResult:
    """Reduce the strict-symmetric-equilibrium requirement at ``target_total``
    to a single inequality, or to "any"/"never".

    Candidate totals are 0 and the curve's breakpoints; each player contributes
    target_total / n.  Deviation payoffs q*u(m) are compared against the stay
    payoff p*u(m_stay) using only monotonicity of u, which is enough to settle
    every comparison except deviations with smaller step value but more money
    kept; for the built-in games the only such deviation is to zero, giving
    the u(5) < k*u(m) form.
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
    binding: list[tuple[Fraction, Money]] = []
    for c_dev in game.contribution_grid():
        if c_dev == c_each:
            continue
        q = curve.value_at(others + c_dev)
        m_dev = game.endowment - c_dev
        if m_dev == Money(0):
            continue  # deviation payoff is identically zero, strictly worse
        if q >= p_stay and m_dev > m_stay:
            return NEVER_EQUILIBRIUM  # deviation at least as good for every u
        if q <= p_stay and m_dev < m_stay:
            continue  # strictly worse for every u
        if q > p_stay and m_dev < m_stay:
            # Deviation reaches a higher step while keeping less money; the
            # requirement is a lower bound on u's curvature, outside the
            # u(L) < k*u(m) form.  Does not occur at canonical totals.
            raise NotImplementedError(
                "equilibrium condition does not reduce to a single inequality")
        if q < p_stay and m_dev > m_stay:
            binding.append((q, m_dev))

    binding = [b for b in binding if b[0] > 0]
    if not binding:
        return HOLDS_FOR_ANY_U
    # Drop conditions implied by a stronger one: (q, m) is weaker than
    # (q', m') when q <= q' and m <= m'.
    maximal = [
        (q, m) for q, m in binding
        if not any((q2 >= q and m2 >= m and (q2, m2) != (q, m)) for q2, m2 in binding)
    ]
    if len(maximal) != 1:
        raise NotImplementedError(
            "equilibrium condition does not reduce to a single inequality")
    q, m_dev = maximal[0]
    return EqCondition(lhs_point=m_dev, factor=p_stay / q, rhs_point=m_stay)
