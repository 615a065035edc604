"""Utility families and the one rule for payoff comparisons.

A player keeping ``x`` euros after contributing gets utility ``u(x)`` with
``u(0) = 0`` and ``u`` strictly increasing; the objective at own contribution
``c_i`` and others' total ``C_-i`` is ``u(endowment - c_i) * p(c_i + C_-i)``.

No other module settles or decides a payoff comparison.  Comparing u(m) * q
with u(m') * q', monotonicity of u settles it unless one side keeps more
money at a lower step; then it is an ``EqCondition`` u(L) < k * u(m) with
exact rational ``k``.  ``pair_table`` settles every two payoffs of a curve's
grid once; ``pair_signs`` decides its open ones for a utility, as
``condition_sign`` decides a condition.  A symmetric candidate total's
condition, read from the pair table, is the conjunction of the open
comparisons of staying with each deviation, or "never"; for the built-in
scenarios it is one ``u(5) < k * u(m)`` or "holds for any u".
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

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


@lru_cache(maxsize=64)
def pair_table(curve: SuccessCurve, game: GameSpec) -> tuple:
    """The (kept money, step value) pair of each payoff u(kept) * p, the pair at
    [own grid index, profile total in grid steps], the pairs that earn more than
    0, and over two pairs (a, b): the sign of a's payoff less b's that
    monotonicity of u settles (NaN if open), whether a keeps more money (an
    open pair is then a lower bound), and an open one's rho*.  Cached and
    read-only: every utility reuses them."""
    kept = [game.endowment - c for c in game.contribution_grid()]
    p = [curve.value_at(game.grid_step * t) for t in range(game.max_total // game.grid_step + 1)]
    values = sorted(set(p))
    n = len(values)
    pairs = [(m, q) for m in kept for q in values]
    at = np.arange(len(kept))[:, None] * n + [values.index(q) for q in p]
    money, level = np.array([m.cents for m, _ in pairs]), np.tile(range(n), len(kept))
    dm, dq = np.sign(np.subtract.outer(money, money)), np.sign(np.subtract.outer(level, level))
    positive = (money > 0) & np.array([q > 0 for _, q in pairs])
    settled = np.select([~np.logical_and.outer(positive, positive), dm * dq < 0],
                        [np.subtract.outer(positive, positive, dtype=int), np.nan],
                        np.sign(dm + dq))
    # power_threshold of each open pair's EqCondition, term by term
    log_k = [[math.log(float(a / b)) if a and b else 1.0 for b in values] for a in values]
    log_r = [[math.log(b.euros / a.euros) if a.cents and b.cents else 1.0 for b in kept]
             for a in kept]
    rho_star = np.divide(np.tile(log_k, (len(kept),) * 2), np.kron(log_r, np.ones((n, n))),
                         out=np.full(settled.shape, np.nan), where=np.isnan(settled))
    arrays = at, positive, settled, dm > 0, rho_star
    for array in arrays:
        array.flags.writeable = False
    return pairs, *arrays


def pair_signs(table: tuple, u: UtilityFn) -> np.ndarray:
    """Over two pairs (a, b) of ``table``: the sign of a's payoff less b's under
    ``u``, settled, or decided as ``_sign`` decides the open pair's EqCondition."""
    pairs, _, _, settled, lower, rho_star = table
    if isinstance(u, PowerUtility):
        gap = np.where(lower, u.rho - rho_star, rho_star - u.rho)
    else:
        rank = np.unique([Fraction(u(m.euros)) * q for m, q in pairs], return_inverse=True)[1]
        gap = np.subtract.outer(rank, rank)
    return np.where(np.isnan(settled), np.sign(gap), settled)


def _symmetric_totals(curve: SuccessCurve, game: GameSpec) -> list[Money]:
    """The symmetric candidate totals, ascending: the canonical totals whose
    per-player share is on the grid (any other total is no symmetric profile)."""
    n = game.n_players
    return sorted(total for total in curve.canonical_totals()
                  if total.cents % n == 0 and game.on_grid(Money(total.cents // n)))


@lru_cache(maxsize=256)
def symmetric_conditions(
    curve: SuccessCurve, game: GameSpec
) -> tuple[tuple[Money, ConditionResult], ...]:
    """Each symmetric candidate total, ascending, with its condition.  Cached:
    conditions depend on the curve and the game alone."""
    return tuple((total, condition_from_curve(curve, total, game))
                 for total in _symmetric_totals(curve, game))


def condition_from_curve(
    curve: SuccessCurve, target_total: Money, game: GameSpec = DEFAULT_GAME
) -> ConditionResult:
    """The strict-symmetric-equilibrium requirement at ``target_total``, a
    symmetric candidate total: the conjunction of the comparisons of staying
    with a deviation that monotonicity of u leaves open, or "never".  One is
    open when the deviation keeps more money at a lower step (an upper bound on
    u's curvature) or less at a higher step (a lower bound).  Only the maximal
    ones are kept, in grid order: beating (q', m') beats (q, m) when q <= q'
    and m <= m'.  For the built-in games the only one is the deviation to
    zero, giving the u(5) < k*u(m) form.
    """
    candidates = _symmetric_totals(curve, game)
    if target_total not in candidates:
        raise ValueError(f"total {target_total} is not a symmetric candidate total; "
                         f"expected one of {[m.compact() for m in candidates]}")
    pairs, at, positive, settled, *_ = pair_table(curve, game)
    t = target_total // game.grid_step
    g = t // game.n_players
    stay = at[g, t]
    h = np.delete(np.arange(len(at)), g)
    deviations = at[h, t - g + h]  # deviating to h while the others stay
    sign = settled[stay, deviations]
    if not positive[stay] or (sign < 0).any():
        # Staying earns nothing, so every deviation at least ties; or a
        # deviation beats it for every u.
        return NEVER_EQUILIBRIUM
    open_ = deviations[np.isnan(sign)]
    maximal = open_[~(settled[np.ix_(open_, open_)] == 1).any(0)]
    m_stay, p_stay = pairs[stay]
    return tuple(EqCondition(lhs_point=m, factor=p_stay / q, rhs_point=m_stay)
                 for m, q in map(pairs.__getitem__, maximal.tolist()))
