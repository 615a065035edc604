"""Pure-strategy Nash enumeration, dominance flags, summary tables, robustness sweeps.

"Paper mode" applies the selection used in the theoretical benchmark: keep
strict symmetric equilibria at the canonical totals (0 and the curve's
breakpoints) and drop equilibria where everyone earns exactly zero.  The
zero-payoff exclusion is how the benchmark operationalizes "undominated";
the textbook weak-dominance flag is computed separately because the two
notions disagree for some utilities, and both are reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Literal, Sequence

import numpy as np

from .game import DEFAULT_GAME, GameSpec, SuccessCurve, build_success_curve, make_scenario
from .game import TREATMENTS as TABLE_TREATMENTS  # table columns: the theory order
from .money import Money
from .preferences import (
    HOLDS_FOR_ANY_U,
    NEVER_EQUILIBRIUM,
    UNREDUCED,
    ConditionResult,
    EqCondition,
    PowerUtility,
    TIE_TOL,
    UtilityFn,
    condition_from_curve,
    power_threshold,
)


class EnumerationCapExceeded(Exception):
    """Full-profile enumeration would exceed the configured cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(
            f"profile enumeration needs {required} profiles, cap is {cap}; "
            f"raise the cap to at least {required}")


@dataclass(frozen=True)
class Profile:
    """One contribution per player, all on the grid."""

    contributions: tuple[Money, ...]

    @property
    def is_symmetric(self) -> bool:
        return len(set(self.contributions)) == 1


@dataclass(frozen=True)
class EquilibriumRecord:
    profile: Profile
    total: Money
    kind: Literal["strict", "weak"]
    zero_payoff: bool
    weakly_dominated_strategy: bool
    paper_filter_excluded: bool
    supporting_condition: ConditionResult | None = None


class PayoffTable:
    """Payoffs indexed by (own grid index, others'-total grid index).

    Payoffs depend on opponents only through their total, so one table serves
    every profile: a profile whose grid indices sum to ``t`` is Nash iff every
    own index ``g`` is a best reply at others' index ``t - g``.
    """

    def __init__(self, curve: SuccessCurve, u: UtilityFn, game: GameSpec):
        self.game = game
        self.grid = game.contribution_grid()
        g = np.arange(len(self.grid))
        s = np.arange((game.n_players - 1) * g[-1] + 1)
        u_keep = np.array([u((game.endowment - c).euros) for c in self.grid])
        self.payoff = u_keep[:, None] * _curve_values(curve, game)[g[:, None] + s]
        # Another strategy ties a cell iff the best of the other rows comes
        # within TIE_TOL of it.  That best is the column's second-largest entry
        # when the cell holds the maximum, and at least the cell's payoff if not.
        runner_up = (np.partition(self.payoff, -2, 0)[-2] if len(g) > 1
                     else np.full(len(s), -np.inf))
        # Per-cell flags as nested lists: classification reads them one cell at a time.
        self.nash = (self.payoff.max(0) <= self.payoff + TIE_TOL).tolist()
        self.tied = (runner_up >= self.payoff - TIE_TOL).tolist()
        self.zero = (np.abs(self.payoff) <= TIE_TOL).tolist()
        self._dominated: list[bool] | None = None

    def dominated(self) -> list[bool]:
        """Textbook weak dominance per strategy, over all opponent totals."""
        if self._dominated is None:
            p = self.payoff
            self._dominated = [
                bool(((p >= row - TIE_TOL).all(1) & (p > row + TIE_TOL).any(1)).any())
                for row in p]
        return self._dominated

    def verdict(self, gis: Sequence[int], canonical: set[int]) -> tuple[bool, bool, bool] | None:
        """(weak, zero payoff, excluded by the paper filter) if the profile of
        grid indices is Nash, else None; ``canonical`` holds total indices."""
        t = sum(gis)
        weak, zero = False, True
        for g in gis:
            if not self.nash[g][t - g]:
                return None
            weak = weak or self.tied[g][t - g]
            zero = zero and self.zero[g][t - g]
        return weak, zero, weak or zero or t not in canonical


@lru_cache(maxsize=64)
def _curve_values(curve: SuccessCurve, game: GameSpec) -> np.ndarray:
    """Float p(C) at every grid total from 0 to the game's maximum.

    Cached and read-only: every utility in a sweep reuses its curve's values."""
    values = np.array([float(curve.value_at(game.grid_step * t))
                       for t in range(game.max_total // game.grid_step + 1)])
    values.flags.writeable = False
    return values


def _canonical_indices(curve: SuccessCurve, game: GameSpec) -> set[int]:
    """Grid-index totals of the canonical totals that lie on the grid."""
    step = game.grid_step
    return {c // step for c in curve.canonical_totals() if c.is_multiple_of(step)}


def _classify(
    table: PayoffTable, gis: Sequence[int], curve: SuccessCurve, canonical: set[int]
) -> EquilibriumRecord | None:
    verdict = table.verdict(gis, canonical)
    if verdict is None:
        return None
    weak, zero, excluded = verdict
    game, t = table.game, sum(gis)
    total = game.grid_step * t
    condition: ConditionResult | None = None
    if t in canonical and len(set(gis)) == 1:
        try:
            condition = condition_from_curve(curve, total, game)
        except NotImplementedError:
            condition = UNREDUCED
    dominated = table.dominated()
    return EquilibriumRecord(
        profile=Profile(tuple(table.grid[g] for g in gis)),
        total=total,
        kind="weak" if weak else "strict",
        zero_payoff=zero,
        weakly_dominated_strategy=any(dominated[g] for g in gis),
        paper_filter_excluded=excluded,
        supporting_condition=condition,
    )


def enumerate_symmetric(
    curve: SuccessCurve,
    u: UtilityFn,
    game: GameSpec = DEFAULT_GAME,
    filter_mode: Literal["raw", "paper"] = "raw",
) -> list[EquilibriumRecord]:
    """Symmetric Nash profiles, sorted by total.

    ``raw`` returns every grid-symmetric Nash profile; ``paper`` keeps strict
    equilibria at canonical totals with someone earning a positive payoff.
    """
    if filter_mode not in ("raw", "paper"):
        raise ValueError(f"filter_mode must be 'raw' or 'paper', got {filter_mode!r}")
    table = PayoffTable(curve, u, game)
    canonical = _canonical_indices(curve, game)
    records = (_classify(table, (g,) * game.n_players, curve, canonical)
               for g in range(len(table.grid)))
    return [r for r in records
            if r is not None and not (filter_mode == "paper" and r.paper_filter_excluded)]


def _compositions(total: int, parts: list[int], n: int) -> list[tuple[int, ...]]:
    """n-tuples of the ascending ``parts`` that sum to ``total``, in lexicographic order."""
    memo: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def tails(rest: int, k: int) -> list[tuple[int, ...]]:
        if k == 0:
            return [()] if rest == 0 else []
        if (rest, k) not in memo:
            memo[rest, k] = [(g,) + tail for g in parts if g <= rest
                             for tail in tails(rest - g, k - 1)]
        return memo[rest, k]

    return tails(total, n)


def enumerate_all_profiles(
    curve: SuccessCurve,
    u: UtilityFn,
    game: GameSpec = DEFAULT_GAME,
    cap: int = 6 ** 5,
) -> list[EquilibriumRecord]:
    """Every Nash profile on the grid, sorted by (total, contributions).

    Goes by profile total: at grid-index total ``t`` the Nash profiles are the
    compositions of ``t`` whose parts are all best replies at ``t``.  ``cap``
    bounds the size of the full profile space, as for an exhaustive search.
    """
    n, n_grid = game.n_players, len(game.contribution_grid())
    required = n_grid ** n
    if required > cap:
        raise EnumerationCapExceeded(required, cap)
    table = PayoffTable(curve, u, game)
    n_others = table.payoff.shape[1]
    canonical = _canonical_indices(curve, game)
    records = []
    for t in range(n * (n_grid - 1) + 1):
        ok = [g for g in range(max(0, t - n_others + 1), min(t, n_grid - 1) + 1)
              if table.nash[g][t - g]]
        records += [_classify(table, gis, curve, canonical)
                    for gis in _compositions(t, ok, n)]
    return records


@dataclass(frozen=True)
class EquilibriumTable:
    """Y/blank cells per (total row, treatment column), in presentation layout."""

    totals: tuple[Money, ...]
    treatments: tuple[str, ...]
    cells: frozenset[tuple[str, Money]]

    def has(self, treatment: str, total: Money) -> bool:
        return (treatment, total) in self.cells

    def totals_for(self, treatment: str) -> tuple[Money, ...]:
        return tuple(t for t in self.totals if self.has(treatment, t))

    def render(self) -> str:
        header = ["Equilibrium/Treatment"] + list(self.treatments)
        rows = [header]
        for total in self.totals:
            row = [f"C={total.compact()}"]
            row += ["Y" if self.has(tr, total) else "" for tr in self.treatments]
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                 for r in rows]
        return "\n".join(lines)


def equilibrium_table(
    u: UtilityFn, alpha: float, game: GameSpec = DEFAULT_GAME
) -> EquilibriumTable:
    """Paper-mode equilibrium totals per treatment for one utility function."""
    return _paper_table([u], alpha, game)


def robust_table(
    alpha: float = 1.0,
    rho_range: tuple[float, float] = (0.2, 10.0),
    samples: int = 100,
    game: GameSpec = DEFAULT_GAME,
) -> EquilibriumTable:
    """Cell is Y iff the total survives paper-mode at every sampled power utility.

    The default log-spaced sweep over [0.2, 10] brackets every finite critical
    exponent that occurs in the built-in scenarios.
    """
    if samples < 1:
        raise ValueError("need at least one utility sample")
    lo, hi = rho_range
    if not 0 < lo <= hi:
        raise ValueError(f"invalid rho range: {rho_range}")
    if samples == 1 or lo == hi:
        rhos = [lo]
    else:
        ratio = hi / lo
        rhos = [lo * ratio ** (i / (samples - 1)) for i in range(samples)]
    return _paper_table([PowerUtility(rho) for rho in rhos], alpha, game)


def _paper_table(
    utilities: Sequence[UtilityFn], alpha: float, game: GameSpec
) -> EquilibriumTable:
    """Cells whose symmetric profile survives paper mode under every utility."""
    curves = [build_success_curve(make_scenario(label), alpha, game)
              for label in TABLE_TREATMENTS]
    totals = set().union(*(curve.canonical_totals() for curve in curves))
    arms = [(label, curve, _canonical_indices(curve, game))
            for label, curve in zip(TABLE_TREATMENTS, curves)]
    n = game.n_players
    cells: set[tuple[str, Money]] | None = None
    for u in utilities:
        step_cells = set()
        for label, curve, canonical in arms:
            table = PayoffTable(curve, u, game)
            for g in (t // n for t in canonical if t % n == 0):
                verdict = table.verdict((g,) * n, canonical)
                if verdict is not None and not verdict[2]:
                    step_cells.add((label, game.grid_step * (g * n)))
        cells = step_cells if cells is None else cells & step_cells
    return EquilibriumTable(tuple(sorted(totals)), TABLE_TREATMENTS, frozenset(cells or set()))


@dataclass(frozen=True)
class TreatmentSummary:
    label: str
    equilibrium_totals: tuple[Money, ...]          # paper mode, risk neutral
    robust_totals: tuple[Money, ...]               # hold for every admissible u
    conditions: tuple[tuple[Money, ConditionResult], ...]
    rho_thresholds: tuple[tuple[Money, float | None], ...]


@dataclass(frozen=True)
class HypothesisReport:
    """Equilibrium-based comparison of the four arms at one pessimism weight.

    h1: the double-ambiguity arm alone sustains the high total for every u.
    h2: the loss-ambiguity arm alone sustains the middle total for every u.
    h3: with threshold ambiguity only, the middle total drops out while 0 and
        the high total remain (risk neutral), so contributions polarize.
    """

    alpha: float
    summaries: tuple[TreatmentSummary, ...]
    h1_supported: bool
    h2_supported: bool
    h3_polarization: bool

    def render(self) -> str:
        lines = [f"Equilibrium comparison at pessimism weight alpha={self.alpha:g}"]
        for s in self.summaries:
            eq = ", ".join(t.compact() for t in s.equilibrium_totals) or "-"
            rb = ", ".join(t.compact() for t in s.robust_totals) or "-"
            lines.append(f"  {s.label}: risk-neutral totals {{{eq}}}; all-u totals {{{rb}}}")
            for total, cond in s.conditions:
                thr = dict(s.rho_thresholds)[total]
                extra = f" (rho* = {thr:.4f})" if thr is not None else ""
                lines.append(f"    C={total.compact()}: {_condition_text(cond)}{extra}")
        lines.append(f"H1 (highest contributions under double ambiguity): "
                     f"{'supported' if self.h1_supported else 'not supported'}")
        lines.append(f"H2 (loss-probability ambiguity raises contributions): "
                     f"{'supported' if self.h2_supported else 'not supported'}")
        lines.append(f"H3 (threshold ambiguity polarizes contributions): "
                     f"{'supported' if self.h3_polarization else 'not supported'}")
        return "\n".join(lines)


def _condition_text(cond: ConditionResult) -> str:
    if cond == HOLDS_FOR_ANY_U:
        return "holds for any u"
    if cond == NEVER_EQUILIBRIUM:
        return "never an equilibrium"
    if cond == UNREDUCED:
        return "does not reduce"
    return str(cond)


def hypothesis_report(alpha: float, game: GameSpec = DEFAULT_GAME) -> HypothesisReport:
    """Per-treatment equilibrium sets and the implied cross-arm orderings."""
    summaries = []
    rn = PowerUtility(1.0)
    n = game.n_players
    for label in TABLE_TREATMENTS:
        curve = build_success_curve(make_scenario(label), alpha, game)
        # As in _paper_table: a total whose per-player share is off the grid is no profile.
        canonical = sorted(t for t in curve.canonical_totals()
                           if t.cents % n == 0 and game.on_grid(Money(t.cents // n)))
        eq_totals = tuple(r.total for r in enumerate_symmetric(curve, rn, game, "paper"))
        conditions = []
        thresholds = []
        robust = []
        for total in canonical:
            cond = condition_from_curve(curve, total, game)
            conditions.append((total, cond))
            thr = power_threshold(cond) if isinstance(cond, EqCondition) else None
            thresholds.append((total, thr))
            if cond == HOLDS_FOR_ANY_U:
                robust.append(total)
        summaries.append(TreatmentSummary(
            label=label,
            equilibrium_totals=eq_totals,
            robust_totals=tuple(robust),
            conditions=tuple(conditions),
            rho_thresholds=tuple(thresholds),
        ))
    by_label = {s.label: s for s in summaries}
    high = Money.from_euros(10)
    mid = Money.from_euros(5)
    h1 = (high in by_label["AA"].robust_totals
          and all(high not in s.robust_totals for s in summaries if s.label != "AA"))
    h2 = (mid in by_label["AR"].robust_totals
          and mid not in by_label["RR"].robust_totals
          and mid not in by_label["RA"].robust_totals)
    h3 = (mid in by_label["RR"].equilibrium_totals
          and mid not in by_label["RA"].equilibrium_totals
          and Money(0) in by_label["RA"].equilibrium_totals
          and high in by_label["RA"].equilibrium_totals)
    return HypothesisReport(
        alpha=alpha,
        summaries=tuple(summaries),
        h1_supported=h1,
        h2_supported=h2,
        h3_polarization=h3,
    )


def records_to_csv_rows(records: Iterable[EquilibriumRecord], treatment: str) -> list[dict]:
    """Rows for the CLI's CSV output."""
    rows = []
    for rec in records:
        cond = rec.supporting_condition
        if isinstance(cond, EqCondition):
            cond_text = str(cond)
            rho = f"{power_threshold(cond):.6f}"
        elif cond == HOLDS_FOR_ANY_U:
            cond_text, rho = "holds for any u", ""
        elif cond == NEVER_EQUILIBRIUM:
            cond_text, rho = "never", ""
        elif cond == UNREDUCED:
            cond_text, rho = "does not reduce", ""
        else:
            cond_text, rho = "", ""
        rows.append({
            "treatment": treatment,
            "total": rec.total.compact(),
            "kind": rec.kind,
            "zero_payoff": int(rec.zero_payoff),
            "dominated_textbook": int(rec.weakly_dominated_strategy),
            "condition": cond_text,
            "rho_threshold": rho,
        })
    return rows
