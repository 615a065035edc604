"""Pure-strategy Nash enumeration, dominance flags, summary tables, robustness sweeps.

Profiles, tables and reports; ``preferences`` settles or decides every payoff comparison.

"Paper mode" applies the selection used in the theoretical benchmark: keep
strict symmetric equilibria at the canonical totals (0 and the curve's
breakpoints) and drop equilibria where everyone earns exactly zero.  The
zero-payoff exclusion is how the benchmark operationalizes "undominated";
the textbook weak-dominance flag is computed separately because the two
notions disagree for some utilities, and both are reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal

import numpy as np

from .game import DEFAULT_GAME, GameSpec, SuccessCurve, arm_curve
from .game import TREATMENTS as TABLE_TREATMENTS  # table columns: the theory order
from .money import Money
from .preferences import (
    HOLDS_FOR_ANY_U,
    NEVER_EQUILIBRIUM,
    RISK_NEUTRAL,
    ConditionResult,
    PowerUtility,
    UtilityFn,
    condition_sign,
    pair_signs,
    pair_table,
    power_threshold,
    symmetric_conditions,
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
    """Nash, tie, zero and dominance flags by (own grid index, others'-total index).

    Payoffs depend on opponents only through their total, so one table serves
    every profile: a profile whose grid indices sum to ``t`` is Nash iff every
    own index ``g`` is a best reply at others' index ``t - g``.  Every flag
    indexes the exact signs that ``preferences.pair_signs`` gives the pairs
    of its payoff comparisons.
    """

    def __init__(self, curve: SuccessCurve, u: UtilityFn, game: GameSpec):
        self.game = game
        self.grid = game.contribution_grid()
        g = np.arange(len(self.grid))
        s = np.arange((game.n_players - 1) * g[-1] + 1)
        _, at, positive, *_ = pairs = pair_table(curve, game)
        cell = at[g[:, None], g[:, None] + s]  # the pair of each (own, others' total)
        # sign[g, h, s]: staying at g against deviating to h, the others at s.
        self.sign = pair_signs(pairs, u)[cell[:, None], cell]
        self.nash = (self.sign >= 0).all(1)
        self.tied = ((self.sign == 0) & ~np.eye(len(g), dtype=bool)[:, :, None]).any(1)
        self.zero = ~positive[cell]
        #: Grid-index profile totals that are canonical totals.
        self.canonical = np.zeros(game.n_players * g[-1] + 1, dtype=bool)
        self.canonical[[c // game.grid_step for c in curve.canonical_totals()
                        if c.is_multiple_of(game.grid_step)]] = True
        #: The condition of each symmetric profile total that has one.
        self.conditions = {total // game.grid_step: cond
                           for total, cond in symmetric_conditions(curve, game)}

    @cached_property
    def dominated(self) -> np.ndarray:
        """Textbook weak dominance per strategy, over all opponent totals."""
        return ((self.sign <= 0).all(2) & (self.sign < 0).any(2)).any(1)


def _records(table: PayoffTable, profiles: list[tuple[int, ...]]) -> list[EquilibriumRecord]:
    """Records of the Nash profiles among ``profiles`` (grid-index tuples of
    one length), in their order."""
    matrix = np.array(profiles, dtype=np.intp).reshape(-1, table.game.n_players)
    t = matrix.sum(1)
    cell = matrix, t[:, None] - matrix  # each player's (own, others' total) cell
    nash, weak, zero = table.nash[cell].all(1), table.tied[cell].any(1), table.zero[cell].all(1)
    excluded = weak | zero | ~table.canonical[t]
    dominated = table.dominated[matrix].any(1)
    symmetric = (matrix == matrix[:, :1]).all(1)
    totals = {i: table.game.grid_step * i for i in set(t.tolist())}
    records = []
    for gis, i, ok, w, z, d, x, s in zip(
            profiles, t.tolist(), nash.tolist(), weak.tolist(), zero.tolist(),
            dominated.tolist(), excluded.tolist(), symmetric.tolist()):
        if not ok:
            continue
        records.append(EquilibriumRecord(
            profile=Profile(tuple(map(table.grid.__getitem__, gis))),
            total=totals[i],
            kind="weak" if w else "strict",
            zero_payoff=z,
            weakly_dominated_strategy=d,
            paper_filter_excluded=x,
            # A symmetric profile at a canonical total carries its condition.
            supporting_condition=table.conditions.get(i) if s else None,
        ))
    return records


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
    records = _records(table, [(g,) * game.n_players for g in range(len(table.grid))])
    return [r for r in records if not (filter_mode == "paper" and r.paper_filter_excluded)]


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
    n_others = table.nash.shape[1]
    records = []
    for t in range(n * (n_grid - 1) + 1):
        ok = [g for g in range(max(0, t - n_others + 1), min(t, n_grid - 1) + 1)
              if table.nash[g, t - g]]
        records += _records(table, _compositions(t, ok, n))
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


def paper_totals(curve: SuccessCurve, u: UtilityFn, game: GameSpec = DEFAULT_GAME) -> list[Money]:
    """The paper-mode symmetric equilibrium totals under ``u``, ascending: the
    canonical totals whose condition holds strictly."""
    return [total for total, cond in symmetric_conditions(curve, game)
            if condition_sign(cond, u) == 1]


def equilibrium_table(
    u: UtilityFn, alpha: float, game: GameSpec = DEFAULT_GAME
) -> EquilibriumTable:
    """Paper-mode equilibrium totals per treatment for one utility function.
    Rows are every arm's canonical totals."""
    curves = {label: arm_curve(label, alpha, game) for label in TABLE_TREATMENTS}
    totals = set().union(*(curve.canonical_totals() for curve in curves.values()))
    cells = frozenset((label, total) for label, curve in curves.items()
                      for total in paper_totals(curve, u, game))
    return EquilibriumTable(tuple(sorted(totals)), TABLE_TREATMENTS, cells)


def robust_table(
    alpha: float = 1.0,
    rho_range: tuple[float, float] = (0.2, 10.0),
    samples: int = 100,
    game: GameSpec = DEFAULT_GAME,
) -> EquilibriumTable:
    """Cell is Y iff the total survives paper mode at each of ``samples``
    log-spaced power exponents in ``rho_range``.  A built-in arm's condition
    is upper bounds only (a test pins it), holding below its ``rho*``, so that
    is the table at the largest sample.  The default range brackets every
    finite ``rho*`` of the built-in scenarios."""
    if samples < 1:
        raise ValueError("need at least one utility sample")
    lo, hi = rho_range
    if not 0 < lo <= hi:
        raise ValueError(f"invalid rho range: {rho_range}")
    top = lo if samples == 1 or lo == hi else lo * (hi / lo)  # the last log-spaced sample
    return equilibrium_table(PowerUtility(top), alpha, game)


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
            for (total, cond), (_, thr) in zip(s.conditions, s.rho_thresholds):
                text = _condition_text(cond, _REPORT_TEXT)
                extra = f" (rho* = {thr:.4f})" if thr is not None else ""
                lines.append(f"    C={total.compact()}: {text}{extra}")
        lines.append(f"H1 (highest contributions under double ambiguity): "
                     f"{'supported' if self.h1_supported else 'not supported'}")
        lines.append(f"H2 (loss-probability ambiguity raises contributions): "
                     f"{'supported' if self.h2_supported else 'not supported'}")
        lines.append(f"H3 (threshold ambiguity polarizes contributions): "
                     f"{'supported' if self.h3_polarization else 'not supported'}")
        return "\n".join(lines)


#: How the report and the CSV word the conditions that are no inequality.
_REPORT_TEXT = {HOLDS_FOR_ANY_U: "holds for any u", NEVER_EQUILIBRIUM: "never an equilibrium"}
_CSV_TEXT = {**_REPORT_TEXT, NEVER_EQUILIBRIUM: "never", None: ""}


def _condition_text(cond: ConditionResult | None, words: dict) -> str:
    return words[cond] if cond in words else " and ".join(map(str, cond))


def _rho_star(cond: ConditionResult | None) -> float | None:
    """The critical exponent of a condition that is one inequality."""
    return power_threshold(cond[0]) if isinstance(cond, tuple) and len(cond) == 1 else None


def hypothesis_report(alpha: float, game: GameSpec = DEFAULT_GAME) -> HypothesisReport:
    """Per-treatment equilibrium sets and the implied cross-arm orderings."""
    summaries = []
    for label in TABLE_TREATMENTS:
        curve = arm_curve(label, alpha, game)
        conditions = symmetric_conditions(curve, game)
        summaries.append(TreatmentSummary(
            label=label,
            equilibrium_totals=tuple(paper_totals(curve, RISK_NEUTRAL, game)),
            robust_totals=tuple(t for t, cond in conditions if cond == HOLDS_FOR_ANY_U),
            conditions=tuple(conditions),
            rho_thresholds=tuple((t, _rho_star(cond)) for t, cond in conditions),
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
        rho_star = _rho_star(cond)
        rows.append({
            "treatment": treatment,
            "total": rec.total.compact(),
            "kind": rec.kind,
            "zero_payoff": int(rec.zero_payoff),
            "dominated_textbook": int(rec.weakly_dominated_strategy),
            "condition": _condition_text(cond, _CSV_TEXT),
            "rho_threshold": "" if rho_star is None else f"{rho_star:.6f}",
        })
    return rows
