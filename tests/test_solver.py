import functools
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import brute_force, check_condition, classify_profile, payoff_paper_totals

import thresholdgame
from thresholdgame import solver
from thresholdgame.game import (
    DEFAULT_GAME,
    TREATMENTS,
    GameSpec,
    SuccessCurve,
    build_success_curve,
    make_scenario,
)
from thresholdgame.money import Money
from thresholdgame.preferences import (
    EqCondition,
    HOLDS_FOR_ANY_U,
    NEVER_EQUILIBRIUM,
    UNREDUCED,
    PowerUtility,
    TableUtility,
    TIE_TOL,
)
from thresholdgame.solver import (
    TABLE_TREATMENTS,
    EnumerationCapExceeded,
    Profile,
    enumerate_all_profiles,
    enumerate_symmetric,
    equilibrium_table,
    hypothesis_report,
    records_to_csv_rows,
    robust_table,
)

E = Money.from_euros
F = Fraction
RN = PowerUtility(1.0)


@functools.lru_cache(maxsize=None)
def curve(label, alpha=1.0, game=DEFAULT_GAME):
    return build_success_curve(make_scenario(label), alpha, game)


def symmetric(c_euros):
    return Profile((E(c_euros),) * 5)


def totals(records):
    return [r.total for r in records]


def summaries(report):
    return {s.label: s for s in report.summaries}


# --- best deviation -------------------------------------------------------------

def payoff_column(label, others_euros):
    """One player's risk-neutral payoff at each own contribution 0..5 euros
    while the other four give ``others_euros`` in total."""
    return solver.PayoffTable(curve(label), RN, DEFAULT_GAME).payoff[:, others_euros].tolist()


def test_staying_is_best_in_baseline_mid_equilibrium():
    column = payoff_column("RR", 4)  # the others give 1 each; staying at 1 hits 5
    assert column.index(max(column)) == 1
    assert all(v < column[1] - TIE_TOL for i, v in enumerate(column) if i != 1)


def test_threshold_ambiguity_kills_mid_total():
    column = payoff_column("RA", 4)
    assert column.index(max(column)) == 0
    assert column[0] - column[1] == pytest.approx(0.1)


def test_full_contribution_corner_is_dominated():
    column = payoff_column("RR", 20)
    assert column.index(max(column)) < 5 and max(column) > column[5]


# --- classification --------------------------------------------------------------

def test_double_ambiguity_high_total_strict_for_any_u():
    rec = classify_profile(symmetric(2), curve("AA"), RN)
    assert rec is not None
    assert rec.kind == "strict"
    assert not rec.zero_payoff
    assert rec.supporting_condition == HOLDS_FOR_ANY_U
    assert not rec.paper_filter_excluded


def test_loss_ambiguity_zero_total_weak_and_zero_payoff():
    rec = classify_profile(symmetric(0), curve("AR"), RN)
    assert rec is not None
    assert rec.kind == "weak"
    assert rec.zero_payoff
    assert rec.paper_filter_excluded


def test_optimist_loss_ambiguity_high_total_ties():
    # staying: 1 * u(3) = 3; dropping to zero: 0.6 * u(5) = 3
    rec = classify_profile(symmetric(2), curve("AR", alpha=0.0), RN)
    assert rec is not None
    assert rec.kind == "weak"
    assert not rec.zero_payoff
    assert rec.paper_filter_excluded


def test_non_equilibrium_returns_none():
    assert classify_profile(symmetric(1), curve("RA"), RN) is None


def test_textbook_dominance_differs_from_zero_payoff_filter():
    # Contributing zero under loss ambiguity is not weakly dominated on the
    # full grid for risk-neutral players (it beats contributing 4 when the
    # others give 6), even though the zero-total equilibrium earns nothing.
    rec = classify_profile(symmetric(0), curve("AR"), RN)
    assert rec.zero_payoff
    assert not rec.weakly_dominated_strategy


# --- symmetric enumeration -------------------------------------------------------

PAPER_TOTALS_PESSIMIST = {"RR": [0, 5, 10], "RA": [0, 10], "AR": [5, 10], "AA": [10]}
PAPER_TOTALS_OPTIMIST = {"RR": [0, 5, 10], "RA": [0, 5], "AR": [0, 5], "AA": [0, 5]}


@pytest.mark.parametrize("label", sorted(PAPER_TOTALS_PESSIMIST))
def test_paper_mode_pessimist_totals(label):
    records = enumerate_symmetric(curve(label), RN, filter_mode="paper")
    assert totals(records) == [E(t) for t in PAPER_TOTALS_PESSIMIST[label]]


@pytest.mark.parametrize("label", sorted(PAPER_TOTALS_OPTIMIST))
def test_paper_mode_optimist_totals(label):
    records = enumerate_symmetric(curve(label, 0.0), RN, filter_mode="paper")
    assert totals(records) == [E(t) for t in PAPER_TOTALS_OPTIMIST[label]]


def test_raw_mode_keeps_zero_payoff_equilibria():
    raw = enumerate_symmetric(curve("AR"), RN, filter_mode="raw")
    zero = [r for r in raw if r.total == E(0)]
    assert len(zero) == 1 and zero[0].kind == "weak" and zero[0].zero_payoff
    paper = enumerate_symmetric(curve("AR"), RN, filter_mode="paper")
    assert E(0) not in totals(paper)


def test_filter_mode_validated():
    with pytest.raises(ValueError):
        enumerate_symmetric(curve("RR"), RN, filter_mode="loose")


# --- exhaustive enumeration ------------------------------------------------------

def test_single_player_game_matches_direct_argmax():
    game = GameSpec(n_players=1)
    c = curve("RR", game=game)
    best = max(game.contribution_grid(),
               key=lambda x: RN((game.endowment - x).euros) * float(c.value_at(x)))
    records = enumerate_all_profiles(c, RN, game)
    assert [r.profile.contributions[0] for r in records] == [best] == [E(0)]


def test_exhaustive_symmetric_subset_matches_symmetric_enumeration():
    c = curve("RR")
    full = enumerate_all_profiles(c, RN)
    sym_from_full = [r for r in full if r.profile.is_symmetric]
    assert sym_from_full == enumerate_symmetric(c, RN, filter_mode="raw")


def test_double_ambiguity_has_asymmetric_zero_payoff_equilibria():
    records = enumerate_all_profiles(curve("AA"), RN)
    asym = [r for r in records if not r.profile.is_symmetric and r.total < E(10)]
    assert asym, "expected asymmetric low-total equilibria"
    assert all(r.zero_payoff and r.kind == "weak" for r in asym)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded) as exc:
        enumerate_all_profiles(curve("RR"), RN, cap=100)
    assert exc.value.required == 6 ** 5
    fine = GameSpec(grid_step=Money(50))
    with pytest.raises(EnumerationCapExceeded):
        enumerate_all_profiles(curve("RR", game=fine), RN, fine)


STEP_050 = GameSpec(grid_step=Money(50))
CONCAVE = TableUtility([(0, 0), (1, 1.5), (2, 2.2), (3, 2.9), (4, 3.1), (5, 3.3)])


@pytest.mark.parametrize("label, alpha, u", [
    (label, alpha, PowerUtility(rho)) for label, alpha, rho in itertools.product(
        TABLE_TREATMENTS, (0.0, 0.5, 1.0), (0.2, 0.7, 1.0, 3.0, 10.0))
] + [("AR", 1.0, CONCAVE)], ids=str)
def test_enumeration_by_total_matches_brute_force(label, alpha, u):
    c = curve(label, alpha)
    assert enumerate_all_profiles(c, u) == brute_force(c, u)


@pytest.mark.parametrize("label", TABLE_TREATMENTS)
def test_enumeration_by_total_matches_brute_force_three_players(label):
    game = GameSpec(n_players=3, grid_step=Money(50))
    c = curve(label, game=game)
    u = PowerUtility(0.7)
    assert enumerate_all_profiles(c, u, game) == brute_force(c, u, game)


@pytest.mark.parametrize("game, counts", [
    (DEFAULT_GAME, (123, 382, 228, 908)),
    (STEP_050, (1103, 5632, 1828, 10279)),
])
def test_equilibrium_counts_pinned(game, counts):
    u = PowerUtility(0.7)
    found = tuple(len(enumerate_all_profiles(curve(label, game=game), u, game, cap=11 ** 5))
                  for label in TABLE_TREATMENTS)
    assert found == counts


def test_unreduced_condition_is_recorded():
    # At C=5, raising one's own 1 to 2 reaches the 3/5 step while keeping
    # less money: a requirement outside the u(L) < k*u(m) form.
    odd = SuccessCurve(((Money(0), F(1, 10)), (E(5), F(1, 2)), (E(6), F(3, 5))), E(25))
    rec = classify_profile(symmetric(1), odd, RN)
    assert rec is not None and rec.kind == "strict"
    assert rec.supporting_condition == UNREDUCED
    row, = records_to_csv_rows([rec], "odd")
    assert (row["condition"], row["rho_threshold"]) == ("does not reduce", "")


# --- tables ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def paper_cells(rho, alpha, game):
    """Cells kept in paper mode under u(x) = x ** rho, decided from payoffs alone."""
    u = PowerUtility(rho)
    return frozenset((label, total) for label in TABLE_TREATMENTS
                     for total in payoff_paper_totals(curve(label, alpha, game), u, game))


def reference_table(rhos, alpha, game=DEFAULT_GAME):
    """Cells kept under every power utility with an exponent in ``rhos``."""
    return frozenset.intersection(*(paper_cells(rho, alpha, game) for rho in rhos))


def sampled_exponents(rho_range, samples):
    """The log-spaced exponents the sweep is defined over."""
    lo, hi = rho_range
    if samples == 1 or lo == hi:
        return [lo]
    return [lo * (hi / lo) ** (i / (samples - 1)) for i in range(samples)]


STEPS = ("5.00", "2.50", "1.00", "0.50")


@pytest.mark.parametrize("step", STEPS, ids=[f"step{s}" for s in STEPS])
@pytest.mark.parametrize("alpha", (0.0, 0.3, 0.5, 1.0))
def test_tables_match_symmetric_enumeration(alpha, step):
    game = GameSpec(grid_step=Money.parse(step))
    for rho in (0.2, 0.7, 1.0, 1.2, 3.0, 10.0):
        assert equilibrium_table(PowerUtility(rho), alpha, game).cells == \
            reference_table([rho], alpha, game)
    # The exact sweep against the per-utility oracle, over group sizes,
    # exponent ranges and sample counts.
    for n, rho_range, samples in itertools.product(
            range(1, 8), ((0.2, 10.0), (1.0, 1.0), (0.9, 1.1), (0.05, 50.0)), (1, 10)):
        sized = GameSpec(n_players=n, grid_step=game.grid_step)
        sweep = robust_table(alpha, rho_range, samples, sized)
        rhos = sampled_exponents(rho_range, samples)
        assert sweep.cells == reference_table(rhos, alpha, sized), (n, rho_range, samples)


def test_equilibrium_table_on_fine_grid():
    fine = GameSpec(grid_step=Money(5))
    table = equilibrium_table(RN, 1.0, fine)
    assert table.cells == reference_table([1.0], 1.0, fine)
    assert {E(0), E(5), E(10)} <= set(table.totals)


def assert_table(table, expected):
    for treatment, wanted in expected.items():
        assert [t.cents // 100 for t in table.totals_for(treatment)] == wanted, treatment


def test_pessimist_risk_neutral_table():
    assert_table(equilibrium_table(RN, 1.0), PAPER_TOTALS_PESSIMIST)


def test_optimist_risk_neutral_table():
    assert_table(equilibrium_table(RN, 0.0), PAPER_TOTALS_OPTIMIST)


def test_pessimist_robust_table():
    assert_table(robust_table(alpha=1.0),
                 {"RR": [0], "RA": [0], "AR": [5], "AA": [10]})


def test_optimist_robust_table():
    assert_table(robust_table(alpha=0.0),
                 {"RR": [0], "RA": [0], "AR": [0], "AA": [0]})


def test_degenerate_sweep_reproduces_risk_neutral_table():
    assert_table(robust_table(alpha=1.0, rho_range=(1.0, 1.0), samples=5),
                 PAPER_TOTALS_PESSIMIST)


@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0))
def test_sweep_boundary_is_strict_at_rho_star(alpha):
    # Scaling by 0.5 is exact, so each range's largest sampled exponent is its
    # top.  A top at rho* ties u(L) with k*u(m), and a tie is not strict; a top
    # 1e-9 relative below rho* keeps the cell.
    cells = [(s.label, total, rho_star) for s in hypothesis_report(alpha).summaries
             for total, rho_star in s.rho_thresholds if rho_star is not None and rho_star > 0.5]
    assert cells
    for label, total, rho_star in cells:
        assert not robust_table(alpha, (0.5, rho_star)).has(label, total)
        assert robust_table(alpha, (0.5, rho_star * (1 - 1e-9))).has(label, total)
        assert not robust_table(alpha, (rho_star, rho_star), samples=1).has(label, total)


def test_robust_table_rejects_empty_sample():
    with pytest.raises(ValueError):
        robust_table(samples=0)


def test_table_render_layout():
    text = equilibrium_table(RN, 1.0).render()
    lines = text.splitlines()
    assert lines[0].split() == ["Equilibrium/Treatment", "RR", "RA", "AR", "AA"]
    assert lines[1].startswith("C=0") and lines[3].startswith("C=10")
    assert lines[3].split() == ["C=10", "Y", "Y", "Y", "Y"]


def test_records_csv_rows():
    rows = records_to_csv_rows(enumerate_symmetric(curve("RR"), RN, filter_mode="paper"), "RR")
    assert [r["total"] for r in rows] == ["0", "5", "10"]
    assert rows[1]["condition"] == "u(5) < 5*u(4)"
    assert float(rows[2]["rho_threshold"]) == pytest.approx(1.1507, abs=2e-3)


# --- cross-checks ----------------------------------------------------------------

@pytest.mark.parametrize("label", ("RR", "RA", "AR", "AA"))
@pytest.mark.parametrize("alpha", (1.0, 0.0))
def test_strictness_agrees_with_condition_for_random_power_utilities(label, alpha):
    import random

    from thresholdgame.preferences import condition_from_curve

    rng = random.Random(20240613)
    c = curve(label, alpha)
    for _ in range(25):
        u = PowerUtility(rng.uniform(0.1, 12.0))
        for total in (0, 5, 10):
            per_player = E(total // 5)
            rec = classify_profile(Profile((per_player,) * 5), c, u)
            strict = rec is not None and rec.kind == "strict"
            cond = condition_from_curve(c, E(total))
            if cond == HOLDS_FOR_ANY_U:
                assert strict
            elif isinstance(cond, EqCondition):
                assert strict == check_condition(cond, u)
            else:
                assert not strict


@given(scale=st.floats(0.01, 100.0))
@settings(max_examples=30, deadline=None)
def test_classification_invariant_to_utility_scale(scale):
    base = PowerUtility(1.0)
    scaled = TableUtility([(0, 0), (1, scale), (2, 2 * scale), (3, 3 * scale),
                           (4, 4 * scale), (5, 5 * scale)])
    c = curve("RR")
    for contribution in range(6):
        a = classify_profile(symmetric(contribution), c, base)
        b = classify_profile(symmetric(contribution), c, scaled)
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.kind, a.zero_payoff, a.weakly_dominated_strategy,
                    a.paper_filter_excluded) == \
                   (b.kind, b.zero_payoff, b.weakly_dominated_strategy,
                    b.paper_filter_excluded)


# --- hypothesis report -----------------------------------------------------------

def test_report_orderings_under_pessimism():
    report = hypothesis_report(1.0)
    assert report.h1_supported and report.h2_supported and report.h3_polarization
    by_label = summaries(report)
    assert by_label["AA"].robust_totals == (E(10),)
    assert by_label["AR"].robust_totals == (E(5),)
    rr = by_label["RR"]
    assert dict(rr.rho_thresholds)[E(10)] == pytest.approx(1.1507, abs=2e-3)


def test_report_orderings_reverse_under_optimism():
    report = hypothesis_report(0.0)
    assert not report.h1_supported
    assert not report.h2_supported
    for label in ("RR", "RA", "AR", "AA"):
        assert summaries(report)[label].robust_totals == (E(0),)


def test_robust_totals_match_sweep():
    report = hypothesis_report(1.0)
    sweep = robust_table(alpha=1.0)
    for summary in report.summaries:
        assert summary.robust_totals == sweep.totals_for(summary.label)


@pytest.mark.parametrize("step", ["5.00", "2.50", "1.00", "0.50"])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
def test_robust_totals_match_sweep_on_every_grid(step, alpha):
    # A coarse grid drops the totals whose per-player share is off it, as the sweep does.
    game = GameSpec(grid_step=Money.parse(step))
    sweep = robust_table(alpha=alpha, game=game)
    for summary in hypothesis_report(alpha, game).summaries:
        assert summary.robust_totals == sweep.totals_for(summary.label)


def test_report_at_intermediate_pessimism():
    # a half-and-half blend keeps the report machinery fully defined
    report = hypothesis_report(0.5)
    conditions = dict(summaries(report)["AA"].conditions)
    assert conditions[E(0)] == HOLDS_FOR_ANY_U
    cond10 = conditions[E(10)]
    assert isinstance(cond10, EqCondition) and cond10.factor == F(9, 5)
    assert report.render()


def test_full_endowment_total_is_never_strict():
    # Where every player gives the whole endowment the stay payoff is
    # u(0) * p = 0, so no utility makes the total a strict equilibrium.
    pair = GameSpec(n_players=2)
    top = enumerate_symmetric(build_success_curve(make_scenario("AA"), 1, pair), RN,
                              pair, "raw")[-1]
    assert (top.total, top.kind, top.zero_payoff) == (E(10), "weak", True)
    assert top.supporting_condition == NEVER_EQUILIBRIUM
    solo = GameSpec(n_players=1)
    conditions = dict(summaries(hypothesis_report(1.0, solo))["RR"].conditions)
    assert conditions[E(5)] == NEVER_EQUILIBRIUM


def test_pessimism_never_lowers_robust_totals():
    pessimist = robust_table(alpha=1.0)
    optimist = robust_table(alpha=0.0)
    for treatment in pessimist.treatments:
        worst_case = max(pessimist.totals_for(treatment))
        best_case = max(optimist.totals_for(treatment))
        assert worst_case >= best_case


def test_table_columns_are_the_theory_order():
    assert TABLE_TREATMENTS is TREATMENTS


def test_solver_import_leaves_out_the_analysis_stack():
    # The theory layers load without the econometrics module, and even the
    # analysis commands run on numpy and the standard library alone.
    src = str(Path(thresholdgame.__file__).resolve().parent.parent)
    data = Path(__file__).parent / "golden" / "simulate_n200_seed3.csv"
    cli = "from thresholdgame.cli import main\nassert main({}) == 0"
    runs = (("import thresholdgame.solver", ("scipy", "thresholdgame.econometrics")),
            (cli.format(["analyze", "--data", str(data)]), ("scipy",)),
            (cli.format(["power", "--mc", "200"]), ("scipy",)))
    for statement, absent in runs:
        code = f"import sys\n{statement}\nprint([m for m in {absent!r} if m in sys.modules])"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]", statement
