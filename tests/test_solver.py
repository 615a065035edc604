import functools
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from oracles import (
    brute_force,
    check_condition,
    classify_profile,
    condition_by_deviation,
    nash_profiles,
    payoff_paper_totals,
)

import thresholdgame
from thresholdgame import solver
from thresholdgame.game import (
    DEFAULT_GAME,
    TREATMENTS,
    AmbiguityScenario,
    GameSpec,
    ProbInterval,
    SuccessCurve,
    ThresholdSpec,
    build_success_curve,
    make_scenario,
)
from thresholdgame.money import Money
from thresholdgame.preferences import (
    EqCondition,
    HOLDS_FOR_ANY_U,
    NEVER_EQUILIBRIUM,
    PowerUtility,
    TableUtility,
    condition_from_curve,
    condition_sign,
    power_threshold,
)
from thresholdgame.solver import (
    TABLE_TREATMENTS,
    EnumerationCapExceeded,
    Profile,
    enumerate_all_profiles,
    enumerate_symmetric,
    equilibrium_table,
    hypothesis_report,
    paper_totals,
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
    while the other four give ``others_euros`` in total, exactly."""
    c = curve(label)
    return [(5 - own) * c.value_at(E(own + others_euros)) for own in range(6)]


def test_staying_is_best_in_baseline_mid_equilibrium():
    column = payoff_column("RR", 4)  # the others give 1 each; staying at 1 hits 5
    assert column.index(max(column)) == 1
    assert all(v < column[1] for i, v in enumerate(column) if i != 1)
    table = solver.PayoffTable(curve("RR"), RN, DEFAULT_GAME)
    assert table.nash[:, 4].tolist() == [False, True, False, False, False, False]
    assert not table.tied[1, 4]


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
    # less money: a lower bound on u's curvature, next to the upper bound of
    # dropping to zero.
    odd = SuccessCurve(((Money(0), F(1, 10)), (E(5), F(1, 2)), (E(6), F(3, 5))), E(25))
    rec = classify_profile(symmetric(1), odd, RN)
    assert rec is not None and rec.kind == "strict"
    assert rec.supporting_condition == (EqCondition(E(5), F(5), E(4)),
                                        EqCondition(E(3), F(5, 6), E(4)))
    row, = records_to_csv_rows([rec], "odd")
    assert (row["condition"], row["rho_threshold"]) == ("u(5) < 5*u(4) and u(3) < 5/6*u(4)", "")


# --- random scenarios ------------------------------------------------------------

@st.composite
def random_cases(draw):
    """(curve, utility, game) for a random scenario: 2-6 players, an endowment
    of 2-6 euros, steps 1.00/0.50/0.25, 1-3 thresholds (known or ambiguous
    weights), probabilities and pessimism in twentieths, and a power utility
    or a table utility with whole-number increments at whole euros."""
    n, euros = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    game = GameSpec(n, E(euros), Money(draw(st.sampled_from((100, 50, 25)))))
    support = draw(st.lists(st.integers(1, 4 * n * euros), min_size=1, max_size=3, unique=True))
    weights = draw(st.none() | st.lists(st.integers(1, 4), min_size=len(support),
                                        max_size=len(support)))
    unmet_lo, unmet_hi = sorted(draw(st.lists(st.integers(0, 20), min_size=2, max_size=2)))
    met_lo = draw(st.integers(unmet_lo, 20))
    met_hi = draw(st.integers(max(unmet_hi, met_lo), 20))
    scenario = AmbiguityScenario(
        "random",
        ThresholdSpec(tuple(Money(25 * t) for t in sorted(support)),
                      weights and tuple(F(w, sum(weights)) for w in weights)),
        ProbInterval(F(met_lo, 20), F(met_hi, 20)),
        ProbInterval(F(unmet_lo, 20), F(unmet_hi, 20)))
    curve = build_success_curve(scenario, F(draw(st.integers(0, 20)), 20), game)
    if draw(st.booleans()):
        rises = draw(st.lists(st.integers(1, 9), min_size=euros, max_size=euros))
        return curve, TableUtility([(0, 0)] + list(enumerate(itertools.accumulate(rises), 1))), game
    rho = draw(st.floats(0.1, 10.0))
    # Skip exponents within 1e-6 of a comparison's rho*, where float payoffs
    # cannot tell the sides apart.
    values = sorted({curve.value_at(Money(c)) for c in range(0, game.max_total.cents + 1, 25)})
    kept = [m.euros for m in game.contribution_grid()[1:]]  # every positive amount kept
    assume(all(abs(rho / (math.log(q2 / q1) / math.log(m2 / m1)) - 1) > 1e-6
               for q1, q2 in itertools.combinations([v for v in values if v], 2)
               for m1, m2 in itertools.combinations(kept, 2)))
    return curve, PowerUtility(rho), game


@given(case=random_cases())
@settings(max_examples=100)
def test_random_scenarios_match_the_payoff_oracles(case):
    # Every scenario is decided, whatever its conditions: paper totals agree
    # with the payoff oracle, and in small games every Nash profile, its kind
    # and its zero flag agree with float payoffs computed without a table.
    curve, u, game = case
    assert paper_totals(curve, u, game) == payoff_paper_totals(curve, u, game)
    if len(game.contribution_grid()) ** game.n_players <= 1000:
        found = [(r.profile.contributions, r.kind, r.zero_payoff)
                 for r in enumerate_all_profiles(curve, u, game)]
        assert sorted(found) == sorted(nash_profiles(curve, u, game))


def assert_conditions_match_the_oracle(c, game, probes):
    """condition_from_curve equals the per-deviation oracle at each probed
    total that is a symmetric candidate, and raises ValueError at every other;
    returns the number of candidates."""
    candidates = 0
    for total in probes:
        try:
            expected = condition_by_deviation(c, total, game)
        except ValueError:
            with pytest.raises(ValueError):
                condition_from_curve(c, total, game)
            continue
        assert condition_from_curve(c, total, game) == expected, (c, game, total)
        candidates += 1
    return candidates


@given(case=random_cases())
@settings(max_examples=100)
def test_random_conditions_match_the_per_deviation_oracle(case):
    # Every total on the quarter-euro grid, which holds each canonical total.
    c, _, game = case
    assert_conditions_match_the_oracle(
        c, game, [Money(t) for t in range(0, game.max_total.cents + 1, 25)])


def test_built_in_conditions_match_the_per_deviation_oracle():
    candidates = 0
    for n, step, alpha in itertools.product(range(1, 9), ("5.00", "2.50", "1.00", "0.50", "0.25"),
                                            [F(k, 20) for k in range(21)]):
        game = GameSpec(n, grid_step=Money.parse(step))
        for label in TABLE_TREATMENTS:
            c = build_success_curve(make_scenario(label), alpha, game)
            candidates += assert_conditions_match_the_oracle(
                c, game, sorted(c.canonical_totals() | {Money(1)}))
    assert candidates > 3000


# --- one rule for every cell ------------------------------------------------------

@functools.lru_cache(maxsize=None)
def pair_rules(c, game):
    """For each (own g, deviation h, others' total s) of a curve's table: the
    sign of staying less deviating where a zero payoff or monotonicity of u
    settles it, and for the rest the EqCondition(m_h, p_g / p_h, m_g) that
    decides them, with the cells it decides."""
    grid = game.contribution_grid()
    settled = np.zeros((len(grid), len(grid), (game.n_players - 1) * (len(grid) - 1) + 1))
    open_ = {}
    for (g, own), (h, dev), s in itertools.product(enumerate(grid), enumerate(grid),
                                                   range(settled.shape[2])):
        p, q = c.value_at(game.grid_step * s + own), c.value_at(game.grid_step * s + dev)
        m, k = game.endowment - own, game.endowment - dev
        if not (p and m.cents and q and k.cents):
            settled[g, h, s] = bool(p and m.cents) - bool(q and k.cents)
        elif (p - q) * (m.cents - k.cents) >= 0:
            settled[g, h, s] = np.sign(np.sign(float(p - q)) + np.sign(m.cents - k.cents))
        else:
            open_.setdefault(EqCondition(k, p / q, m), []).append((g, h, s))
    return settled, {cond: tuple(np.array(cells).T) for cond, cells in open_.items()}


def test_every_cell_is_decided_by_its_pairs_condition_at_every_break_exponent():
    # At every break exponent of the built-in arms (alphas 0, 1/2 and 1, steps
    # 1.00 and 0.50), where two payoffs of one column tie, and 1 ulp either
    # side, each cell's Nash, weak and dominance flags follow from the signs
    # of its pairs: settled, or condition_sign of the pair's EqCondition.
    # condition_sign is called on each condition at and around its own rho*;
    # away from it, the sign is that of rho* - rho (reversed for lower bounds).
    points = 0
    games = [GameSpec(grid_step=Money.parse(step)) for step in ("1.00", "0.50")]
    for c, game in {(curve(label, alpha, game), game) for label, alpha, game
                    in itertools.product(TABLE_TREATMENTS, (0.0, 0.5, 1.0), games)}:
        settled, open_ = pair_rules(c, game)
        conds = list(open_)
        stars = np.array([power_threshold(cond) for cond in conds])
        lower = np.array([cond.lhs_point < cond.rhs_point for cond in conds])
        for rho in sorted({x for r in stars for x in (math.nextafter(r, 0), r,
                                                      math.nextafter(r, math.inf))}):
            u = PowerUtility(rho)
            signs = np.where(lower, np.sign(rho - stars), np.sign(stars - rho))
            near = np.abs(stars - rho) <= 2 * (math.nextafter(rho, math.inf) - rho)
            assert [condition_sign((conds[i],), u) for i in np.flatnonzero(near)] == \
                signs[near].tolist()
            sign = settled.copy()
            for cond, s in zip(conds, signs):
                sign[open_[cond]] = s
            table = solver.PayoffTable(c, u, game)
            assert (table.nash == (sign >= 0).all(1)).all(), (c, game, rho)
            others = ~np.eye(len(sign), dtype=bool)[:, :, None]
            assert (table.tied == ((sign == 0) & others).any(1)).all(), (c, game, rho)
            dominated = ((sign <= 0).all(2) & (sign < 0).any(2)).any(1)
            assert (table.dominated == dominated).all(), (c, game, rho)
            # A canonical symmetric cell is kept in paper mode iff its total's
            # condition holds strictly.
            for t, cond in table.conditions.items():
                cell = t // game.n_players, t - t // game.n_players
                kept = table.nash[cell] and not (table.tied[cell] or table.zero[cell])
                assert kept == (condition_sign(cond, u) == 1), (c, game, rho, t)
            points += 1
    assert points > 1000


def test_built_in_conditions_are_upper_bounds_only():
    # robust_table reads one sample, the largest, because every built-in-arm
    # comparison holds below its rho*; a lower bound (lhs < rhs) would break it.
    checked = 0
    for n, step, alpha in itertools.product(range(1, 9), ("5.00", "2.50", "1.00", "0.50", "0.25"),
                                            [F(k, 20) for k in range(21)]):
        for summary in hypothesis_report(alpha, GameSpec(n, grid_step=Money.parse(step))).summaries:
            for _, cond in summary.conditions:
                if cond != NEVER_EQUILIBRIUM:
                    assert len(cond) <= 1 and all(c.lhs_point > c.rhs_point for c in cond)
                    checked += 1
    assert checked > 2000


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
            if cond == NEVER_EQUILIBRIUM:
                assert not strict
            else:
                assert strict == all(check_condition(comparison, u) for comparison in cond)


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
    cond10, = conditions[E(10)]
    assert cond10.factor == F(9, 5)
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
