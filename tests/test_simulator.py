import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thresholdgame.data import CSV_COLUMNS
from thresholdgame.game import ARMS, GameSpec, make_scenario
from thresholdgame.money import Money
from thresholdgame.simulator import (
    BehavioralRule,
    CovariateProfile,
    SimConfig,
    SubjectRecord,
    belief_index,
    contribution_index,
    draw_threshold,
    gen_belief,
    gen_contribution,
    is_pivotal,
    randomize,
    realize_payoffs,
    records_to_dataset,
    round_to_grid,
    run_experiment,
    success_probability,
    synth_covariates,
)

E = Money.from_euros


def make_cov(**overrides) -> CovariateProfile:
    base = dict(age=0, female=0, education=0, patience=0, crt=0, math_ability=0,
                altruism=0, envy=0, ideology=0, gravity=0, number_actions=0,
                unemployed=0, social_transfer=0, risk_aversion=0.0,
                ambiguity_aversion=0.0)
    base.update(overrides)
    return CovariateProfile(**base)


# --- randomization ---------------------------------------------------------------

def test_randomize_balanced_counts():
    assignment = randomize(1500, seed=11)
    counts = {arm: 0 for arm in ARMS}
    for a in assignment:
        counts[a.treatment] += 1
    assert counts == {arm: 375 for arm in ARMS}
    assert [a.subject_id for a in assignment] == list(range(1500))


def test_randomize_minimal_case_one_group_per_arm():
    assignment = randomize(20, seed=5)
    groups = {}
    for a in assignment:
        groups.setdefault((a.treatment, a.group_id), []).append(a.subject_id)
    assert len(groups) == 4
    assert all(len(members) == 5 for members in groups.values())


def test_randomize_deterministic():
    assert randomize(100, seed=9) == randomize(100, seed=9)
    assert randomize(100, seed=9) != randomize(100, seed=10)


def test_randomize_group_size_violation():
    with pytest.raises(ValueError):
        randomize(23, seed=1)
    dropped = randomize(23, seed=1, remainder_policy="drop")
    assert len(dropped) == 20


def test_randomize_groups_do_not_straddle_arms():
    assignment = randomize(200, seed=3)
    by_group = {}
    for a in assignment:
        by_group.setdefault(a.group_id, set()).add(a.treatment)
    assert all(len(arms) == 1 for arms in by_group.values())


# --- covariates ------------------------------------------------------------------

def test_covariate_moments_match_targets():
    covs = synth_covariates(10_000, seed=42)
    risk = np.array([c.risk_aversion for c in covs])
    amb = np.array([c.ambiguity_aversion for c in covs])
    assert risk.mean() == pytest.approx(0.04, abs=0.02)
    assert np.corrcoef(risk, amb)[0, 1] == pytest.approx(-0.41, abs=0.05)
    assert risk.min() >= -0.1 and risk.max() <= 1.0
    assert amb.min() >= -2.0 and amb.max() <= 2.0
    # the floor carries at least half the mass, as in the target sample
    assert np.median(risk) == pytest.approx(-0.1)


def test_covariate_ranges():
    covs = synth_covariates(2000, seed=7)
    assert all(1 <= c.education <= 5 for c in covs)
    assert all(18 <= c.age <= 74 for c in covs)
    assert all(0 <= c.crt <= 3 for c in covs)
    assert all(1 <= c.number_actions <= 11 for c in covs)
    assert all(c.female in (0, 1) for c in covs)


def test_covariate_means_roughly_on_target():
    covs = synth_covariates(10_000, seed=13)
    assert np.mean([c.age for c in covs]) == pytest.approx(43.84, abs=0.6)
    assert np.mean([c.education for c in covs]) == pytest.approx(2.95, abs=0.1)
    assert np.mean([c.crt for c in covs]) == pytest.approx(1.59, abs=0.1)
    assert np.mean([c.female for c in covs]) == pytest.approx(0.52, abs=0.02)


def test_synth_covariates_deterministic():
    assert synth_covariates(50, seed=3) == synth_covariates(50, seed=3)


def test_synth_covariates_validates_n():
    with pytest.raises(ValueError):
        synth_covariates(0)


# --- beliefs ---------------------------------------------------------------------

def test_belief_index_constant():
    assert belief_index(make_cov()) == pytest.approx(9.614)


def test_belief_risk_aversion_gradient():
    lo = belief_index(make_cov(risk_aversion=0.0))
    hi = belief_index(make_cov(risk_aversion=1.0))
    assert lo - hi == pytest.approx(1.220)


def test_gen_belief_noise_free_equals_index():
    cov = make_cov(education=3, altruism=2, gravity=8, number_actions=5, crt=2)
    assert gen_belief(cov, "RR", rng=0, noise_sd=0.0) == pytest.approx(belief_index(cov))


def test_gen_belief_clamped():
    rng = np.random.default_rng(0)
    high = make_cov(altruism=3, gravity=10)
    values = [gen_belief(high, "AA", rng, noise_sd=15.0) for _ in range(200)]
    assert all(0.0 <= v <= 20.0 for v in values)
    assert max(values) == 20.0  # clamp actually binds with huge noise


def test_no_treatment_shift_in_beliefs():
    cov = make_cov(education=2)
    values = {arm: gen_belief(cov, arm, rng=1, noise_sd=0.0) for arm in ARMS}
    assert len(set(values.values())) == 1


@given(belief=st.floats(0, 20))
def test_pivotal_window(belief):
    assert is_pivotal(belief) == (5.0 <= belief < 9.0)


# --- contributions ---------------------------------------------------------------

def test_contribution_index_frozen_example():
    cov = make_cov(age=43.84, crt=1.59, risk_aversion=0.04, ambiguity_aversion=0.02)
    # direct evaluation of the calibrated linear index at the target means
    assert contribution_index(cov, 9.19) == pytest.approx(2.5513, abs=1e-4)


def test_round_to_grid_half_goes_down():
    assert round_to_grid(2.5) == E(2)
    assert round_to_grid(2.51) == E(3)
    assert round_to_grid(2.49) == E(2)
    assert round_to_grid(-1.0) == E(0)
    assert round_to_grid(9.0) == E(5)
    fine = GameSpec(grid_step=Money(50))
    assert round_to_grid(2.25, fine) == Money(200)
    assert round_to_grid(2.30, fine) == Money(250)


def test_fixed_rule_is_constant():
    rule = BehavioralRule(kind="altruist-fixed", fixed_contribution=E(2))
    cov = make_cov()
    assert gen_contribution(cov, "RR", 10.0, rule, rng=0) == E(2)
    assert gen_contribution(cov, "AA", 3.0, rule, rng=99) == E(2)


def test_best_responder_completes_the_low_threshold():
    # risk-neutral subject who expects 4 from others tops the pot up to 5
    rule = BehavioralRule(kind="belief-best-responder")
    cov = make_cov(risk_aversion=0.0)
    assert gen_contribution(cov, "RR", 4.0, rule, rng=0) == E(1)


def test_best_responder_free_rides_when_belief_high():
    rule = BehavioralRule(kind="belief-best-responder")
    cov = make_cov(risk_aversion=0.0)
    assert gen_contribution(cov, "RR", 10.0, rule, rng=0) == E(0)


def test_equilibrium_selector_targets_arm_equilibria():
    rule_max = BehavioralRule(kind="equilibrium-selector", equilibrium_pick="max")
    rule_min = BehavioralRule(kind="equilibrium-selector", equilibrium_pick="min")
    cov = make_cov()
    assert gen_contribution(cov, "AA", 8.0, rule_max, rng=0) == E(2)
    assert gen_contribution(cov, "RR", 8.0, rule_max, rng=0) == E(2)
    assert gen_contribution(cov, "RR", 8.0, rule_min, rng=0) == E(0)
    assert gen_contribution(cov, "AR", 8.0, rule_min, rng=0) == E(1)


def test_paper_rule_noise_free_rounds_index():
    rule = BehavioralRule(noise=False)
    cov = make_cov(age=30, crt=1, risk_aversion=0.0)
    expected = round_to_grid(contribution_index(cov, 9.0))
    assert gen_contribution(cov, "RR", 9.0, rule, rng=0) == expected


def test_rule_validation():
    with pytest.raises(ValueError):
        BehavioralRule(kind="mystery")
    with pytest.raises(ValueError):
        BehavioralRule(equilibrium_pick="median")


# --- payoff realization -----------------------------------------------------------

def test_success_probability_examples():
    assert success_probability(make_scenario("RR"), E(10)) == Fraction(9, 10)
    assert success_probability(make_scenario("AA"), E(9), "pessimistic") == 0
    assert success_probability(make_scenario("RR"), E(0)) == Fraction(1, 10)


def test_success_probability_uniform_averages():
    # threshold 5 or 10 equally likely; met half the time at total 7
    assert success_probability(make_scenario("RR"), E(7)) == Fraction(1, 2)
    # ambiguous both ways: uniform over thresholds and interval midpoints
    assert success_probability(make_scenario("AA"), E(7)) == \
        Fraction(1, 2) * Fraction(9, 10) + Fraction(1, 2) * Fraction(1, 10)


def test_success_probability_optimistic():
    assert success_probability(make_scenario("AA"), E(5), "optimistic") == 1
    assert success_probability(make_scenario("RA"), E(5), "optimistic") == Fraction(9, 10)


def test_draw_threshold_policies():
    rng = np.random.default_rng(0)
    aa = make_scenario("AA")
    assert draw_threshold(aa, "pessimistic", rng) == E(10)
    assert draw_threshold(aa, "optimistic", rng) == E(5)
    rr = make_scenario("RR")
    draws = {draw_threshold(rr, "pessimistic", rng).cents for _ in range(50)}
    assert draws == {500, 1000}  # risk arm ignores the policy


def base_records(contributions, treatment="RR"):
    return [
        SubjectRecord(subject_id=i, treatment=treatment, group_id=i // 5,
                      covariates=make_cov(), belief_others_total=8.0,
                      perception_accuracy=50.0, pivotal=0,
                      contribution=E(c))
        for i, c in enumerate(contributions)
    ]


def test_realize_payoffs_sets_totals_and_earnings():
    records = realize_payoffs(base_records([2, 2, 2, 2, 2]), make_scenario("RR"), seed=4)
    assert all(r.group_total == E(10) for r in records)
    assert all(r.threshold_drawn in (E(5), E(10)) for r in records)
    for r in records:
        assert r.earnings == (E(3) if r.success else E(0))


def test_realize_payoffs_pessimistic_always_fails_below_high_threshold():
    records = base_records([1, 2, 2, 2, 2], treatment="AA")
    for seed in range(10):
        out = realize_payoffs(records, make_scenario("AA"), "pessimistic", seed=seed)
        assert all(r.success == 0 and r.earnings == E(0) for r in out)


def test_realize_payoffs_deterministic():
    records = base_records([1, 2, 3, 4, 5])
    a = realize_payoffs(records, make_scenario("AR"), seed=12)
    b = realize_payoffs(records, make_scenario("AR"), seed=12)
    assert a == b


# --- pipeline ----------------------------------------------------------------------

def test_minimal_run_single_group():
    config = SimConfig(n_subjects=5, arms=("RR",))
    records = run_experiment(config, seed=2)
    assert len(records) == 5
    assert len({r.group_id for r in records}) == 1
    assert all(r.treatment == "RR" for r in records)


def test_groups_match_the_game_size():
    config = SimConfig(n_subjects=120, game=GameSpec(n_players=3))
    assert config.group_size == 3
    groups = {}
    for r in run_experiment(config, seed=4):
        groups.setdefault(r.group_id, []).append(r)
    assert len(groups) == 40
    assert all(len(members) == 3 for members in groups.values())
    assert all(len({m.treatment for m in members}) == 1 for members in groups.values())


def test_beliefs_stay_within_what_the_others_can_give():
    # Two others with endowment 5 can give at most 10 between them.
    game = GameSpec(n_players=3)
    beliefs = [r.belief_others_total
               for r in run_experiment(SimConfig(n_subjects=120, game=game), seed=4)]
    assert max(beliefs) == 10.0  # the clamp binds in this run
    assert all(0.0 <= b <= 10.0 for b in beliefs)
    cov = make_cov(altruism=3, gravity=10)
    assert gen_belief(cov, "RR", rng=0, noise_sd=0.0, game=game) == 10.0


def test_run_experiment_deterministic_csv():
    config = SimConfig(n_subjects=100)
    a = records_to_dataset(run_experiment(config, seed=5)).to_csv_text("h")
    b = records_to_dataset(run_experiment(config, seed=5)).to_csv_text("h")
    assert a == b
    c = records_to_dataset(run_experiment(config, seed=6)).to_csv_text("h")
    assert a != c


def test_dataset_schema_order():
    records = run_experiment(SimConfig(n_subjects=20), seed=1)
    dataset = records_to_dataset(records)
    assert tuple(dataset.columns) == CSV_COLUMNS
    header = dataset.to_csv_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_pivotal_flag_consistent_on_emitted_rows():
    records = run_experiment(SimConfig(n_subjects=200), seed=8)
    for r in records:
        assert r.pivotal == int(5.0 <= r.belief_others_total < 9.0)


def test_group_totals_consistent():
    records = run_experiment(SimConfig(n_subjects=200), seed=9)
    groups = {}
    for r in records:
        groups.setdefault(r.group_id, []).append(r)
    for members in groups.values():
        total = sum((m.contribution for m in members), Money(0))
        assert all(m.group_total == total for m in members)
        assert len({m.success for m in members}) == 1


def test_injected_arm_effect_shifts_means():
    base = run_experiment(SimConfig(n_subjects=1500), seed=3)
    shifted = run_experiment(
        SimConfig(n_subjects=1500, arm_effects=(("AA", 1.0),)), seed=3)

    def arm_mean(records, arm):
        values = [r.contribution.euros for r in records if r.treatment == arm]
        return sum(values) / len(values)

    assert arm_mean(shifted, "AA") - arm_mean(base, "AA") > 0.5
    assert abs(arm_mean(shifted, "RR") - arm_mean(base, "RR")) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(resolution_policy="hopeful")
    with pytest.raises(ValueError):
        SimConfig(arms=("RR", "XX"))
