import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from thresholdgame.data import CSV_COLUMNS
from thresholdgame.game import ARMS, TREATMENTS, GameSpec, make_scenario
from thresholdgame.money import Money
from thresholdgame.simulator import (
    COVARIATES,
    N_NORMALS,
    RESOLUTION_POLICIES,
    SUBJECT_ROW,
    BehavioralRule,
    SimConfig,
    _arm_curve,
    belief_index,
    contribution_index,
    draw_covariates,
    draws,
    gen_belief,
    gen_contribution,
    is_pivotal,
    normals,
    randomize,
    realize_payoffs,
    records_to_dataset,
    round_to_grid,
    run_experiment,
    simulate,
    success_probability,
)

E = Money.from_euros


def make_cov(n=1, **overrides) -> dict[str, np.ndarray]:
    """Covariate columns of ``n`` identical subjects, zero unless overridden."""
    return {name: np.full(n, float(overrides.get(name, 0.0))) for name in COVARIATES}


def covariates(n: int, seed: int) -> dict[str, np.ndarray]:
    u = draws(seed, "subject", 0, n)
    return draw_covariates(normals(u), u)


def subject_column(seed: int, n: int, name: str) -> np.ndarray:
    """The standard normal (or uniform) a subject row feeds into ``name``."""
    u = draws(seed, "subject", 0, n)
    j = SUBJECT_ROW.index(name)
    return normals(u)[:, j] if j < N_NORMALS else u[:, j]


def contribute(cov, treatment, belief, rule, game=GameSpec(), shift=0.0):
    """One contribution per subject in cents, with the noise draws of seed 0."""
    n = len(belief)
    return gen_contribution(cov, np.array(treatment), np.asarray(belief, dtype=float), rule,
                            subject_column(0, n, "contribution_noise"),
                            subject_column(0, n, "noise_component"), game, shift)


# --- random streams ----------------------------------------------------------------

@pytest.mark.parametrize("stream", ["subject", "group"])
def test_draws_are_partition_invariant(stream):
    whole = draws(17, stream, 0, 1500)
    split = np.vstack([draws(17, stream, 0, 700), draws(17, stream, 700, 1500)])
    assert whole.tobytes() == split.tobytes()
    assert whole.shape[1] % 4 == 0  # a row is whole Philox counter steps
    assert whole.min() >= 0.0 and whole.max() < 1.0
    assert abs(whole.mean() - 0.5) < 0.01


def test_normals_are_standard():
    z = normals(draws(5, "subject", 0, 20_000))
    assert z.shape == (20_000, N_NORMALS)
    assert np.abs(z.mean(axis=0)).max() < 0.03
    assert np.abs(z.std(axis=0) - 1.0).max() < 0.03
    assert abs(np.corrcoef(z[:, 0], z[:, 1])[0, 1]) < 0.03  # the pair's cos and sin


def test_subject_draws_deterministic():
    assert draws(3, "subject", 0, 50).tobytes() == draws(3, "subject", 0, 50).tobytes()
    assert draws(3, "subject", 0, 50).tobytes() != draws(4, "subject", 0, 50).tobytes()
    a, b = covariates(50, 3), covariates(50, 3)
    assert all(a[name].tobytes() == b[name].tobytes() for name in COVARIATES)


def test_simulation_size_validated():
    with pytest.raises(ValueError):
        SimConfig(n_subjects=0)
    with pytest.raises(ValueError):
        draws(0, "subject", 5, 4)


# --- randomization ---------------------------------------------------------------

def test_randomize_balanced_counts():
    subject_id, treatment, _ = randomize(1500, seed=11)
    assert {arm: int((treatment == arm).sum()) for arm in ARMS} == {arm: 375 for arm in ARMS}
    assert subject_id.tolist() == list(range(1500))


def test_randomize_minimal_case_one_group_per_arm():
    _, treatment, group_id = randomize(20, seed=5)
    groups = {(t, g) for t, g in zip(treatment.tolist(), group_id.tolist())}
    assert len(groups) == 4
    assert np.bincount(group_id).tolist() == [5, 5, 5, 5]


def test_randomize_deterministic():
    a, b, c = randomize(100, seed=9), randomize(100, seed=9), randomize(100, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_randomize_group_size_violation():
    with pytest.raises(ValueError) as randomize_error:
        randomize(23, seed=1)
    # SimConfig rejects the same count with the same message when it is
    # built, not later inside simulate.
    with pytest.raises(ValueError) as config_error:
        SimConfig(n_subjects=23)
    assert str(config_error.value) == str(randomize_error.value)
    with pytest.raises(ValueError):
        SimConfig(n_subjects=20, arms=())


def test_randomize_groups_do_not_straddle_arms():
    _, treatment, group_id = randomize(200, seed=3)
    by_group = {}
    for t, g in zip(treatment.tolist(), group_id.tolist()):
        by_group.setdefault(g, set()).add(t)
    assert all(len(arms) == 1 for arms in by_group.values())


# --- covariates ------------------------------------------------------------------

def test_covariate_moments_match_targets():
    covs = covariates(10_000, seed=42)
    risk, amb = covs["risk_aversion"], covs["ambiguity_aversion"]
    assert risk.mean() == pytest.approx(0.04, abs=0.02)
    assert np.corrcoef(risk, amb)[0, 1] == pytest.approx(-0.41, abs=0.05)
    assert risk.min() >= -0.1 and risk.max() <= 1.0
    assert amb.min() >= -2.0 and amb.max() <= 2.0
    # the floor carries at least half the mass, as in the target sample
    assert np.median(risk) == pytest.approx(-0.1)


def test_covariate_ranges():
    covs = covariates(2000, seed=7)
    assert np.all((1 <= covs["education"]) & (covs["education"] <= 5))
    assert np.all((18 <= covs["age"]) & (covs["age"] <= 74))
    assert np.all((0 <= covs["crt"]) & (covs["crt"] <= 3))
    assert np.all((1 <= covs["number_actions"]) & (covs["number_actions"] <= 11))
    assert set(covs["female"].tolist()) <= {0.0, 1.0}
    assert all(np.array_equal(v, np.rint(v)) for name, v in covs.items()
               if name not in ("risk_aversion", "ambiguity_aversion"))


def test_covariate_means_roughly_on_target():
    covs = covariates(10_000, seed=13)
    assert covs["age"].mean() == pytest.approx(43.84, abs=0.6)
    assert covs["education"].mean() == pytest.approx(2.95, abs=0.1)
    assert covs["crt"].mean() == pytest.approx(1.59, abs=0.1)
    assert covs["female"].mean() == pytest.approx(0.52, abs=0.02)


# --- beliefs ---------------------------------------------------------------------

def test_belief_index_constant():
    assert belief_index(make_cov()) == pytest.approx(9.614)


def test_belief_risk_aversion_gradient():
    lo = belief_index(make_cov(risk_aversion=0.0))
    hi = belief_index(make_cov(risk_aversion=1.0))
    assert lo - hi == pytest.approx(1.220)


def test_gen_belief_noise_free_equals_index():
    cov = make_cov(education=3, altruism=2, gravity=8, number_actions=5, crt=2)
    assert gen_belief(cov, np.zeros(1)) == pytest.approx(belief_index(cov))


def test_gen_belief_clamped():
    high = make_cov(200, altruism=3, gravity=10)
    values = gen_belief(high, 6.0 * subject_column(0, 200, "belief_noise"))  # sd 15
    assert np.all((0.0 <= values) & (values <= 20.0))
    assert values.max() == 20.0  # clamp actually binds with huge noise


def test_no_treatment_shift_in_beliefs():
    # Beliefs are rebuilt bit for bit from covariates and noise alone, and an
    # injected contribution effect leaves them unchanged.
    data = simulate(SimConfig(n_subjects=200), seed=1)
    order = data.numeric("subject_id").astype(int)
    cov = {name: data.numeric(name) for name in COVARIATES}
    noise = subject_column(1, 200, "belief_noise")[order]
    assert gen_belief(cov, noise).tobytes() == data.numeric("belief").tobytes()
    shifted = simulate(SimConfig(n_subjects=200, arm_effects=(("AA", 1.0),)), seed=1)
    assert shifted.numeric("belief").tobytes() == data.numeric("belief").tobytes()


@given(belief=st.floats(0, 20))
def test_pivotal_window(belief):
    assert bool(is_pivotal(belief)) == (5.0 <= belief < 9.0)
    assert is_pivotal(np.array([belief])).tolist() == [5.0 <= belief < 9.0]


# --- contributions ---------------------------------------------------------------

def test_contribution_index_frozen_example():
    cov = make_cov(age=43.84, crt=1.59, risk_aversion=0.04, ambiguity_aversion=0.02)
    # direct evaluation of the calibrated linear index at the target means
    assert contribution_index(cov, 9.19) == pytest.approx(2.5513, abs=1e-4)


def test_round_to_grid_half_goes_down():
    assert round_to_grid([2.5, 2.51, 2.49, -1.0, 9.0]).tolist() == [200, 300, 200, 0, 500]
    fine = GameSpec(grid_step=Money(50))
    assert round_to_grid([2.25, 2.30], fine).tolist() == [200, 250]


def test_fixed_rule_is_constant():
    rule = BehavioralRule(kind="altruist-fixed", fixed_contribution=E(2))
    assert contribute(make_cov(2), ["RR", "AA"], [10.0, 3.0], rule).tolist() == [200, 200]


def test_best_responder_completes_the_low_threshold():
    # risk-neutral subject who expects 4 from others tops the pot up to 5
    rule = BehavioralRule(kind="belief-best-responder")
    assert contribute(make_cov(risk_aversion=0.0), ["RR"], [4.0], rule).tolist() == [100]


def test_best_responder_free_rides_when_belief_high():
    rule = BehavioralRule(kind="belief-best-responder")
    assert contribute(make_cov(risk_aversion=0.0), ["RR"], [10.0], rule).tolist() == [0]


def _scalar_best_response(risk, belief, curve, game):
    """The per-subject loop the payoff array replaced: the lowest contribution
    within 1e-12 of the best payoff."""
    rho = max(1.0 - risk, 0.05)
    values = []
    for c in game.contribution_grid():
        total = min(c.euros + belief, curve.domain_max.euros)
        cents = Money(math.floor(total * 100 + 1e-9))  # the cent below, binary error absorbed
        values.append(((game.endowment - c).euros ** rho * float(curve.value_at(cents)),
                       c.cents))
    best = max(v for v, _ in values)
    return next(c for v, c in values if v >= best - 1e-12)


@pytest.mark.parametrize("step", ["1.00", "0.50"])
def test_best_responder_matches_the_scalar_rule(step):
    game = GameSpec(grid_step=Money.parse(step))
    cov = covariates(400, seed=6)
    belief = gen_belief(cov, subject_column(6, 400, "belief_noise"))
    belief[:8] = [0.0, 4.0, 5.0, 9.5, 10.0, 15.0, 20.0, 4.999]  # step edges
    treatment = np.array(ARMS * 100)
    rule = BehavioralRule(kind="belief-best-responder")
    got = contribute(cov, treatment, belief, rule, game).tolist()
    want = [_scalar_best_response(r, b, _arm_curve(t, 1.0, game), game)
            for r, b, t in zip(cov["risk_aversion"].tolist(), belief.tolist(),
                               treatment.tolist())]
    assert got == want
    assert len(set(got)) > 1


def test_equilibrium_selector_targets_arm_equilibria():
    rule_max = BehavioralRule(kind="equilibrium-selector", equilibrium_pick="max")
    rule_min = BehavioralRule(kind="equilibrium-selector", equilibrium_pick="min")
    cov, belief = make_cov(2), [8.0, 8.0]
    assert contribute(cov, ["AA", "RR"], belief, rule_max).tolist() == [200, 200]
    assert contribute(cov, ["RR", "AR"], belief, rule_min).tolist() == [0, 100]


def test_paper_rule_noise_free_rounds_index():
    rule = BehavioralRule(noise=False)
    cov = make_cov(age=30, crt=1, risk_aversion=0.0)
    expected = round_to_grid(contribution_index(cov, np.array([9.0])))
    assert contribute(cov, ["RR"], [9.0], rule).tolist() == expected.tolist()


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


def groups_of(contributions, treatment="RR", n_groups=1):
    """Columns of ``n_groups`` groups of five with the given contributions (euros)."""
    n = 5 * n_groups
    return (np.full(n, treatment), np.arange(n) // 5,
            np.tile(np.array(contributions) * 100, n_groups))


def test_draw_threshold_policies():
    aa = groups_of([1, 1, 1, 1, 1], "AA", n_groups=50)
    assert set(realize_payoffs(*aa, "pessimistic")["threshold_drawn"].tolist()) == {1000}
    assert set(realize_payoffs(*aa, "optimistic")["threshold_drawn"].tolist()) == {500}
    rr = groups_of([1, 1, 1, 1, 1], "RR", n_groups=50)
    drawn = realize_payoffs(*rr, "pessimistic")["threshold_drawn"]
    assert set(drawn.tolist()) == {500, 1000}  # risk arm ignores the policy


def test_realize_payoffs_sets_totals_and_earnings():
    treatment, group_id, contribution = groups_of([2, 2, 2, 2, 2])
    out = realize_payoffs(treatment, group_id, contribution, seed=4)
    assert out["group_total"].tolist() == [1000] * 5
    assert set(out["threshold_drawn"].tolist()) <= {500, 1000}
    assert out["earnings"].tolist() == [300 * int(s) for s in out["success"].tolist()]


def test_realize_payoffs_pessimistic_always_fails_below_high_threshold():
    for seed in range(10):
        out = realize_payoffs(*groups_of([1, 2, 2, 2, 2], "AA"), "pessimistic", seed=seed)
        assert out["success"].tolist() == [0] * 5 and out["earnings"].tolist() == [0] * 5


def test_realize_payoffs_deterministic():
    columns = groups_of([1, 2, 3, 4, 5], "AR", n_groups=20)
    a = realize_payoffs(*columns, seed=12)
    b = realize_payoffs(*columns, seed=12)
    assert all(np.array_equal(a[name], b[name]) for name in a)


def test_realized_success_rate_matches_success_probability():
    # Each count of successes among n groups at a fixed total is
    # Binomial(n, success_probability).  The two-sided bar is the exact
    # binomial quantile pair at a 1% family-wise false-alarm rate, split over
    # every (arm, policy, total) cell.
    n, totals = 4000, (0, 5, 7, 10, 12)
    cells = [(arm, policy, t) for arm in TREATMENTS for policy in RESOLUTION_POLICIES
             for t in totals]
    tail = 0.01 / len(cells) / 2
    for arm, policy, t in cells:
        out = realize_payoffs(np.full(n, arm), np.arange(n), np.full(n, t * 100), policy,
                              seed=21)
        p = float(success_probability(make_scenario(arm), E(t), policy))
        lo, hi = stats.binom.ppf(tail, n, p), stats.binom.isf(tail, n, p)
        assert lo <= out["success"].sum() <= hi, (arm, policy, t, p, out["success"].sum())


# --- pipeline ----------------------------------------------------------------------

ADAPTER_CONFIGS = {
    "null": SimConfig(n_subjects=200),
    "arm_effect": SimConfig(n_subjects=200, arm_effects=(("AA", 0.5),)),
    "best_responder": SimConfig(n_subjects=200,
                                rule=BehavioralRule(kind="belief-best-responder")),
    "pessimistic": SimConfig(n_subjects=200, resolution_policy="pessimistic"),
    "equilibrium_selector": SimConfig(n_subjects=200,
                                      rule=BehavioralRule(kind="equilibrium-selector")),
    "altruist": SimConfig(n_subjects=200, rule=BehavioralRule(kind="altruist-fixed")),
}


@pytest.mark.parametrize("name", sorted(ADAPTER_CONFIGS))
def test_record_adapters_reproduce_simulate_bit_for_bit(name):
    config = ADAPTER_CONFIGS[name]
    columns = simulate(config, 8).columns
    records = run_experiment(config, 8)
    assert all(isinstance(r.contribution, Money) and isinstance(r.earnings, Money)
               for r in records)
    again = records_to_dataset(records).columns
    assert list(again) == list(columns)
    for column, values in columns.items():
        assert values.dtype == again[column].dtype, column
        assert values.tobytes() == again[column].tobytes(), column


def test_minimal_run_single_group():
    data = simulate(SimConfig(n_subjects=5, arms=("RR",)), seed=2)
    assert len(data) == 5
    assert set(data.numeric("group_id").tolist()) == {0.0}
    assert set(data.strings("treatment").tolist()) == {"RR"}


def test_groups_match_the_game_size():
    config = SimConfig(n_subjects=120, game=GameSpec(n_players=3))
    assert config.group_size == 3
    data = simulate(config, seed=4)
    group_id = data.numeric("group_id").astype(int)
    assert np.bincount(group_id).tolist() == [3] * 40
    arms = data.strings("treatment")
    assert all(len(set(arms[group_id == g].tolist())) == 1 for g in range(40))


def test_beliefs_stay_within_what_the_others_can_give():
    # Two others with endowment 5 can give at most 10 between them.
    game = GameSpec(n_players=3)
    beliefs = simulate(SimConfig(n_subjects=120, game=game), seed=4).numeric("belief")
    assert beliefs.max() == 10.0  # the clamp binds in this run
    assert np.all((0.0 <= beliefs) & (beliefs <= 10.0))
    cov = make_cov(altruism=3, gravity=10)
    assert gen_belief(cov, np.zeros(1), game=game).tolist() == [10.0]


def test_run_experiment_deterministic_csv(tmp_path):
    config = SimConfig(n_subjects=100)

    def csv_bytes(seed):
        path = tmp_path / f"seed{seed}.csv"
        simulate(config, seed).write_csv(path, "h")
        return path.read_bytes()

    a = csv_bytes(5)
    assert a == csv_bytes(5)
    assert a != csv_bytes(6)
    assert run_experiment(config, seed=5) == run_experiment(config, seed=5)


def test_dataset_schema_order(tmp_path):
    dataset = simulate(SimConfig(n_subjects=20), seed=1)
    assert tuple(dataset.columns) == CSV_COLUMNS
    dataset.write_csv(tmp_path / "out.csv")
    header = (tmp_path / "out.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_pivotal_flag_consistent_on_emitted_rows():
    data = simulate(SimConfig(n_subjects=200), seed=8)
    belief = data.numeric("belief")
    assert data.numeric("pivotal").tolist() == ((5.0 <= belief) & (belief < 9.0)).tolist()


def test_group_totals_consistent():
    data = simulate(SimConfig(n_subjects=200), seed=9)
    group_id = data.numeric("group_id").astype(int)
    cents = {name: np.rint(data.numeric(name) * 100).astype(int)
             for name in ("contribution", "group_total")}
    success = data.numeric("success")
    for g in range(group_id.max() + 1):
        members = group_id == g
        assert set(cents["group_total"][members].tolist()) == \
            {int(cents["contribution"][members].sum())}
        assert len(set(success[members].tolist())) == 1


def test_injected_arm_effect_shifts_means():
    base = simulate(SimConfig(n_subjects=1500), seed=3)
    shifted = simulate(SimConfig(n_subjects=1500, arm_effects=(("AA", 1.0),)), seed=3)

    def arm_mean(data, arm):
        return data.numeric("contribution")[data.strings("treatment") == arm].mean()

    assert arm_mean(shifted, "AA") - arm_mean(base, "AA") > 0.5
    assert abs(arm_mean(shifted, "RR") - arm_mean(base, "RR")) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(resolution_policy="hopeful")
    with pytest.raises(ValueError):
        SimConfig(arms=("RR", "XX"))


def test_config_rejects_effects_for_arms_not_run():
    # An effect on an arm nobody is assigned to would change nothing, silently.
    with pytest.raises(ValueError, match="XX"):
        SimConfig(arm_effects=(("XX", 3.0),))
    with pytest.raises(ValueError, match="AA"):
        SimConfig(arms=("RR", "AR"), risk_slope_by_arm=(("RR", -0.3), ("AA", -0.5)))
    SimConfig(arms=("RR", "AA"), arm_effects=(("AA", 0.5),), risk_slope_by_arm=(("RR", -0.3),))
