import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import exact_polarization_p, ols_hc1_pivoted, polarization_p
from scipy import stats

from thresholdgame import econometrics
from thresholdgame.data import Dataset
from thresholdgame.econometrics import (
    BALANCE_COVARIATES,
    RankDeficientError,
    analysis_battery,
    ate_report,
    balance_table,
    beliefs_model,
    build_design,
    contribution_model,
    interaction_model,
    mde,
    ols_hc1,
    pivotal_model,
    polarization,
)
from thresholdgame import simulator
from thresholdgame.simulator import SimConfig


def simulate(seed, **config):
    return simulator.simulate(SimConfig(**config), seed)


def toy_dataset(x, y, treatment=None):
    n = len(x)
    cols = {"x": list(x), "y": list(y)}
    cols["treatment"] = list(treatment) if treatment else ["RR"] * n
    return Dataset(cols)


# --- core OLS -------------------------------------------------------------------

def test_noiseless_fit_recovers_exactly():
    x = [0.0, 1.0, 2.0, 3.0, 4.0]
    y = [2.0 + 3.0 * v for v in x]
    result = ols_hc1(build_design(toy_dataset(x, y), "y", ["x"]))
    assert result.coef("const") == pytest.approx(2.0, abs=1e-12)
    assert result.coef("x") == pytest.approx(3.0, abs=1e-12)
    assert result.se("const") == pytest.approx(0.0, abs=1e-10)
    assert result.se("x") == pytest.approx(0.0, abs=1e-10)
    assert result.r_squared == pytest.approx(1.0)


def hand_sandwich(xs, ys):
    """Independent exact-rational implementation of the HC1 sandwich for
    a two-column design [1, x]."""
    n = len(xs)
    k = 2
    xs = [Fraction(v) for v in xs]
    ys = [Fraction(v) for v in ys]
    sxx = sum(v * v for v in xs)
    sx = sum(xs)
    det = n * sxx - sx * sx
    inv = [[sxx / det, -sx / det], [-sx / det, Fraction(n) / det]]
    xty = [sum(ys), sum(x * y for x, y in zip(xs, ys))]
    beta = [inv[0][0] * xty[0] + inv[0][1] * xty[1],
            inv[1][0] * xty[0] + inv[1][1] * xty[1]]
    resid = [y - beta[0] - beta[1] * x for x, y in zip(xs, ys)]
    meat = [[sum(e * e for e in resid), sum(e * e * x for e, x in zip(resid, xs))],
            [sum(e * e * x for e, x in zip(resid, xs)),
             sum(e * e * x * x for e, x in zip(resid, xs))]]
    def matmul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2)]
                for i in range(2)]
    cov = matmul(matmul(inv, meat), inv)
    scale = Fraction(n, n - k)
    cov = [[scale * cov[i][j] for j in range(2)] for i in range(2)]
    return beta, cov


def test_hc1_matches_hand_computed_sandwich():
    x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    y = [1.0, 3.0, 2.0, 6.0, 4.0, 9.0]
    beta, cov = hand_sandwich(x, y)
    result = ols_hc1(build_design(toy_dataset(x, y), "y", ["x"]))
    assert result.coef("const") == pytest.approx(float(beta[0]), abs=1e-10)
    assert result.coef("x") == pytest.approx(float(beta[1]), abs=1e-10)
    assert result.se("const") == pytest.approx(math.sqrt(float(cov[0][0])), abs=1e-10)
    assert result.se("x") == pytest.approx(math.sqrt(float(cov[1][1])), abs=1e-10)
    assert result.covariance[0][1] == pytest.approx(float(cov[0][1]), abs=1e-10)


def test_default_dataset_recovers_embedded_coefficients():
    # the generator embeds the belief slope 0.170; the fitted slope lands
    # within +-0.02 and risk aversion stays negative and significant
    data = simulate(3)
    model = contribution_model(data)
    assert model.coef("belief") == pytest.approx(0.170, abs=0.02)
    assert model.coef("risk_aversion") < 0
    assert abs(model.coef("risk_aversion") / model.se("risk_aversion")) > 1.96


def test_beliefs_model_recovers_embedded_coefficients():
    data = simulate(0)
    model = beliefs_model(data)
    assert model.coef("risk_aversion") == pytest.approx(-1.220, abs=2 * model.se("risk_aversion"))
    assert model.coef("crt") == pytest.approx(-0.636, abs=2 * model.se("crt"))
    assert model.coef("education") == pytest.approx(-0.286, abs=2 * model.se("education"))


def test_rank_deficiency_reports_offenders():
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    data = Dataset({"x": x, "x2": [2 * v for v in x], "y": [1.0] * 6})
    with pytest.raises(RankDeficientError) as exc:
        ols_hc1(build_design(data, "y", ["x", "x2"]))
    assert set(exc.value.columns) & {"x", "x2", "const"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_battery_models_match_the_pivoted_qr_oracle(monkeypatch, seed):
    # The oracle's p-values are scipy's normal tail at its own z.
    fits, fitted = [], econometrics.ols_hc1

    def recording_ols(design):
        fits.append((design, ols_hc1_pivoted(design)))
        return fitted(design)

    monkeypatch.setattr(econometrics, "ols_hc1", recording_ols)
    data = simulate(seed, n_subjects=400)
    results = [rows for name, rows, _ in analysis_battery(data)
               if name not in ("balance", "polarization", "histogram")]
    assert len(results) == len(fits) == 6
    for rows, (design, (beta, se, p)) in zip(results, fits):
        assert [r["term"] for r in rows] == design.columns
        for key, expected in (("coefficient", beta), ("robust_se", se), ("p_value", p)):
            np.testing.assert_allclose([r[key] for r in rows], expected, rtol=1e-10, atol=0)


def test_listwise_deletion():
    data = Dataset({"x": [1.0, 2.0, "", 4.0], "y": [1.0, "", 3.0, 4.0]})
    design = build_design(data, "y", ["x"])
    assert design.n_obs == 2 and design.n_dropped == 2


def test_residuals_orthogonal_to_regressors():
    rng = np.random.default_rng(5)
    n = 500
    x1, x2 = rng.normal(size=n), rng.normal(size=n)
    y = 1 + x1 - 2 * x2 + rng.normal(size=n)
    data = Dataset({"x1": x1.tolist(), "x2": x2.tolist(), "y": y.tolist()})
    design = build_design(data, "y", ["x1", "x2"])
    result = ols_hc1(design)
    beta = np.array([result.coef(c) for c in result.columns])
    resid = design.y - design.X @ beta
    scale = np.abs(design.X).max() * np.abs(design.y).max() * len(design.y)
    assert np.abs(design.X.T @ resid).max() <= 1e-8 * scale


def test_hc1_converges_to_classical_under_homoskedasticity():
    rng = np.random.default_rng(11)
    n = 100_000
    x = rng.normal(size=n)
    y = 2 + 0.5 * x + rng.normal(size=n)
    design = build_design(Dataset({"x": x.tolist(), "y": y.tolist()}), "y", ["x"])
    result = ols_hc1(design)
    beta = np.array([result.coef(c) for c in result.columns])
    resid = design.y - design.X @ beta
    s2 = resid @ resid / (n - 2)
    classical = np.sqrt(np.diag(s2 * np.linalg.inv(design.X.T @ design.X)))
    for i, c in enumerate(result.columns):
        assert result.se(c) / classical[i] == pytest.approx(1.0, abs=0.05)


def test_covariance_positive_semidefinite():
    data = simulate(4, n_subjects=500)
    result = ate_report(data)
    eigenvalues = np.linalg.eigvalsh(result.covariance)
    assert eigenvalues.min() >= -1e-12
    assert np.allclose(result.covariance, result.covariance.T)


def test_estimation_error_shrinks_at_root_n():
    rng = np.random.default_rng(17)

    def fit_error(n, seed_offset):
        rng_local = np.random.default_rng(1000 + seed_offset)
        x = rng_local.normal(size=n)
        y = 1.0 + 3.0 * x + rng_local.normal(size=n)
        data = Dataset({"x": x.tolist(), "y": y.tolist()})
        return abs(ols_hc1(build_design(data, "y", ["x"])).coef("x") - 3.0)

    small = np.mean([fit_error(800, s) for s in range(30)])
    large = np.mean([fit_error(3200, s + 100) for s in range(30)])
    # quadrupling n should halve the error, up to Monte-Carlo slack
    assert large / small == pytest.approx(0.5, abs=0.2)


# --- balance ---------------------------------------------------------------------

def test_identical_arms_balance_perfectly():
    base = simulate(6, n_subjects=200, arms=("RR",))
    cols = dict(base.columns)
    doubled = {k: list(v) + list(v) for k, v in cols.items()}
    doubled["treatment"] = ["RR"] * 200 + ["AA"] * 200
    table = balance_table(Dataset(doubled), ["age", "education", "crt"])
    assert all(p == pytest.approx(1.0) for p in table.p_values.values())


def test_balance_requires_two_arms():
    data = simulate(6, n_subjects=100, arms=("RR",))
    with pytest.raises(ValueError):
        balance_table(data, ["age"])


def test_null_balance_rejects_at_nominal_rate():
    pvals = []
    for seed in range(15):
        table = balance_table(simulate(seed), BALANCE_COVARIATES)
        pvals.extend(table.p_values.values())
    rate = np.mean(np.array(pvals) < 0.05)
    assert 0.02 <= rate <= 0.08  # 675 roughly-independent null tests


def test_injected_age_shift_detection_rate():
    # Welch power for a 1.5-year shift at 375/arm with age sd ~14 is ~0.31;
    # the simulated detection rate must match that oracle, not the nominal 5%.
    detected = 0
    seeds = range(60)
    for seed in seeds:
        data = simulate(seed)
        arms = data.strings("treatment")
        age = [float(v) + (1.5 if t == "AA" else 0.0)
               for v, t in zip(data.numeric("age"), arms)]
        shifted = Dataset({**{k: list(v) for k, v in data.columns.items()},
                           "age": age})
        table = balance_table(shifted, ["age"])
        if table.p_values[("age", "AA")] < 0.05:
            detected += 1
    rate = detected / len(seeds)
    assert 0.17 <= rate <= 0.47
    assert rate > 0.10  # clearly above the null rejection rate


def welch(a, b):
    """balance_table's p-value for sample ``b`` (arm AA) against ``a`` (RR)."""
    data = Dataset({"x": list(a) + list(b), "treatment": ["RR"] * len(a) + ["AA"] * len(b)})
    return balance_table(data, ["x"]).p_values[("x", "AA")]


def test_welch_p_values_match_scipy():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n_a, n_b = rng.integers(2, 300, size=2)
        a = rng.normal(0.0, rng.uniform(0.1, 3.0), n_a)
        b = rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 3.0), n_b)
        if rng.random() < 0.3:
            a, b = np.round(a), np.round(b)  # ties and small variances
        expected = stats.ttest_ind(a, b, equal_var=False).pvalue
        assert welch(a, b) == pytest.approx(expected, rel=1e-10, abs=1e-300)
    for _ in range(60):  # Welch df 1,000-4,000, as in analyze at n = 6,000
        n_a, n_b = rng.integers(900, 2000, size=2)
        a = rng.normal(0.0, rng.uniform(0.5, 2.0), n_a)
        b = rng.normal(rng.uniform(-0.2, 0.2), rng.uniform(0.5, 2.0), n_b)
        expected = stats.ttest_ind(a, b, equal_var=False).pvalue
        assert welch(a, b) == pytest.approx(expected, rel=2e-12)


@pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")  # scipy, on constant arms
@pytest.mark.parametrize("a, b, expected", [
    ([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], 1.0),        # equal means, one arm constant
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 2.0], 1.0),   # equal means
    ([1.0, 1.0, 1.0], [2.0, 2.0], 0.0),             # both constant, means differ
    ([3.0], [2.0, 3.0, 4.0], math.nan),             # one value: no variance
    ([1.0, 2.0, 3.0, 4.0], [7.0], math.nan),
])
def test_welch_edge_cases_match_scipy(a, b, expected):
    got = welch(a, b)
    assert got == pytest.approx(expected, nan_ok=True)
    assert got == pytest.approx(stats.ttest_ind(a, b, equal_var=False).pvalue, nan_ok=True)


def test_welch_equal_constant_arms_balance():
    # scipy's t is 0/0 here; the table reads two equal constants as balanced.
    assert welch([1.0, 1.0, 1.0], [1.0, 1.0]) == 1.0


def test_balance_render_shape():
    table = balance_table(simulate(2), ["age", "crt"])
    text = table.render()
    assert "Mean_RR" in text.splitlines()[0]
    assert text.splitlines()[1].startswith("age")


def bonferroni_survivors(table, alpha=0.05):
    """Cells still significant after correcting for all comparisons made."""
    return sorted(cell for cell, p in table.p_values.items() if p < alpha / len(table.p_values))


def test_bonferroni_flag():
    # marginal single-test hits on null data do not survive the correction
    table = balance_table(simulate(11), BALANCE_COVARIATES)
    assert bonferroni_survivors(table) == []
    # a gross imbalance does
    data = simulate(11)
    cols = {k: list(v) for k, v in data.columns.items()}
    arms = data.strings("treatment")
    cols["age"] = [float(v) + (30.0 if t == "AA" else 0.0)
                   for v, t in zip(cols["age"], arms)]
    shifted = balance_table(Dataset(cols), BALANCE_COVARIATES)
    assert ("age", "AA") in bonferroni_survivors(shifted)


# --- treatment effects -------------------------------------------------------------

def test_ate_single_arm_rejected():
    data = simulate(5, n_subjects=100, arms=("RR",))
    with pytest.raises(ValueError):
        ate_report(data)


def test_ate_recovers_injected_effect():
    data = simulate(1, arm_effects=(("AA", 0.5),))
    result = ate_report(data)
    # boundary clipping passes ~92% of an injected index shift through
    realized_truth = 0.458
    assert abs(result.coef("AA") - realized_truth) <= 2 * result.se("AA")
    assert 0.25 <= result.coef("AA") <= 0.65
    # untreated arms stay near zero (3 se guards against gross contamination)
    assert abs(result.coef("AR")) <= 3 * result.se("AR")
    assert abs(result.coef("RA")) <= 3 * result.se("RA")


def test_interaction_recovers_arm_specific_slopes():
    slopes = (("RR", -0.700), ("AR", -0.700), ("RA", -0.021), ("AA", 0.114))
    data = simulate(2, risk_slope_by_arm=slopes)
    model = interaction_model(data, "risk_aversion")
    targets = {"risk_aversion": -0.700, "RA_x_risk_aversion": 0.679,
               "AA_x_risk_aversion": 0.814, "AR_x_risk_aversion": 0.0}
    for term, truth in targets.items():
        assert abs(model.coef(term) - truth) <= 2 * model.se(term), term


def test_interaction_rejects_constant_moderator():
    data = simulate(3, n_subjects=200)
    cols = {k: list(v) for k, v in data.columns.items()}
    cols["flat"] = [1.0] * len(data)
    with pytest.raises(RankDeficientError):
        interaction_model(Dataset(cols), "flat")


def test_zero_interaction_null_is_well_calibrated():
    pvals = []
    for seed in range(40):
        model = interaction_model(simulate(seed), "risk_aversion")
        pvals.extend(model.p_values[t] for t in
                     ("AR_x_risk_aversion", "RA_x_risk_aversion", "AA_x_risk_aversion"))
    pvals = np.array(pvals)
    assert np.mean(pvals < 0.05) <= 0.12
    assert 0.35 <= pvals.mean() <= 0.65


# --- pivotal model -----------------------------------------------------------------

def test_pivotal_injection_shows_up_as_difference():
    # The pivotal flag is derived from beliefs, which the specification of
    # this model omits, so its level coefficient carries a belief-channel
    # component even without injection; differencing against the no-injection
    # run isolates the injected effect.  The interaction term is clean.
    base = pivotal_model(simulate(3))
    injected = pivotal_model(simulate(3, pivotal_effects=(-0.315, -0.005)))
    for term, truth in (("pivotal", -0.315), ("pivotal_x_accuracy", -0.005)):
        diff = injected.coef(term) - base.coef(term)
        combined_se = math.hypot(injected.se(term), base.se(term))
        assert abs(diff - truth) <= 2 * combined_se, term
    assert abs(injected.coef("pivotal_x_accuracy") - (-0.005)) \
        <= 2 * injected.se("pivotal_x_accuracy")


def test_pivotal_all_zero_rejected_as_collinear():
    data = simulate(4, n_subjects=300)
    cols = {k: list(v) for k, v in data.columns.items()}
    cols["pivotal"] = [0] * len(data)
    with pytest.raises(RankDeficientError) as exc:
        pivotal_model(Dataset(cols))
    assert set(exc.value.columns) & {"pivotal", "pivotal_x_accuracy"}


def test_shuffled_pivotal_flag_is_null():
    data = simulate(5)
    rng = np.random.default_rng(0)
    cols = {k: list(v) for k, v in data.columns.items()}
    shuffled = list(cols["pivotal"])
    rng.shuffle(shuffled)
    cols["pivotal"] = shuffled
    model = pivotal_model(Dataset(cols))
    assert abs(model.coef("pivotal") / model.se("pivotal")) < 3.0
    assert abs(model.coef("pivotal_x_accuracy") / model.se("pivotal_x_accuracy")) < 3.0


# --- power / MDE ---------------------------------------------------------------------

def test_mde_closed_form():
    report = mde(arms=4, n_per_arm=375, sd=1.39)
    z = 1.9599639845400545 + 0.8416212335729143
    assert report.mde == pytest.approx(z * 1.39 * math.sqrt(2 / 375), abs=1e-12)
    assert report.mde == pytest.approx(0.285, abs=1e-3)


@pytest.mark.parametrize("alpha_level, power_target", [(0.05, 0.8), (0.01, 0.9), (0.1, 0.5)])
def test_mde_quantiles_match_scipy(alpha_level, power_target):
    z = stats.norm.ppf(1 - alpha_level / 2) + stats.norm.ppf(power_target)
    report = mde(2, 100, 1.0, alpha_level, power_target)
    assert report.mde == pytest.approx(z * math.sqrt(2 / 100), rel=1e-14)


def test_mde_scaling_law():
    base = mde(2, 375, 1.39).mde
    doubled = mde(2, 750, 1.39).mde
    assert doubled == pytest.approx(base / math.sqrt(2), rel=1e-12)


def test_mde_power_half_definition():
    report = mde(2, 375, 1.39, power_target=0.5, mc_replications=4000, seed=3)
    assert report.mc_rejection_rate == pytest.approx(0.5, abs=0.03)


def test_mde_monte_carlo_confirms_power():
    report = mde(2, 375, 1.39, mc_replications=4000, seed=1)
    assert report.mc_rejection_rate == pytest.approx(0.80, abs=0.03)


def test_mde_validates_inputs():
    with pytest.raises(ValueError):
        mde(0, 100, 1.0)
    with pytest.raises(ValueError):
        mde(2, 100, -1.0)
    with pytest.raises(ValueError):
        mde(2, 100, 1.0, alpha_level=1.5)


# --- polarization ----------------------------------------------------------------------

def test_polarization_equal_distributions():
    rng = np.random.default_rng(2)
    values = rng.normal(2.5, 1.0, size=400).clip(0, 5).round(2)  # money is whole cents
    data = Dataset({
        "treatment": ["RR"] * 200 + ["RA"] * 200,
        "contribution": values.tolist(),
    })
    report = polarization(data, "RA", "RR", permutations=499)
    assert report.variance_ratio == pytest.approx(1.0, abs=0.35)
    assert report.p_value > 0.05


def test_polarization_flags_bimodal_arm():
    rng = np.random.default_rng(3)
    unimodal = rng.normal(2.5, 0.4, size=300).clip(0, 5).round(2)
    bimodal = np.concatenate([np.zeros(150), np.full(150, 5.0)])
    data = Dataset({
        "treatment": ["RR"] * 300 + ["RA"] * 300,
        "contribution": unimodal.tolist() + bimodal.tolist(),
    })
    report = polarization(data, "RA", "RR", permutations=499)
    assert report.variance_a > report.variance_b
    assert report.p_value < 0.01
    assert report.share_zero_a == pytest.approx(0.5)
    assert report.share_max_a == pytest.approx(0.5)


def test_polarization_null_on_default_data():
    report = polarization(simulate(7), "RA", "RR", permutations=299)
    assert report.p_value > 0.05


def expand(counts):
    return [float(v) for v, k in counts for _ in range(k)]


#: Tie-heavy splits: (arm a, arm b) as (level, count) pairs, mostly equal arm
#: sizes, where every split's mirror image ties it.
TIE_CASES = {
    "two_levels": (((0, 13), (5, 7)), ((0, 11), (5, 13))),
    "rare_middle": (((0, 18), (0.5, 1), (5, 1)), ((0, 17), (0.5, 1), (5, 2))),
    "mostly_zero": (((0, 25), (1, 1), (5, 4)), ((0, 27), (1, 1), (5, 2))),
    "mostly_max": (((0, 3), (1, 2), (5, 15)), ((0, 1), (1, 1), (5, 18))),
    "three_levels": (((0, 10), (0.5, 9), (5, 1)), ((0, 11), (0.5, 7), (5, 2))),
}


@pytest.mark.parametrize("case", TIE_CASES)
def test_polarization_counts_exact_ties(case):
    a, b = (expand(arm) for arm in TIE_CASES[case])
    exact = float(exact_polarization_p(a, b))
    data = Dataset({"treatment": ["RA"] * len(a) + ["RR"] * len(b), "contribution": a + b})
    n = 20_000
    hits = round(polarization(data, "RA", "RR", permutations=n).p_value * (n + 1)) - 1
    # Two-sided binomial band around the exact p; family-wise level 1e-3 over the cases.
    level = 1e-3 / len(TIE_CASES) / 2
    assert stats.binom.ppf(level, n, exact) <= hits <= stats.binom.isf(level, n, exact)


@pytest.mark.parametrize("n_subjects", [1500, 6000])
def test_polarization_matches_the_per_split_oracle_on_simulated_data(n_subjects):
    data = simulator.simulate(SimConfig(n_subjects=n_subjects), seed=11)
    for arm in ("AR", "RA", "AA"):
        assert polarization(data, arm, "RR").p_value == polarization_p(data, arm, "RR")


@pytest.mark.parametrize("case", TIE_CASES)
@pytest.mark.parametrize("permutations", [999, 20_000])
def test_polarization_matches_the_per_split_oracle_on_ties(case, permutations):
    a, b = (expand(arm) for arm in TIE_CASES[case])
    data = Dataset({"treatment": ["RA"] * len(a) + ["RR"] * len(b), "contribution": a + b})
    assert (polarization(data, "RA", "RR", permutations=permutations).p_value
            == polarization_p(data, "RA", "RR", permutations=permutations))


def test_polarization_matches_the_per_split_oracle_with_a_constant_arm():
    # The observed arm A is constant, so only splits with a constant arm count.
    a, b = [1.0] * 3, [1.0] * 6 + [0.0, 5.0]
    data = Dataset({"treatment": ["RA"] * 3 + ["RR"] * 8, "contribution": a + b})
    p = polarization(data, "RA", "RR").p_value
    assert p == polarization_p(data, "RA", "RR")
    assert 0.3 < p < 0.8  # C(9,3)/C(11,3) of the splits leave arm A constant


def test_polarization_rejects_a_range_too_wide_for_exact_sums():
    # Squared cents summed over 4 values pass 2**63 at a range of 1.6e9 cents.
    data = Dataset({"treatment": ["RR", "RR", "RA", "RA"],
                    "contribution": [0.0, 1.0, 2.0, 16_000_000.0]})
    with pytest.raises(ValueError, match="range"):
        polarization(data, "RA", "RR")


def test_polarization_needs_data():
    data = Dataset({"treatment": ["RR", "RA"], "contribution": [1.0, 2.0]})
    with pytest.raises(ValueError):
        polarization(data, "RA", "RR")
