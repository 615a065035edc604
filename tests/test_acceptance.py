"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured numbers (run with -s to see them).

Criterion 6's per-arm bar is the exact lower binomial quantile of its count at
the nominal two-SE rate, for a 1% family-wise false-alarm rate over the arms.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from oracles import check_condition

from thresholdgame.cli import main as cli_main
from thresholdgame.data import Dataset
from thresholdgame.econometrics import (
    ate_report,
    build_design,
    contribution_model,
    mde,
    ols_hc1,
)
from thresholdgame.game import build_success_curve, make_scenario
from thresholdgame.money import Money
from thresholdgame.preferences import (
    EqCondition,
    PowerUtility,
    power_threshold,
)
from thresholdgame.simulator import SimConfig, simulate
from thresholdgame.solver import (
    enumerate_all_profiles,
    enumerate_symmetric,
    equilibrium_table,
    robust_table,
)

E = Money.from_euros
F = Fraction
RN = PowerUtility(1.0)

EXPECTED_CURVES = {
    ("RR", 1.0): [(0, F(1, 10)), (5, F(1, 2)), (10, F(9, 10))],
    ("RA", 1.0): [(0, F(1, 10)), (10, F(9, 10))],
    ("AR", 1.0): [(0, F(0)), (5, F(2, 5)), (10, F(4, 5))],
    ("AA", 1.0): [(0, F(0)), (10, F(4, 5))],
    ("RR", 0.0): [(0, F(1, 10)), (5, F(1, 2)), (10, F(9, 10))],
    ("RA", 0.0): [(0, F(1, 10)), (5, F(9, 10))],
    ("AR", 0.0): [(0, F(1, 5)), (5, F(3, 5)), (10, F(1))],
    ("AA", 0.0): [(0, F(1, 5)), (5, F(1))],
}


def test_criterion_1_curve_reproduction():
    start = time.perf_counter()
    for (label, alpha), expected in EXPECTED_CURVES.items():
        curve = build_success_curve(make_scenario(label), alpha)
        got = [(c.cents // 100, p) for c, p in curve.breakpoints]
        assert got == expected, (label, alpha, got)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 curve reproduction: PASS "
          f"(8 step functions exact, {elapsed:.3f}s)")


EXPECTED_TABLES = {
    1.0: {"RR": (0, 5, 10), "RA": (0, 10), "AR": (5, 10), "AA": (10,)},
    0.0: {"RR": (0, 5, 10), "RA": (0, 5), "AR": (0, 5), "AA": (0, 5)},
}
EXPECTED_ROBUST = {
    1.0: {"RR": (0,), "RA": (0,), "AR": (5,), "AA": (10,)},
    0.0: {"RR": (0,), "RA": (0,), "AR": (0,), "AA": (0,)},
}


def test_criterion_2_equilibrium_tables():
    start = time.perf_counter()
    for alpha, expected in EXPECTED_TABLES.items():
        table = equilibrium_table(RN, alpha)
        for treatment, wanted in expected.items():
            got = tuple(t.cents // 100 for t in table.totals_for(treatment))
            assert got == wanted, (alpha, treatment, got)
    for alpha, expected in EXPECTED_ROBUST.items():
        table = robust_table(alpha=alpha, rho_range=(0.2, 10.0), samples=100)
        for treatment, wanted in expected.items():
            got = tuple(t.cents // 100 for t in table.totals_for(treatment))
            assert got == wanted, (alpha, treatment, got)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 equilibrium tables: PASS "
          f"(risk-neutral and robust tables cell-for-cell, {elapsed:.2f}s)")


def _bisect_flip(cond, lo=0.01, hi=50.0):
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if check_condition(cond, PowerUtility(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_3_condition_thresholds():
    cases = [
        (EqCondition(E(5), F(9, 5), E(3)), 1.1507, math.log(1.8) / math.log(5 / 3)),
        (EqCondition(E(5), F(5), E(4)), 7.2135, math.log(5.0) / math.log(1.25)),
        (EqCondition(E(5), F(9), E(3)), 4.3013, math.log(9.0) / math.log(5 / 3)),
    ]
    for cond, approx, closed in cases:
        value = power_threshold(cond)
        assert abs(value - closed) < 1e-6
        assert value == pytest.approx(approx, abs=2e-3)
        assert abs(_bisect_flip(cond) - value) < 1e-4
    # a sufficiently risk-loving utility kills every positive-contribution
    # equilibrium in the all-risk arm
    records = enumerate_symmetric(build_success_curve(make_scenario("RR"), 1.0),
                                  PowerUtility(8.0), filter_mode="paper")
    assert [r.total for r in records] == [E(0)]
    print("\nACCEPTANCE 3 condition thresholds: PASS "
          "(closed forms to 1e-6, bisection to 1e-4, rho=8 counterexample)")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for label in ("RR", "RA", "AR", "AA"):
        for alpha in (0.0, 0.5, 1.0):
            curve = build_success_curve(make_scenario(label), alpha)
            for rho in (0.5, 1.0, 2.0, 8.0):
                u = PowerUtility(rho)
                full = enumerate_all_profiles(curve, u)
                sym_subset = [r for r in full if r.profile.is_symmetric]
                assert sym_subset == enumerate_symmetric(curve, u, filter_mode="raw"), \
                    (label, alpha, rho)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 oracle equivalence: PASS "
          f"({checked} exhaustive enumerations agree, {elapsed:.1f}s)")


def test_criterion_5_simulator_calibration():
    means, below, above, beliefs = [], [], [], []
    for seed in range(20):
        data = simulate(SimConfig(), seed)
        c, b = data.numeric("contribution"), data.numeric("belief")
        means.append(c.mean())
        below.append(np.mean(c < 2))
        above.append(np.mean(c > 2))
        beliefs.append(b.mean())
    mean_c, share_lo, share_hi = np.mean(means), np.mean(below), np.mean(above)
    mean_b = np.mean(beliefs)
    assert 2.57 <= mean_c <= 2.87
    assert 0.11 <= share_lo <= 0.19
    assert 0.41 <= share_hi <= 0.49
    assert abs(mean_b - 9.2) <= 0.5
    print(f"\nACCEPTANCE 5 simulator calibration: PASS "
          f"(mean {mean_c:.3f}, <2 {share_lo:.3f}, >2 {share_hi:.3f}, "
          f"belief {mean_b:.2f}; 20 seeds x 1500)")


def _binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k + 1))


def _binom_lower_bar(n: int, p: float, alpha: float) -> int:
    """Largest count c with P(X < c) <= alpha: a count below it is a false
    alarm with probability at most alpha under a calibrated generator."""
    bar = 0
    while _binom_cdf(bar, n, p) <= alpha:
        bar += 1
    return bar


def test_criterion_6_null_result_property():
    within = {"AR": 0, "RA": 0, "AA": 0}
    risk_significant = 0
    n_seeds = 100
    for seed in range(n_seeds):
        data = simulate(SimConfig(), seed)
        ate = ate_report(data)
        for arm in within:
            if abs(ate.coef(arm)) <= 2.0 * ate.se(arm):
                within[arm] += 1
        model = contribution_model(data, include_beliefs=False)
        if model.coef("risk_aversion") / model.se("risk_aversion") < -1.96:
            risk_significant += 1
    assert risk_significant >= 90, f"risk aversion significant in {risk_significant}/100"
    # Under no effect each count is Binomial(n_seeds, P(|Z| <= 2)); alpha is
    # split over the arms for a 1% family-wise false-alarm rate.
    nominal = math.erf(2 / math.sqrt(2))
    bar = _binom_lower_bar(n_seeds, nominal, 0.01 / len(within))
    for arm, count in within.items():
        assert count >= bar, (
            f"{arm} ATE within 2 robust SEs in {count}/{n_seeds} runs (bar: "
            f"{bar}; nominal rate {nominal:.4f}; P(X <= {count}) = "
            f"{_binom_cdf(count, n_seeds, nominal):.2g})")
    print(f"\nACCEPTANCE 6 null-result property: PASS "
          f"(ATE within 2se: {within}, bar {bar}/{n_seeds}; risk-aversion "
          f"significant: {risk_significant}/100)")


def _hand_sandwich_2col(xs, ys):
    n, k = len(xs), 2
    xs = [Fraction(v) for v in xs]
    ys = [Fraction(v) for v in ys]
    sxx, sx = sum(v * v for v in xs), sum(xs)
    det = n * sxx - sx * sx
    inv = [[sxx / det, -sx / det], [-sx / det, Fraction(n) / det]]
    xty = [sum(ys), sum(x * y for x, y in zip(xs, ys))]
    beta = [inv[0][0] * xty[0] + inv[0][1] * xty[1],
            inv[1][0] * xty[0] + inv[1][1] * xty[1]]
    resid = [y - beta[0] - beta[1] * x for x, y in zip(xs, ys)]
    m01 = sum(e * e * x for e, x in zip(resid, xs))
    meat = [[sum(e * e for e in resid), m01],
            [m01, sum(e * e * x * x for e, x in zip(resid, xs))]]
    prod = [[sum(inv[i][t] * meat[t][j] for t in range(2)) for j in range(2)]
            for i in range(2)]
    cov = [[sum(prod[i][t] * inv[t][j] for t in range(2)) for j in range(2)]
           for i in range(2)]
    return beta, [[Fraction(n, n - k) * cov[i][j] for j in range(2)] for i in range(2)]


def test_criterion_7_econometrics_oracles():
    xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    ys = [1.0, 3.0, 2.0, 6.0, 4.0, 9.0]
    beta, cov = _hand_sandwich_2col(xs, ys)
    result = ols_hc1(build_design(Dataset({"x": xs, "y": ys}), "y", ["x"]))
    assert abs(result.coef("const") - float(beta[0])) < 1e-10
    assert abs(result.coef("x") - float(beta[1])) < 1e-10
    assert abs(result.se("const") - math.sqrt(float(cov[0][0]))) < 1e-10
    assert abs(result.se("x") - math.sqrt(float(cov[1][1]))) < 1e-10

    report = mde(arms=4, n_per_arm=375, sd=1.39, mc_replications=10_000, seed=11)
    assert report.mde == pytest.approx(0.285, abs=1e-3)
    assert abs(report.mc_rejection_rate - 0.80) <= 0.03
    print(f"\nACCEPTANCE 7 econometrics oracles: PASS "
          f"(hand sandwich to 1e-10; MDE {report.mde:.4f}, MC rejection "
          f"{report.mc_rejection_rate:.3f} at 10^4 reps)")


def test_criterion_8_determinism(tmp_path, capsys):
    pairs = []
    for name, argv in [
        ("sim", ["simulate", "--n", "200", "--seed", "13", "--out"]),
        ("solve", ["solve", "--alpha", "1", "--rho", "1", "--mode", "paper", "--out"]),
        ("power", ["power", "--arms", "4", "--n", "1500", "--sd", "1.39",
                   "--seed", "0", "--out"]),
    ]:
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        assert cli_main(argv + [str(a)]) == 0
        assert cli_main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), name
        pairs.append(name)
    capsys.readouterr()
    print(f"\nACCEPTANCE 8 determinism: PASS (byte-identical re-runs: {pairs})")
