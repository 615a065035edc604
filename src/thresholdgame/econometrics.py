"""In-house analysis engine: OLS with HC1 sandwich errors, balance tests,
treatment-effect and interaction models, power/MDE calculations.

Conventions fixed for the whole package: robust covariance is HC1 (sandwich
with n/(n-k) correction), p-values use the large-sample normal reference, and
missing values are dropped listwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Iterator, Mapping, Sequence

import numpy as np

from .data import Dataset
from .game import ARMS, DEFAULT_GAME


class RankDeficientError(ValueError):
    """Design matrix is rank deficient; ``columns`` names the offenders."""

    def __init__(self, columns: list[str]):
        self.columns = columns
        super().__init__(f"design matrix is rank deficient; suspect columns: {columns}")


@dataclass
class DesignMatrix:
    """Response vector plus named regressor columns, after listwise deletion."""

    y: np.ndarray
    X: np.ndarray
    columns: list[str]
    response: str
    n_dropped: int = 0

    @property
    def n_obs(self) -> int:
        return len(self.y)


#: Every contrast is against this arm.
BASELINE = ARMS[0]


def _present_arms(arms: np.ndarray) -> list[str]:
    """Arm labels present, sorted; a blank label is a missing value, not an arm."""
    return [a for a in np.unique(arms).tolist() if a]


def _comparison_arms(arms: np.ndarray) -> list[str]:
    """Arms present other than the baseline: the experiment order, then any
    unknown labels sorted."""
    present = _present_arms(arms)
    if BASELINE not in present:
        raise ValueError(f"baseline arm {BASELINE!r} absent; arms present: {present}")
    return [a for a in ARMS[1:] if a in present] + [a for a in present if a not in ARMS]


def arm_dummies(data: Dataset) -> dict[str, np.ndarray]:
    """0/1 per comparison arm; NaN where the treatment is blank (dropped listwise)."""
    arms = data.strings("treatment")
    blank = np.where(arms == "", np.nan, 0.0)
    return {a: (arms == a) + blank for a in _comparison_arms(arms)}


def build_design(
    data: Dataset,
    response: str,
    regressors: Sequence[str],
    extra: Mapping[str, np.ndarray] | None = None,
) -> DesignMatrix:
    """Assemble named columns after a constant; rows with any missing value are dropped."""
    cols: dict[str, np.ndarray] = {"const": np.ones(len(data))}
    for name in regressors:
        cols[name] = data.numeric(name)
    for name, values in (extra or {}).items():
        cols[name] = np.asarray(values, dtype=float)
    y = data.numeric(response)
    stacked = np.column_stack([y] + list(cols.values()))
    keep = ~np.isnan(stacked).any(axis=1)
    return DesignMatrix(
        y=y[keep],
        X=np.column_stack([c[keep] for c in cols.values()]),
        columns=list(cols),
        response=response,
        n_dropped=int((~keep).sum()),
    )


@dataclass
class RegressionResult:
    coefficients: dict[str, float]
    robust_se: dict[str, float]
    p_values: dict[str, float]
    r_squared: float
    n_obs: int
    covariance: np.ndarray = field(repr=False, default=None)
    columns: list[str] = field(default_factory=list)
    response: str = ""

    def coef(self, name: str) -> float:
        return self.coefficients[name]

    def se(self, name: str) -> float:
        return self.robust_se[name]

    def summary(self) -> str:
        lines = [f"OLS of {self.response}; robust (HC1) errors; "
                 f"n={self.n_obs}, R2={self.r_squared:.3f}"]
        width = max(len(c) for c in self.columns)
        for c in self.columns:
            stars = _stars(self.p_values[c])
            lines.append(f"  {c.ljust(width)}  {self.coefficients[c]:>10.4f}{stars:<3} "
                         f"({self.robust_se[c]:.4f})")
        return "\n".join(lines)

    def to_csv_rows(self) -> list[dict]:
        return [{"term": c, "coefficient": self.coefficients[c],
                 "robust_se": self.robust_se[c], "p_value": self.p_values[c],
                 "n_obs": self.n_obs, "r_squared": self.r_squared}
                for c in self.columns]


def _stars(p: float) -> str:
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def ols_hc1(design: DesignMatrix) -> RegressionResult:
    """Least squares via QR with the HC1 sandwich covariance; raises
    RankDeficientError naming each column in the span of the columns before it."""
    X, y = design.X, design.y
    n, k = X.shape
    if n <= k:
        raise ValueError(f"need more observations ({n}) than regressors ({k})")
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    bad = [name for name, d in zip(design.columns, diag)
           if d <= diag.max() * max(n, k) * np.finfo(float).eps]
    if bad:
        raise RankDeficientError(bad)
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - X @ beta
    rinv = np.linalg.inv(r)
    bread = rinv @ rinv.T  # (X'X)^-1
    meat = (X * (resid ** 2)[:, None]).T @ X
    cov = bread @ meat @ bread * (n / (n - k))
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    # se of exactly 0 happens only on noiseless fits: p is then 0 or 1.
    pvals = [math.erfc(abs(b / s) / math.sqrt(2)) if s > 0 else float(b == 0)
             for b, s in zip(beta.tolist(), se.tolist())]
    tss = float(((y - y.mean()) ** 2).sum())
    rss = float((resid ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    names = design.columns
    return RegressionResult(
        coefficients=dict(zip(names, beta)),
        robust_se=dict(zip(names, se)),
        p_values=dict(zip(names, pvals)),
        r_squared=r2,
        n_obs=n,
        covariance=cov,
        columns=list(names),
        response=design.response,
    )


# --- balance ------------------------------------------------------------------

@dataclass
class BalanceTable:
    baseline: str
    arms: tuple[str, ...]          # comparison arms, baseline excluded
    covariates: tuple[str, ...]
    baseline_means: dict[str, float]
    p_values: dict[tuple[str, str], float]   # (covariate, arm) -> p

    def render(self) -> str:
        head = ["", f"Mean_{self.baseline}"] + [f"p({a}-{self.baseline})" for a in self.arms]
        rows = [head]
        for cov in self.covariates:
            row = [cov, f"{self.baseline_means[cov]:.3f}"]
            for a in self.arms:
                p = self.p_values[(cov, a)]
                row.append(f"{p:.3f}{_stars(p)}")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
        return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                         for r in rows)

    def to_csv_rows(self) -> list[dict]:
        out = []
        for cov in self.covariates:
            row = {"covariate": cov, f"mean_{self.baseline}": self.baseline_means[cov]}
            for a in self.arms:
                row[f"p_{a}"] = self.p_values[(cov, a)]
            out.append(row)
        return out


def balance_table(data: Dataset, covariates: Sequence[str]) -> BalanceTable:
    """Baseline means and Welch-test p-values for each arm against the baseline."""
    arms = data.strings("treatment")
    others = _comparison_arms(arms)
    if not others:
        raise ValueError("need at least two arms for a balance table")
    means: dict[str, float] = {}
    pvals: dict[tuple[str, str], float] = {}
    for cov in covariates:
        values = data.numeric(cov)
        base_vals = values[(arms == BASELINE) & ~np.isnan(values)]
        if base_vals.size == 0:
            raise ValueError(f"baseline arm has no data for {cov!r}")
        means[cov] = float(base_vals.mean())
        for a in others:
            other_vals = values[(arms == a) & ~np.isnan(values)]
            if other_vals.size == 0:
                raise ValueError(f"arm {a!r} has no data for {cov!r}")
            pvals[(cov, a)] = _welch_p(base_vals, other_vals)
    return BalanceTable(BASELINE, tuple(others), tuple(covariates), means, pvals)


def _welch_p(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided Welch t-test p-value, I_x(df/2, 1/2) at x = df / (df + t^2): 1 or 0
    for constant samples with equal or unequal means, nan for a one-value sample."""
    if np.var(a) == 0 and np.var(b) == 0:
        return 1.0 if a.mean() == b.mean() else 0.0
    if min(a.size, b.size) < 2:
        return math.nan
    va, vb = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
    t2 = float((a.mean() - b.mean()) ** 2 / (va + vb))
    df = float((va + vb) ** 2 / (va ** 2 / (a.size - 1) + vb ** 2 / (b.size - 1)))
    return _incomplete_beta(df / 2, 0.5, df / (df + t2), t2 / (df + t2)) if t2 else 1.0


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), y = 1 - x, by its continued fraction."""
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _incomplete_beta(b, a, y, x)
    c, d, h = 1.0, 0.0, 1.0  # modified Lentz: h -> 1 + d_1 / (1 + d_2 / (1 + ...))
    for m in range(1000):
        for num in (-(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
                    (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2))):
            d, c = 1.0 / (1.0 + num * d), 1.0 + num / c
            h *= d * c
        if d * c == 1.0:
            return math.exp(a * math.log(x) + b * math.log(y) + math.lgamma(a + b)
                            - math.lgamma(a) - math.lgamma(b)) / (a * h)
    raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}) did not converge")


# --- treatment effect models ---------------------------------------------------

def ate_report(data: Dataset) -> RegressionResult:
    """Contribution on arm dummies only: the raw treatment-effect column."""
    dummies = arm_dummies(data)
    if not dummies:
        raise ValueError("single-arm data: no treatment contrasts to estimate")
    design = build_design(data, "contribution", [], extra=dummies)
    return ols_hc1(design)


CONTRIBUTION_CONTROLS = (
    "age", "female", "education", "altruism", "envy", "ideology", "gravity",
    "number_actions", "social_transfer", "crt", "unemployed",
)


def contribution_model(data: Dataset, include_beliefs: bool = True) -> RegressionResult:
    """The full contribution regression: arms, controls, attitudes, beliefs."""
    regressors = list(CONTRIBUTION_CONTROLS) + ["risk_aversion", "ambiguity_aversion"]
    if include_beliefs:
        regressors.append("belief")
    design = build_design(data, "contribution", regressors, extra=arm_dummies(data))
    return ols_hc1(design)


def beliefs_model(data: Dataset) -> RegressionResult:
    """Belief regression: what predicts expectations about others."""
    regressors = list(CONTRIBUTION_CONTROLS) + ["risk_aversion", "ambiguity_aversion"]
    design = build_design(data, "belief", regressors, extra=arm_dummies(data))
    return ols_hc1(design)


INTERACTION_CONTROLS = ("age", "crt", "belief")


def interaction_model(data: Dataset, moderator: str) -> RegressionResult:
    """Arm dummies, the moderator, and arm-by-moderator products."""
    dummies = arm_dummies(data)
    mod = data.numeric(moderator)
    extra = dict(dummies)
    extra[moderator] = mod
    for arm, dummy in dummies.items():
        extra[f"{arm}_x_{moderator}"] = dummy * mod
    design = build_design(data, "contribution", list(INTERACTION_CONTROLS), extra=extra)
    return ols_hc1(design)


PIVOTAL_CONTROLS = ("age", "female", "education", "altruism", "crt")


def pivotal_model(data: Dataset) -> RegressionResult:
    """Strategic-uncertainty model: pivotal flag, stated accuracy, their product."""
    extra = dict(arm_dummies(data))
    pivotal = data.numeric("pivotal")
    accuracy = data.numeric("perception_accuracy")
    extra["pivotal"] = pivotal
    extra["perception_accuracy"] = accuracy
    extra["pivotal_x_accuracy"] = pivotal * accuracy
    design = build_design(data, "contribution", list(PIVOTAL_CONTROLS), extra=extra)
    return ols_hc1(design)


# --- power / MDE ---------------------------------------------------------------

@dataclass
class PowerReport:
    arms: int
    n_per_arm: int
    outcome_sd: float
    alpha_level: float
    power_target: float
    mde: float
    mc_rejection_rate: float | None = None
    mc_replications: int = 0

    def render(self) -> str:
        lines = [
            f"Two-sample MDE at alpha={self.alpha_level}, power={self.power_target}: "
            f"{self.mde:.4f}",
            f"  arms={self.arms}, n/arm={self.n_per_arm}, outcome sd={self.outcome_sd}",
        ]
        if self.mc_rejection_rate is not None:
            lines.append(f"  Monte-Carlo rejection at the MDE: {self.mc_rejection_rate:.3f} "
                         f"({self.mc_replications} replications)")
        return "\n".join(lines)


def mde(
    arms: int,
    n_per_arm: int,
    sd: float,
    alpha_level: float = 0.05,
    power_target: float = 0.80,
    mc_replications: int = 0,
    seed: int = 0,
) -> PowerReport:
    """Closed-form two-sample minimum detectable effect, optionally verified
    by Monte-Carlo rejection at that effect size."""
    if min(arms, n_per_arm) < 1 or sd <= 0 or not 0 < alpha_level < 1 or not 0 < power_target < 1:
        raise ValueError("all power inputs must be positive and levels in (0,1)")
    z_alpha = NormalDist().inv_cdf(1 - alpha_level / 2)
    z_power = NormalDist().inv_cdf(power_target)
    effect = (z_alpha + z_power) * sd * math.sqrt(2.0 / n_per_arm)
    rate = None
    if mc_replications > 0:
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, sd, size=(mc_replications, n_per_arm))
        b = rng.normal(effect, sd, size=(mc_replications, n_per_arm))
        diff = b.mean(axis=1) - a.mean(axis=1)
        se = np.sqrt(a.var(axis=1, ddof=1) / n_per_arm + b.var(axis=1, ddof=1) / n_per_arm)
        rate = float(np.mean(np.abs(diff / se) > z_alpha))
    return PowerReport(arms, n_per_arm, sd, alpha_level, power_target, float(effect),
                       rate, mc_replications)


# --- dispersion ---------------------------------------------------------------

@dataclass
class PolarizationReport:
    arm_a: str
    arm_b: str
    variance_a: float
    variance_b: float
    share_zero_a: float
    share_zero_b: float
    share_max_a: float
    share_max_b: float
    variance_ratio: float
    p_value: float
    permutations: int

    def render(self) -> str:
        return "\n".join([
            f"Dispersion of contributions: {self.arm_a} vs {self.arm_b}",
            f"  variance: {self.variance_a:.4f} vs {self.variance_b:.4f} "
            f"(ratio {self.variance_ratio:.3f}, permutation p={self.p_value:.3f})",
            f"  share at 0: {self.share_zero_a:.3f} vs {self.share_zero_b:.3f}",
            f"  share at max: {self.share_max_a:.3f} vs {self.share_max_b:.3f}",
        ])


def polarization(
    data: Dataset,
    arm_a: str,
    arm_b: str,
    permutations: int = 999,
    seed: int = 0,
) -> PolarizationReport:
    """Contribution variance comparison with a permutation p-value for the log
    variance ratio; "max" is the default game's endowment."""
    arms = data.strings("treatment")
    values = data.numeric("contribution")
    a, b = values[arms == arm_a], values[arms == arm_b]
    a, b = a[~np.isnan(a)], b[~np.isnan(b)]
    if a.size < 2 or b.size < 2:
        raise ValueError("both arms need at least two observations")
    var_a, var_b = float(a.var(ddof=1)), float(b.var(ddof=1))
    observed = abs(math.log(var_a / var_b)) if var_a > 0 and var_b > 0 else math.inf
    pooled = np.concatenate([a, b])
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(permutations):
        perm = rng.permutation(pooled)
        pa, pb = perm[:a.size], perm[a.size:]
        va, vb = pa.var(ddof=1), pb.var(ddof=1)
        stat = abs(math.log(va / vb)) if va > 0 and vb > 0 else math.inf
        if stat >= observed:
            hits += 1
    p = (hits + 1) / (permutations + 1)
    grid_max = DEFAULT_GAME.endowment.euros
    return PolarizationReport(
        arm_a=arm_a, arm_b=arm_b, variance_a=var_a, variance_b=var_b,
        share_zero_a=float(np.mean(a == 0)), share_zero_b=float(np.mean(b == 0)),
        share_max_a=float(np.mean(a >= grid_max)), share_max_b=float(np.mean(b >= grid_max)),
        variance_ratio=var_a / var_b if var_b > 0 else math.inf,
        p_value=float(p), permutations=permutations,
    )


# --- the analyze battery ---------------------------------------------------------

#: Covariates the balance section tests, when the data has them.
BALANCE_COVARIATES = (
    "age", "female", "education", "patience", "ambiguity_aversion",
    "risk_aversion", "crt", "math_ability", "altruism", "envy", "ideology",
    "gravity", "number_actions", "unemployed", "social_transfer",
)


def analysis_battery(data: Dataset) -> Iterator[tuple[str, list[dict], str]]:
    """The analysis sections in order, each as (name, CSV rows, text)."""
    bal = balance_table(data, [c for c in BALANCE_COVARIATES if c in data.columns])
    yield "balance", bal.to_csv_rows(), bal.render()
    for name, model in (("ate", ate_report), ("contribution_model", contribution_model),
                        ("beliefs_model", beliefs_model)):
        result = model(data)
        yield name, result.to_csv_rows(), result.summary()
    for moderator in ("risk_aversion", "ambiguity_aversion"):
        result = interaction_model(data, moderator)
        yield f"interactions_{moderator}", result.to_csv_rows(), result.summary()
    result = pivotal_model(data)
    yield "pivotal_model", result.to_csv_rows(), result.summary()
    reports = [polarization(data, arm, BASELINE)
               for arm in _present_arms(data.strings("treatment")) if arm != BASELINE]
    rows = [{"arm": r.arm_a, "baseline": r.arm_b,
             "variance_arm": r.variance_a, "variance_baseline": r.variance_b,
             "variance_ratio": r.variance_ratio, "p_value": r.p_value,
             "share_zero_arm": r.share_zero_a, "share_max_arm": r.share_max_a}
            for r in reports]
    yield "polarization", rows, "\n".join(r.render() for r in reports)
    rows = _histogram_rows(data)
    yield "histogram", rows, "\n".join(
        f"{r['treatment']} C={r['contribution']}: {r['share']:.3f}" for r in rows)


def _histogram_rows(data: Dataset) -> list[dict]:
    arms = data.strings("treatment")
    contrib = data.numeric("contribution")
    rows = []
    for arm in _present_arms(arms):
        values = contrib[(arms == arm) & ~np.isnan(contrib)]
        levels, counts = np.unique(values, return_counts=True)
        for level, count in zip(levels.tolist(), counts.tolist()):
            rows.append({"treatment": arm, "contribution": f"{level:g}",
                         "count": count, "share": count / len(values)})
    return rows
