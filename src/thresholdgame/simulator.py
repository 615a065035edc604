"""Synthetic experiment generator.

Randomizes subjects into the four arms, synthesizes covariates matched to the
target survey moments, produces beliefs and contributions from calibrated
behavioral rules, forms groups of ``n_players``, and realizes payoffs.

Randomness: every subject (and every group, for payoff draws) gets its own
index-derived substream, so generation can be partitioned across workers and
the output is byte-identical regardless of partitioning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .data import CSV_COLUMNS, Dataset
from .game import (
    ARMS,
    DEFAULT_GAME,
    AmbiguityScenario,
    GameSpec,
    SuccessCurve,
    TREATMENTS,
    build_success_curve,
    make_scenario,
)
from .money import Money
from .preferences import PowerUtility, RISK_NEUTRAL
from .solver import enumerate_symmetric

RESOLUTION_POLICIES = ("uniform", "pessimistic", "optimistic")

# Target moments for the synthetic population: (mean, sd, min, max) for the
# rounded-and-clipped normal draws, probabilities for the binary ones.
AGE = (43.84, 14.06, 18, 74)
EDUCATION = (2.95, 1.34, 1, 5)
PATIENCE = (3.37, 2.17, 0, 6)
CRT = (1.59, 0.97, 0, 3)
MATH_ABILITY = (2.11, 0.87, 0, 3)
ALTRUISM = (1.64, 0.77, 0, 3)
ENVY = (2.16, 1.30, 0, 4)
IDEOLOGY = (4.92, 2.31, 1, 10)
GRAVITY = (7.69, 1.78, 1, 10)
NUMBER_ACTIONS = (4.59, 2.21, 1, 11)
P_FEMALE = 0.52
P_UNEMPLOYED = 0.12
P_SOCIAL_TRANSFER = 0.19

# Risk aversion: latent normal censored to [-0.1, 1].  The latent parameters
# solve for clipped mean 0.04 and sd 0.29, which also puts the median at the
# -0.1 floor as in the target sample.
RISK_LATENT = (-0.589139, 0.853677)
RISK_BOUNDS = (-0.1, 1.0)
# Ambiguity aversion: clipping at [-2, 2] barely binds, latent = target moments.
AMBIGUITY_LATENT = (0.02, 0.47)
AMBIGUITY_BOUNDS = (-2.0, 2.0)
# Latent Gaussian-copula correlation giving an observed -0.41 after clipping.
RISK_AMBIGUITY_LATENT_CORR = -0.553933

# Belief equation: linear index in covariates plus Gaussian noise, clamped to
# what the others can give, [0, (n_players - 1) * endowment].  Arm dummies enter
# with weight zero: the data-generating process has no treatment effect on beliefs.
BELIEF_COEFS = {
    "const": 9.614,
    "education": -0.286,
    "altruism": 0.423,
    "gravity": 0.203,
    "number_actions": -0.184,
    "crt": -0.636,
    "risk_aversion": -1.220,
    "ambiguity_aversion": -0.323,
}
BELIEF_NOISE_SD = 2.5

# Contribution equation: the same fitted coefficients the analysis side is
# expected to recover from simulated data.
CONTRIBUTION_COEFS = {
    "const": 1.450,
    "belief": 0.170,
    "risk_aversion": -0.337,
    "ambiguity_aversion": -0.125,
    "crt": -0.142,
    "age": -0.005,
}
#: Two-component Gaussian noise (weight, mean_a, sd_a, mean_b, sd_b) calibrated
#: so the rounded, clamped contributions hit mean ~2.72 with ~15% below 2 and
#: ~45% above 2 while keeping boundary clipping (and thus coefficient
#: attenuation) small.  The implied sd ~1.27 undershoots the 1.39 target; the
#: share/mean targets pin the variance and win.
CONTRIBUTION_NOISE = (0.631, -0.633, 0.187, 1.646, 0.608)

PIVOTAL_RANGE = (5.0, 9.0)  # belief in [5, 9) can swing threshold attainment

# Substream purposes.
_STREAM_ASSIGN = 0
_STREAM_SUBJECT = 1
_STREAM_GROUP = 2


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


@dataclass(frozen=True)
class CovariateProfile:
    age: int
    female: int
    education: int
    patience: int
    crt: int
    math_ability: int
    altruism: int
    envy: int
    ideology: int
    gravity: int
    number_actions: int
    unemployed: int
    social_transfer: int
    risk_aversion: float
    ambiguity_aversion: float


RULE_KINDS = (
    "paper-calibrated-linear",
    "belief-best-responder",
    "equilibrium-selector",
    "altruist-fixed",
)


@dataclass(frozen=True)
class BehavioralRule:
    """How a subject maps (covariates, belief) to a contribution.

    ``pessimism`` is the curve weight used by the best responder and the
    equilibrium selector; ``equilibrium_pick`` chooses among the arm's
    surviving equilibrium totals.
    """

    kind: str = "paper-calibrated-linear"
    noise: bool = True
    pessimism: float = 1.0
    fixed_contribution: Money = Money.from_euros(2)
    equilibrium_pick: str = "max"

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; expected one of {RULE_KINDS}")
        if self.equilibrium_pick not in ("max", "min"):
            raise ValueError("equilibrium_pick must be 'max' or 'min'")


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: int
    treatment: str
    group_id: int
    covariates: CovariateProfile
    belief_others_total: float
    perception_accuracy: float
    pivotal: int
    contribution: Money
    group_total: Money = Money(0)
    threshold_drawn: Money = Money(0)
    success: int = 0
    earnings: Money = Money(0)


@dataclass(frozen=True)
class Assignment:
    subject_id: int
    treatment: str
    group_id: int


@dataclass(frozen=True)
class SimConfig:
    n_subjects: int = 1500
    arms: tuple[str, ...] = ARMS
    game: GameSpec = DEFAULT_GAME
    rule: BehavioralRule = BehavioralRule()
    resolution_policy: str = "uniform"
    belief_noise_sd: float = BELIEF_NOISE_SD
    remainder_policy: str = "error"
    #: Injected average treatment effects, e.g. (("AA", 0.5),).
    arm_effects: tuple[tuple[str, float], ...] = ()
    #: Arm-specific total slopes on risk aversion replacing the flat one.
    risk_slope_by_arm: tuple[tuple[str, float], ...] | None = None
    #: (pivotal, pivotal x accuracy) index terms; off by default.
    pivotal_effects: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.resolution_policy not in RESOLUTION_POLICIES:
            raise ValueError(
                f"resolution policy {self.resolution_policy!r} not in {RESOLUTION_POLICIES}")
        unknown = [a for a in self.arms if a not in TREATMENTS]
        if unknown:
            raise ValueError(f"unknown arms: {unknown}")

    @property
    def group_size(self) -> int:
        """Groups are as large as the game: one subject per player."""
        return self.game.n_players


# --- randomization -----------------------------------------------------------

def randomize(
    n_subjects: int,
    arms: tuple[str, ...] = ARMS,
    seed: int = 0,
    group_size: int = 5,
    remainder_policy: str = "error",
) -> list[Assignment]:
    """Equal-probability arm assignment; within an arm, consecutive blocks of
    ``group_size`` form groups.  Deterministic under ``seed``.

    ``remainder_policy='drop'`` silently leaves out subjects that do not fill
    a complete group; the default rejects such configurations.
    """
    block = len(arms) * group_size
    if n_subjects % block and remainder_policy != "drop":
        raise ValueError(
            f"{n_subjects} subjects do not split into groups of {group_size} "
            f"across {len(arms)} arms; use remainder_policy='drop' or adjust n")
    per_arm = (n_subjects // block) * group_size
    rng = _rng(seed, _STREAM_ASSIGN)
    order = rng.permutation(n_subjects)
    assignments = []
    group_id = 0
    pos = 0
    for arm in arms:
        members = order[pos:pos + per_arm]
        pos += per_arm
        for j, subject in enumerate(members):
            if j % group_size == 0:
                group_id += 1
            assignments.append(Assignment(int(subject), arm, group_id - 1))
    assignments.sort(key=lambda a: a.subject_id)
    return assignments


# --- covariates --------------------------------------------------------------

def _rounded_clipped(rng: np.random.Generator, spec: tuple) -> int:
    mean, sd, lo, hi = spec
    return int(min(max(round(rng.normal(mean, sd)), lo), hi))


def draw_covariates(rng: np.random.Generator) -> CovariateProfile:
    """One covariate profile from one substream; draw order is part of the format."""
    z_risk = rng.standard_normal()
    z_extra = rng.standard_normal()
    rho = RISK_AMBIGUITY_LATENT_CORR
    z_amb = rho * z_risk + math.sqrt(1 - rho * rho) * z_extra
    risk = min(max(RISK_LATENT[0] + RISK_LATENT[1] * z_risk, RISK_BOUNDS[0]), RISK_BOUNDS[1])
    amb = min(max(AMBIGUITY_LATENT[0] + AMBIGUITY_LATENT[1] * z_amb,
                  AMBIGUITY_BOUNDS[0]), AMBIGUITY_BOUNDS[1])
    return CovariateProfile(
        age=_rounded_clipped(rng, AGE),
        female=int(rng.random() < P_FEMALE),
        education=_rounded_clipped(rng, EDUCATION),
        patience=_rounded_clipped(rng, PATIENCE),
        crt=_rounded_clipped(rng, CRT),
        math_ability=_rounded_clipped(rng, MATH_ABILITY),
        altruism=_rounded_clipped(rng, ALTRUISM),
        envy=_rounded_clipped(rng, ENVY),
        ideology=_rounded_clipped(rng, IDEOLOGY),
        gravity=_rounded_clipped(rng, GRAVITY),
        number_actions=_rounded_clipped(rng, NUMBER_ACTIONS),
        unemployed=int(rng.random() < P_UNEMPLOYED),
        social_transfer=int(rng.random() < P_SOCIAL_TRANSFER),
        risk_aversion=risk,
        ambiguity_aversion=amb,
    )


def synth_covariates(n: int, seed: int = 0) -> list[CovariateProfile]:
    if n < 1:
        raise ValueError("need at least one subject")
    return [draw_covariates(_rng(seed, _STREAM_SUBJECT, i)) for i in range(n)]


# --- beliefs -----------------------------------------------------------------

def belief_index(cov: CovariateProfile) -> float:
    """Noise-free belief about the other members' total contribution."""
    b = BELIEF_COEFS
    return (b["const"]
            + b["education"] * cov.education
            + b["altruism"] * cov.altruism
            + b["gravity"] * cov.gravity
            + b["number_actions"] * cov.number_actions
            + b["crt"] * cov.crt
            + b["risk_aversion"] * cov.risk_aversion
            + b["ambiguity_aversion"] * cov.ambiguity_aversion)


def gen_belief(
    cov: CovariateProfile,
    treatment: str,
    rng: np.random.Generator | int,
    noise_sd: float = BELIEF_NOISE_SD,
    game: GameSpec = DEFAULT_GAME,
) -> float:
    """Belief in [0, what the others can give]; the treatment carries no weight."""
    if isinstance(rng, int):
        rng = _rng(rng, _STREAM_SUBJECT, 0)
    noise = rng.normal(0.0, noise_sd) if noise_sd > 0 else 0.0
    cap = (game.endowment * (game.n_players - 1)).euros
    return float(min(max(belief_index(cov) + noise, 0.0), cap))


def is_pivotal(belief: float) -> bool:
    return PIVOTAL_RANGE[0] <= belief < PIVOTAL_RANGE[1]


# --- contributions -----------------------------------------------------------

def contribution_index(cov: CovariateProfile, belief: float) -> float:
    """Noise-free linear contribution index (euros, unrounded)."""
    c = CONTRIBUTION_COEFS
    return (c["const"]
            + c["belief"] * belief
            + c["risk_aversion"] * cov.risk_aversion
            + c["ambiguity_aversion"] * cov.ambiguity_aversion
            + c["crt"] * cov.crt
            + c["age"] * cov.age)


def round_to_grid(x: float, game: GameSpec = DEFAULT_GAME) -> Money:
    """Nearest grid point in [0, endowment]; exact halves round down."""
    step = game.grid_step.euros
    q = x / step
    k = math.floor(q + 0.5)
    if q + 0.5 == k:
        k -= 1
    k = min(max(k, 0), game.endowment // game.grid_step)
    return game.grid_step * k


@lru_cache(maxsize=None)
def _arm_curve(label: str, pessimism: float, game: GameSpec) -> SuccessCurve:
    return build_success_curve(make_scenario(label), pessimism, game)


@lru_cache(maxsize=None)
def _equilibrium_contribution(
    label: str, pessimism: float, pick: str, game: GameSpec
) -> Money:
    curve = _arm_curve(label, pessimism, game)
    records = enumerate_symmetric(curve, RISK_NEUTRAL, game, "paper")
    if not records:
        return Money(0)
    totals = [r.total for r in records]
    total = max(totals) if pick == "max" else min(totals)
    return Money(total.cents // game.n_players)


def _best_response(
    cov: CovariateProfile, belief: float, curve: SuccessCurve, game: GameSpec
) -> Money:
    # Power exponent implied by the measured risk attitude; 1 is neutral.
    rho = max(1.0 - cov.risk_aversion, 0.05)
    u = PowerUtility(rho)
    best_c, best_v = Money(0), -math.inf
    for c in game.contribution_grid():
        total = min(c.euros + belief, curve.domain_max.euros)
        v = u((game.endowment - c).euros) * float(curve.value_at_euros(total))
        if v > best_v + 1e-12:
            best_c, best_v = c, v
    return best_c


def gen_contribution(
    cov: CovariateProfile,
    treatment: str,
    belief: float,
    rule: BehavioralRule,
    rng: np.random.Generator | int,
    game: GameSpec = DEFAULT_GAME,
    index_shift: float = 0.0,
) -> Money:
    """Contribution on the grid in [0, endowment] under the given rule.

    ``index_shift`` lets the experiment pipeline inject arm effects or
    interaction terms without touching the calibrated base coefficients.
    """
    if isinstance(rng, int):
        rng = _rng(rng, _STREAM_SUBJECT, 0)
    if rule.kind == "paper-calibrated-linear":
        x = contribution_index(cov, belief) + index_shift
        if rule.noise:
            w, mean_a, sd_a, mean_b, sd_b = CONTRIBUTION_NOISE
            z = rng.standard_normal()
            x += (mean_a + sd_a * z) if rng.random() < w else (mean_b + sd_b * z)
        return round_to_grid(x, game)
    if rule.kind == "belief-best-responder":
        curve = _arm_curve(treatment, rule.pessimism, game)
        return _best_response(cov, belief, curve, game)
    if rule.kind == "equilibrium-selector":
        return _equilibrium_contribution(treatment, rule.pessimism, rule.equilibrium_pick, game)
    if rule.kind == "altruist-fixed":
        if not game.on_grid(rule.fixed_contribution):
            raise ValueError(f"fixed contribution {rule.fixed_contribution} off the grid")
        return rule.fixed_contribution
    raise AssertionError(f"unhandled rule kind {rule.kind!r}")


# --- payoff realization ------------------------------------------------------

def draw_threshold(
    scenario: AmbiguityScenario, policy: str, rng: np.random.Generator
) -> Money:
    """Threshold for payment; the policy resolves only the ambiguous case."""
    spec = scenario.threshold
    if spec.distribution is not None:
        probs = [float(p) for p in spec.distribution]
        i = int(rng.choice(len(spec.support), p=probs))
        return spec.support[i]
    if policy == "pessimistic":
        return spec.support[-1]
    if policy == "optimistic":
        return spec.support[0]
    return spec.support[int(rng.integers(len(spec.support)))]


def _resolve_interval(lo: float, hi: float, policy: str, rng: np.random.Generator) -> float:
    if lo == hi:
        return lo
    if policy == "pessimistic":
        return lo
    if policy == "optimistic":
        return hi
    return float(rng.uniform(lo, hi))


def success_probability(
    scenario: AmbiguityScenario, total: Money, policy: str = "uniform"
) -> Fraction:
    """Marginal success chance over the threshold draw and the probability draw.

    Under the uniform policy, ambiguous thresholds are drawn uniformly over
    the support and an ambiguous success probability averages to the interval
    midpoint; the pessimistic/optimistic policies take the worst/best of both.
    """
    if policy not in RESOLUTION_POLICIES:
        raise ValueError(f"unknown resolution policy {policy!r}")
    spec = scenario.threshold
    if spec.distribution is not None:
        weights = list(zip(spec.support, spec.distribution))
    elif policy == "pessimistic":
        weights = [(spec.support[-1], Fraction(1))]
    elif policy == "optimistic":
        weights = [(spec.support[0], Fraction(1))]
    else:
        w = Fraction(1, len(spec.support))
        weights = [(t, w) for t in spec.support]

    def resolve(interval) -> Fraction:
        if policy == "pessimistic":
            return interval.lo
        if policy == "optimistic":
            return interval.hi
        return (interval.lo + interval.hi) / 2

    total_p = Fraction(0)
    for threshold, w in weights:
        interval = (scenario.p_success_if_met if total >= threshold
                    else scenario.p_success_if_unmet)
        total_p += w * resolve(interval)
    return total_p


def realize_payoffs(
    records: list[SubjectRecord],
    scenario: AmbiguityScenario,
    resolution_policy: str = "uniform",
    seed: int = 0,
    game: GameSpec = DEFAULT_GAME,
) -> list[SubjectRecord]:
    """Draw thresholds and success per group, then set earnings.

    Earnings are game earnings only: endowment minus contribution on success,
    zero on loss.
    """
    if resolution_policy not in RESOLUTION_POLICIES:
        raise ValueError(f"unknown resolution policy {resolution_policy!r}")
    by_group: dict[int, list[SubjectRecord]] = {}
    for rec in records:
        by_group.setdefault(rec.group_id, []).append(rec)
    out = []
    for group_id in sorted(by_group):
        members = by_group[group_id]
        total = Money(sum(r.contribution.cents for r in members))
        rng = _rng(seed, _STREAM_GROUP, group_id)
        threshold = draw_threshold(scenario, resolution_policy, rng)
        interval = (scenario.p_success_if_met if total >= threshold
                    else scenario.p_success_if_unmet)
        p = _resolve_interval(float(interval.lo), float(interval.hi),
                              resolution_policy, rng)
        success = int(rng.random() < p)
        for rec in members:
            earned = game.endowment - rec.contribution if success else Money(0)
            out.append(replace(rec, group_total=total, threshold_drawn=threshold,
                               success=success, earnings=earned))
    out.sort(key=lambda r: r.subject_id)
    return out


# --- pipeline ----------------------------------------------------------------

def _index_shift(config: SimConfig, arm: str, cov: CovariateProfile,
                 pivotal: int, accuracy: float) -> float:
    shift = dict(config.arm_effects).get(arm, 0.0)
    if config.risk_slope_by_arm is not None:
        slope = dict(config.risk_slope_by_arm).get(arm, CONTRIBUTION_COEFS["risk_aversion"])
        shift += (slope - CONTRIBUTION_COEFS["risk_aversion"]) * cov.risk_aversion
    if config.pivotal_effects is not None:
        base, cross = config.pivotal_effects
        shift += base * pivotal + cross * pivotal * accuracy
    return shift


def run_experiment(config: SimConfig, seed: int) -> list[SubjectRecord]:
    """Full pipeline; deterministic per (config, seed)."""
    assignments = randomize(config.n_subjects, config.arms, seed,
                            config.group_size, config.remainder_policy)
    scenarios = {arm: make_scenario(arm) for arm in config.arms}
    records = []
    for a in assignments:
        rng = _rng(seed, _STREAM_SUBJECT, a.subject_id)
        cov = draw_covariates(rng)
        belief = gen_belief(cov, a.treatment, rng, config.belief_noise_sd, config.game)
        accuracy = float(rng.uniform(0.0, 100.0))
        pivotal = int(is_pivotal(belief))
        shift = _index_shift(config, a.treatment, cov, pivotal, accuracy)
        contribution = gen_contribution(cov, a.treatment, belief, config.rule,
                                        rng, config.game, shift)
        records.append(SubjectRecord(
            subject_id=a.subject_id,
            treatment=a.treatment,
            group_id=a.group_id,
            covariates=cov,
            belief_others_total=belief,
            perception_accuracy=accuracy,
            pivotal=pivotal,
            contribution=contribution,
        ))
    final = []
    for arm in config.arms:
        arm_records = [r for r in records if r.treatment == arm]
        final.extend(realize_payoffs(arm_records, scenarios[arm],
                                     config.resolution_policy, seed, config.game))
    final.sort(key=lambda r: r.subject_id)
    return final


def records_to_dataset(records: list[SubjectRecord]) -> Dataset:
    cols = {name: [getattr(r.covariates, name) for r in records]
            for name in CovariateProfile.__dataclass_fields__}
    for name in ("subject_id", "treatment", "group_id", "perception_accuracy", "pivotal",
                 "success"):
        cols[name] = [getattr(r, name) for r in records]
    cols["belief"] = [r.belief_others_total for r in records]
    for name in ("contribution", "group_total", "threshold_drawn", "earnings"):
        cols[name] = np.array([getattr(r, name).cents for r in records], dtype=float) / 100
    return Dataset({name: cols[name] for name in CSV_COLUMNS})
