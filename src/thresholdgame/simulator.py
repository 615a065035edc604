"""Synthetic experiment generator, one column at a time.

Randomizes subjects into the four arms, synthesizes covariates matched to the
target survey moments, produces beliefs and contributions from calibrated
behavioral rules, forms groups of ``n_players``, and realizes payoffs.  Each
stage is one function over numpy columns; ``simulate`` chains them.

Randomness is RNG format 2 (``RNG_FORMAT``).  Subject ``i`` and group ``g`` own
row ``i`` or ``g`` of a counter-based Philox stream keyed by the seed and a
purpose (``STREAMS``), a fixed number of uniforms wide; ``SUBJECT_ROW`` and
``GROUP_ROW`` name what each uniform feeds.  Rows ``[a, b)`` equal the stream
advanced to row ``a``, so any partition of the rows gives the same bytes.
Normals come from Box-Muller with libm's ``log``, ``cos`` and ``sin``, never
numpy's CPU-dispatched ones, so the bytes do not depend on the host CPU.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

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
from .preferences import RISK_NEUTRAL, TIE_TOL
from .solver import enumerate_symmetric

RNG_FORMAT = 2

RESOLUTION_POLICIES = ("uniform", "pessimistic", "optimistic")

# Target moments for the synthetic population: (mean, sd, min, max) for the
# rounded-and-clipped normal draws, probabilities for the binary ones.
ROUNDED_COVARIATES = {
    "age": (43.84, 14.06, 18, 74),
    "education": (2.95, 1.34, 1, 5),
    "patience": (3.37, 2.17, 0, 6),
    "crt": (1.59, 0.97, 0, 3),
    "math_ability": (2.11, 0.87, 0, 3),
    "altruism": (1.64, 0.77, 0, 3),
    "envy": (2.16, 1.30, 0, 4),
    "ideology": (4.92, 2.31, 1, 10),
    "gravity": (7.69, 1.78, 1, 10),
    "number_actions": (4.59, 2.21, 1, 11),
}
BINARY_COVARIATES = {"female": 0.52, "unemployed": 0.12, "social_transfer": 0.19}

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

#: Covariate columns, in the order of the data schema.
COVARIATES = tuple(name for name in CSV_COLUMNS
                   if name in ROUNDED_COVARIATES or name in BINARY_COVARIATES
                   or name in ("risk_aversion", "ambiguity_aversion"))

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

#: What each uniform of a subject's row feeds.  Columns 0-13 pass through
#: Box-Muller in pairs (2j, 2j+1) and become the standard normals named here;
#: 14-18 are used as uniforms; 19 is spare, so the row stays a multiple of the
#: four words one Philox counter yields.
SUBJECT_ROW = (
    "risk_aversion", "ambiguity_aversion", *ROUNDED_COVARIATES,
    "belief_noise", "contribution_noise",
    *BINARY_COVARIATES, "perception_accuracy", "noise_component", "spare",
)
N_NORMALS = 14
#: What each uniform of a group's row feeds.
GROUP_ROW = ("threshold", "interval_point", "success", "spare")
#: Counter-based streams: name -> (key purpose, uniforms per row).  Purpose 0
#: keys the arm permutation.
STREAMS = {"subject": (1, len(SUBJECT_ROW)), "group": (2, len(GROUP_ROW))}


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
class SimConfig:
    n_subjects: int = 1500
    arms: tuple[str, ...] = ARMS
    game: GameSpec = DEFAULT_GAME
    rule: BehavioralRule = BehavioralRule()
    resolution_policy: str = "uniform"
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
        for name in ("arm_effects", "risk_slope_by_arm"):
            absent = [a for a, _ in getattr(self, name) or () if a not in self.arms]
            if absent:
                raise ValueError(f"{name} gives arms that are not run: {absent}")
        _check_groups(self.n_subjects, len(self.arms), self.group_size)

    @property
    def group_size(self) -> int:
        """Groups are as large as the game: one subject per player."""
        return self.game.n_players


# --- random streams -------------------------------------------------------------

def draws(seed: int, stream: str, start: int, stop: int) -> np.ndarray:
    """Rows ``[start, stop)`` of a stream's uniforms in [0, 1), one row per
    subject or group; equal to the stream advanced to row ``start``."""
    if not 0 <= start <= stop:
        raise ValueError(f"bad row range [{start}, {stop})")
    purpose, width = STREAMS[stream]
    bitgen = np.random.Philox(np.random.SeedSequence([int(seed), purpose]))
    bitgen.advance(start * width // 4)  # one counter step yields four words
    words = bitgen.random_raw((stop - start) * width)
    return ((words >> np.uint64(11)) * 2.0 ** -53).reshape(stop - start, width)


def normals(u: np.ndarray) -> np.ndarray:
    """Box-Muller on the first ``N_NORMALS`` columns of subject rows: the pair
    (a, b) gives r cos t and r sin t, with r = sqrt(-2 ln(1 - a)), t = 2 pi b."""
    a, b = u[:, 0:N_NORMALS:2], u[:, 1:N_NORMALS:2]
    r = np.sqrt(-2.0 * np.array(list(map(math.log, (1.0 - a).ravel().tolist()))))
    t = (2.0 * math.pi * b).ravel().tolist()
    z = np.empty((len(u), N_NORMALS))
    z[:, 0::2] = (r * np.array(list(map(math.cos, t)))).reshape(a.shape)
    z[:, 1::2] = (r * np.array(list(map(math.sin, t)))).reshape(a.shape)
    return z


# --- randomization -----------------------------------------------------------

def randomize(
    n_subjects: int,
    arms: tuple[str, ...] = ARMS,
    seed: int = 0,
    group_size: int = 5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-probability arm assignment as (subject_id, treatment, group_id)
    columns sorted by subject: a seeded shuffle lines the subjects up, the
    arms take equal consecutive runs of the line, and consecutive blocks of
    ``group_size`` form groups.  Every subject must fill a complete group.
    """
    _check_groups(n_subjects, len(arms), group_size)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    place = np.argsort(rng.permutation(n_subjects))  # each subject's place in line
    return (np.arange(n_subjects), np.repeat(np.array(arms), n_subjects // len(arms))[place],
            place // group_size)


def _check_groups(n_subjects: int, n_arms: int, group_size: int) -> None:
    if n_subjects < 1 or not n_arms or n_subjects % (n_arms * group_size):
        raise ValueError(f"{n_subjects} subjects do not split into groups of {group_size} "
                         f"across {n_arms} arms; adjust n")


# --- covariates --------------------------------------------------------------

def draw_covariates(z: np.ndarray, u: np.ndarray) -> dict[str, np.ndarray]:
    """Covariate columns from subject rows: normals ``z``, uniforms ``u``."""
    col = SUBJECT_ROW.index
    rho = RISK_AMBIGUITY_LATENT_CORR
    z_amb = rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1]
    cov = {
        "risk_aversion": np.clip(RISK_LATENT[0] + RISK_LATENT[1] * z[:, 0], *RISK_BOUNDS),
        "ambiguity_aversion": np.clip(AMBIGUITY_LATENT[0] + AMBIGUITY_LATENT[1] * z_amb,
                                      *AMBIGUITY_BOUNDS),
    }
    for name, (mean, sd, lo, hi) in ROUNDED_COVARIATES.items():
        cov[name] = np.clip(np.rint(mean + sd * z[:, col(name)]), lo, hi)
    for name, p in BINARY_COVARIATES.items():
        cov[name] = (u[:, col(name)] < p).astype(float)
    return cov


def _linear(coefs: Mapping[str, float], values: Mapping[str, np.ndarray]):
    """``const`` plus each other coefficient times its named value, in order."""
    x = coefs["const"]
    for name, coef in coefs.items():
        if name != "const":
            x = x + coef * values[name]
    return x


# --- beliefs -----------------------------------------------------------------

def belief_index(cov: Mapping[str, np.ndarray]):
    """Noise-free belief about the other members' total contribution."""
    return _linear(BELIEF_COEFS, cov)


def gen_belief(
    cov: Mapping[str, np.ndarray], noise: np.ndarray, game: GameSpec = DEFAULT_GAME
) -> np.ndarray:
    """Beliefs in [0, what the others can give]: the index plus
    ``BELIEF_NOISE_SD`` times the standard normals ``noise``.  No treatment
    enters."""
    cap = (game.endowment * (game.n_players - 1)).euros
    return np.clip(belief_index(cov) + BELIEF_NOISE_SD * noise, 0.0, cap)


def is_pivotal(belief):
    """Whether a belief can swing threshold attainment, elementwise."""
    return (PIVOTAL_RANGE[0] <= belief) & (belief < PIVOTAL_RANGE[1])


# --- contributions -----------------------------------------------------------

def contribution_index(cov: Mapping[str, np.ndarray], belief):
    """Noise-free linear contribution index (euros, unrounded)."""
    return _linear(CONTRIBUTION_COEFS, {**cov, "belief": belief})


def round_to_grid(x, game: GameSpec = DEFAULT_GAME) -> np.ndarray:
    """Cents of the nearest grid point in [0, endowment]; exact halves round down."""
    q = np.asarray(x, dtype=float) / game.grid_step.euros
    k = np.floor(q + 0.5)
    k = np.clip(k - (q + 0.5 == k), 0, game.endowment // game.grid_step)
    return (k * game.grid_step.cents).astype(np.int64)


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


def _best_responses(
    risk: np.ndarray, belief: np.ndarray, curve: SuccessCurve, game: GameSpec
) -> np.ndarray:
    """Each subject's payoff-maximizing contribution in cents: the lowest one
    within ``TIE_TOL`` of the best of u(kept) * p(own + belief), with
    u(x) = x ** max(1 - risk aversion, 0.05); 1 is risk neutral."""
    grid = np.array([c.cents for c in game.contribution_grid()])
    kept = ((game.endowment.cents - grid) / 100.0).tolist()
    u = np.array([[x ** rho for x in kept] for rho in np.maximum(1.0 - risk, 0.05).tolist()])
    total = np.minimum(grid / 100.0 + belief[:, None], curve.domain_max.euros)
    payoff = u * curve.value_at_euros(total)
    return grid[np.argmax(payoff >= payoff.max(axis=1, keepdims=True) - TIE_TOL, axis=1)]


def gen_contribution(
    cov: Mapping[str, np.ndarray],
    treatment: np.ndarray,
    belief: np.ndarray,
    rule: BehavioralRule,
    noise: np.ndarray,
    component: np.ndarray,
    game: GameSpec = DEFAULT_GAME,
    index_shift=0.0,
) -> np.ndarray:
    """Contributions in cents, on the grid in [0, endowment], under ``rule``.

    ``noise`` (standard normal) and ``component`` (uniform) drive the paper
    rule's mixture noise.  ``index_shift`` lets the experiment pipeline inject
    arm effects or interaction terms without touching the calibrated base
    coefficients.
    """
    if rule.kind == "paper-calibrated-linear":
        x = contribution_index(cov, belief) + index_shift
        if rule.noise:
            w, mean_a, sd_a, mean_b, sd_b = CONTRIBUTION_NOISE
            x = x + np.where(component < w, mean_a + sd_a * noise, mean_b + sd_b * noise)
        return round_to_grid(x, game)
    if rule.kind == "altruist-fixed":
        if not game.on_grid(rule.fixed_contribution):
            raise ValueError(f"fixed contribution {rule.fixed_contribution} off the grid")
        return np.full(len(treatment), rule.fixed_contribution.cents, dtype=np.int64)
    out = np.empty(len(treatment), dtype=np.int64)
    for arm in sorted(set(treatment.tolist())):
        rows = treatment == arm
        if rule.kind == "equilibrium-selector":
            out[rows] = _equilibrium_contribution(
                arm, rule.pessimism, rule.equilibrium_pick, game).cents
        else:
            out[rows] = _best_responses(cov["risk_aversion"][rows], belief[rows],
                                        _arm_curve(arm, rule.pessimism, game), game)
    return out


# --- payoff realization ------------------------------------------------------

def resolution(
    scenario: AmbiguityScenario, policy: str
) -> tuple[tuple[Fraction, ...], Fraction | None]:
    """How ``policy`` resolves an arm's ambiguity: (threshold weights, interval point).

    The weights run over the threshold support, lowest first; a known
    distribution keeps its own.  The point says where an ambiguous success
    chance lands in its interval [lo, hi], as a share of the way from lo to
    hi; None is a uniform draw, whose mean is the midpoint.  It serves both
    the draw in ``realize_payoffs`` and the exact ``success_probability``.
    """
    if policy not in RESOLUTION_POLICIES:
        raise ValueError(f"unknown resolution policy {policy!r}")
    n = len(scenario.threshold.support)
    one, zeros = (Fraction(1),), (Fraction(0),) * (n - 1)
    weights, point = {
        "uniform": ((Fraction(1, n),) * n, None),
        "pessimistic": (zeros + one, Fraction(0)),
        "optimistic": (one + zeros, Fraction(1)),
    }[policy]
    return scenario.threshold.distribution or weights, point


def success_probability(
    scenario: AmbiguityScenario, total: Money, policy: str = "uniform"
) -> Fraction:
    """Marginal success chance over the threshold draw and the probability draw."""
    weights, point = resolution(scenario, policy)
    share = Fraction(1, 2) if point is None else point
    chance = Fraction(0)
    for threshold, w in zip(scenario.threshold.support, weights):
        interval = (scenario.p_success_if_met if total >= threshold
                    else scenario.p_success_if_unmet)
        chance += w * (interval.lo + share * (interval.hi - interval.lo))
    return chance


def realize_payoffs(
    treatment: np.ndarray,
    group_id: np.ndarray,
    contribution: np.ndarray,
    resolution_policy: str = "uniform",
    seed: int = 0,
    game: GameSpec = DEFAULT_GAME,
) -> dict[str, np.ndarray]:
    """Per subject: group total, drawn threshold, success and earnings, money
    in cents.  Group ``g`` draws from row ``g`` of the group stream.

    Earnings are game earnings only: endowment minus contribution on success,
    zero on loss.
    """
    n_groups = int(group_id.max(initial=-1)) + 1
    total = np.bincount(group_id, weights=contribution, minlength=n_groups).astype(np.int64)
    arm = np.empty(n_groups, dtype=treatment.dtype)
    arm[group_id] = treatment
    u = draws(seed, "group", 0, n_groups)
    threshold, chance = np.zeros(n_groups, dtype=np.int64), np.zeros(n_groups)
    for label in sorted(set(treatment.tolist())):
        g = arm == label
        scenario = make_scenario(label)
        weights, point = resolution(scenario, resolution_policy)
        support = np.array([t.cents for t in scenario.threshold.support])
        cumulative = [float(c) for c in itertools.accumulate(weights)]
        pick = np.searchsorted(cumulative, u[g, 0], side="right")
        threshold[g] = support[np.minimum(pick, len(support) - 1)]
        met = (total[g] >= threshold[g]).astype(np.int64)
        intervals = (scenario.p_success_if_unmet, scenario.p_success_if_met)
        lo = np.array([float(iv.lo) for iv in intervals])[met]
        width = np.array([float(iv.hi - iv.lo) for iv in intervals])[met]
        chance[g] = lo + width * (u[g, 1] if point is None else float(point))
    success = (u[:, 2] < chance)[group_id]
    return {"group_total": total[group_id], "threshold_drawn": threshold[group_id],
            "success": success.astype(np.int64),
            "earnings": np.where(success, game.endowment.cents - contribution, 0)}


# --- pipeline ----------------------------------------------------------------

def _by_arm(treatment: np.ndarray, values: Mapping[str, float], default: float) -> np.ndarray:
    out = np.full(len(treatment), default)
    for arm, value in values.items():
        out[treatment == arm] = value
    return out


def _index_shift(config: SimConfig, treatment: np.ndarray, risk: np.ndarray,
                 pivotal: np.ndarray, accuracy: np.ndarray) -> np.ndarray:
    shift = _by_arm(treatment, dict(config.arm_effects), 0.0)
    if config.risk_slope_by_arm is not None:
        base = CONTRIBUTION_COEFS["risk_aversion"]
        shift = shift + (_by_arm(treatment, dict(config.risk_slope_by_arm), base) - base) * risk
    if config.pivotal_effects is not None:
        base, cross = config.pivotal_effects
        shift = shift + (base * pivotal + cross * pivotal * accuracy)
    return shift


def simulate(config: SimConfig, seed: int) -> Dataset:
    """The experiment's columns; deterministic per (config, seed)."""
    subject_id, treatment, group_id = randomize(
        config.n_subjects, config.arms, seed, config.group_size)
    u = draws(seed, "subject", 0, config.n_subjects)[subject_id]
    z = normals(u)
    col = SUBJECT_ROW.index
    cov = draw_covariates(z, u)
    belief = gen_belief(cov, z[:, col("belief_noise")], config.game)
    accuracy = 100.0 * u[:, col("perception_accuracy")]
    pivotal = is_pivotal(belief).astype(float)
    shift = _index_shift(config, treatment, cov["risk_aversion"], pivotal, accuracy)
    contribution = gen_contribution(
        cov, treatment, belief, config.rule, z[:, col("contribution_noise")],
        u[:, col("noise_component")], config.game, shift)
    payoffs = realize_payoffs(treatment, group_id, contribution,
                              config.resolution_policy, seed, config.game)
    cols = {**cov, "subject_id": subject_id, "treatment": treatment, "group_id": group_id,
            "belief": belief, "perception_accuracy": accuracy, "pivotal": pivotal,
            "contribution": contribution / 100,
            **{name: cents / 100 for name, cents in payoffs.items() if name != "success"},
            "success": payoffs["success"]}
    return Dataset({name: cols[name] for name in CSV_COLUMNS})


# --- record adapters -------------------------------------------------------------

@dataclass(slots=True)
class SubjectRecord:
    """One row of ``simulate``'s output; money as ``Money``, covariates in order."""

    subject_id: int
    treatment: str
    group_id: int
    covariates: tuple[float, ...]
    belief_others_total: float
    perception_accuracy: float
    pivotal: int
    contribution: Money
    group_total: Money
    threshold_drawn: Money
    success: int
    earnings: Money


def run_experiment(config: SimConfig, seed: int) -> list[SubjectRecord]:
    """``simulate`` as one record per subject."""
    cols = simulate(config, seed).columns
    amounts: dict[int, Money] = {}  # Money is immutable: equal amounts share one object

    def money(name: str) -> list[Money]:
        cents = np.rint(cols[name] * 100).astype(np.int64).tolist()
        return [amounts.get(c) or amounts.setdefault(c, Money(c)) for c in cents]

    def ints(name: str) -> list[int]:
        return cols[name].astype(np.int64).tolist()

    rows = zip(ints("subject_id"), cols["treatment"].tolist(), ints("group_id"),
               zip(*(cols[name].tolist() for name in COVARIATES)), cols["belief"].tolist(),
               cols["perception_accuracy"].tolist(), ints("pivotal"), money("contribution"),
               money("group_total"), money("threshold_drawn"), ints("success"),
               money("earnings"))
    return [SubjectRecord(*row) for row in rows]


def records_to_dataset(records: list[SubjectRecord]) -> Dataset:
    """Records back to the columns ``simulate`` returns, bit for bit."""
    cols = {name: [r.covariates[i] for r in records] for i, name in enumerate(COVARIATES)}
    for name in ("subject_id", "treatment", "group_id", "perception_accuracy", "pivotal",
                 "success"):
        cols[name] = [getattr(r, name) for r in records]
    cols["belief"] = [r.belief_others_total for r in records]
    for name in ("contribution", "group_total", "threshold_drawn", "earnings"):
        cols[name] = np.array([getattr(r, name).cents for r in records], dtype=float) / 100
    return Dataset({name: np.array(cols[name], dtype=str if name == "treatment" else float)
                    for name in CSV_COLUMNS})
