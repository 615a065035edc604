"""Game setup: players, contribution grid, uncertainty scenarios, success curves.

A group of ``n_players`` each holds ``endowment``; total contributions ``C``
determine the probability ``p(C)`` that the group avoids losing everything.
Two dimensions can be risky (known distribution) or ambiguous (set of
admissible distributions): the provision threshold, and the loss probability
on either side of it.

The effective ``p(C)`` under a pessimism weight ``alpha`` is built pointwise:

    p(C) = alpha * p_min(C) + (1 - alpha) * p_max(C)

where ``p_min``/``p_max`` pick, independently at each C, the worst/best
admissible threshold distribution and the worst/best admissible loss
probability.  This is exactly the alpha-mix of the pessimistic and optimistic
evaluations: the prior enters a player's payoff only through the non-negative
multiplier p(C), so minimizing (maximizing) expected utility over priors is
the same as minimizing (maximizing) p at each total separately, and the
alpha-weighted combination of the two extremes equals the alpha-weighted
worst/best-case evaluation.  alpha=1 is the pure pessimist, alpha=0 the pure
optimist; intermediate alphas are a convex blend of the two.
"""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .money import Money

TREATMENTS = ("RR", "RA", "AR", "AA")


def as_prob(value: Fraction | int | str) -> Fraction:
    """Coerce to an exact probability in [0, 1]."""
    p = Fraction(value)
    if not 0 <= p <= 1:
        raise ValueError(f"probability out of [0,1]: {value!r}")
    return p


def prob_to_str(p: Fraction) -> str:
    """Exact string form: decimal when the denominator allows it, else 'n/d'."""
    num, den = p.numerator, p.denominator
    d = den
    for base in (2, 5):
        while d % base == 0:
            d //= base
    if d != 1:
        return f"{num}/{den}"
    # Decimal expansion terminates; emit it with exact arithmetic.
    digits = 0
    x = p
    while x.denominator != 1:
        x *= 10
        digits += 1
    whole = int(x)
    if digits == 0:
        return str(whole)
    s = str(abs(whole)).rjust(digits + 1, "0")
    sign = "-" if whole < 0 else ""
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


@dataclass(frozen=True)
class ProbInterval:
    """A probability known only to lie in [lo, hi]; a point value has lo == hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_prob(self.lo))
        object.__setattr__(self, "hi", as_prob(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, p: Fraction | int | str) -> ProbInterval:
        p = as_prob(p)
        return cls(p, p)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class ThresholdSpec:
    """Provision-threshold uncertainty: a known distribution or an ambiguous support.

    ``distribution`` maps each support point to its probability (exact
    rationals summing to 1) when the distribution is known; it is ``None``
    when any distribution over ``support`` is admissible.
    """

    support: tuple[Money, ...]
    distribution: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("threshold support is empty")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise ValueError("threshold support must be strictly increasing")
        if self.distribution is not None:
            probs = tuple(as_prob(p) for p in self.distribution)
            object.__setattr__(self, "distribution", probs)
            if len(probs) != len(self.support):
                raise ValueError("one probability per support point required")
            if sum(probs) != 1:
                raise ValueError(f"threshold probabilities sum to {sum(probs)}, not 1")

    @property
    def is_ambiguous(self) -> bool:
        return self.distribution is None

    def met_probability_bounds(self, total: Money) -> tuple[Fraction, Fraction]:
        """Min and max of P(threshold <= total) over admissible distributions."""
        if self.distribution is not None:
            q = sum((p for t, p in zip(self.support, self.distribution) if t <= total),
                    Fraction(0))
            return q, q
        lo = Fraction(1) if self.support[-1] <= total else Fraction(0)
        hi = Fraction(1) if self.support[0] <= total else Fraction(0)
        return lo, hi


@dataclass(frozen=True)
class AmbiguityScenario:
    """One treatment arm: threshold uncertainty plus loss-probability uncertainty.

    ``p_success_if_met``/``p_success_if_unmet`` are the success probabilities
    when total contributions do / do not reach the drawn threshold.
    """

    label: str
    threshold: ThresholdSpec
    p_success_if_met: ProbInterval
    p_success_if_unmet: ProbInterval

    def __post_init__(self) -> None:
        met, unmet = self.p_success_if_met, self.p_success_if_unmet
        if met.lo < unmet.lo or met.hi < unmet.hi:
            raise ValueError("meeting the threshold must never reduce success chances")


def make_scenario(label: str) -> AmbiguityScenario:
    """Canonical parameterization of a treatment arm.

    First letter: loss-probability dimension; second letter: threshold
    dimension; R = risk (known distribution), A = ambiguity.  Thresholds are
    5 or 10 euros (equally likely under risk); success probability is 0.9/0.1
    under risk and at-least-0.8 / at-most-0.2 under ambiguity.
    """
    if label not in TREATMENTS:
        raise ValueError(f"unknown treatment label {label!r}; expected one of {TREATMENTS}")
    support = (Money.from_euros(5), Money.from_euros(10))
    if label[1] == "R":
        threshold = ThresholdSpec(support, (Fraction(1, 2), Fraction(1, 2)))
    else:
        threshold = ThresholdSpec(support, None)
    if label[0] == "R":
        met = ProbInterval.point(Fraction(9, 10))
        unmet = ProbInterval.point(Fraction(1, 10))
    else:
        met = ProbInterval(Fraction(4, 5), Fraction(1))
        unmet = ProbInterval(Fraction(0), Fraction(1, 5))
    return AmbiguityScenario(label, threshold, met, unmet)


@dataclass(frozen=True)
class GameSpec:
    """Players, endowment and the contribution grid."""

    n_players: int = 5
    endowment: Money = Money.from_euros(5)
    grid_step: Money = Money.from_euros(1)

    def __post_init__(self) -> None:
        if self.n_players < 1:
            raise ValueError("need at least one player")
        if self.grid_step.cents <= 0:
            raise ValueError("grid step must be positive")
        if not self.endowment.is_multiple_of(self.grid_step):
            raise ValueError("endowment must be a multiple of the grid step")

    @property
    def max_total(self) -> Money:
        return self.endowment * self.n_players

    def contribution_grid(self) -> list[Money]:
        n = self.endowment // self.grid_step
        return [self.grid_step * i for i in range(n + 1)]

    def on_grid(self, amount: Money) -> bool:
        return Money(0) <= amount <= self.endowment and amount.is_multiple_of(self.grid_step)


DEFAULT_GAME = GameSpec()


@dataclass(frozen=True)
class SuccessCurve:
    """Step function C -> p(C): the value at C is the probability attached to
    the highest breakpoint with threshold <= C (right-open steps)."""

    breakpoints: tuple[tuple[Money, Fraction], ...]
    domain_max: Money
    label: str = ""
    alpha: float = 1.0
    #: Totals at which a symmetric equilibrium is possible: 0 plus the
    #: scenario's threshold support (steps merged away remain candidates).
    candidate_totals: tuple[Money, ...] = ()

    def __post_init__(self) -> None:
        if not self.breakpoints or self.breakpoints[0][0] != Money(0):
            raise ValueError("first breakpoint must be at C = 0")
        probs = [p for _, p in self.breakpoints]
        cs = [c for c, _ in self.breakpoints]
        if any(b <= a for a, b in zip(cs, cs[1:])):
            raise ValueError("breakpoints must be strictly increasing in C")
        if any(not 0 <= p <= 1 for p in probs):
            raise ValueError("step values must be probabilities")
        if any(b < a for a, b in zip(probs, probs[1:])):
            raise ValueError("success probability may not decrease in C")
        object.__setattr__(self, "_cents", tuple(c.cents for c, _ in self.breakpoints))

    def value_at(self, total: Money) -> Fraction:
        if not Money(0) <= total <= self.domain_max:
            raise ValueError(
                f"total {total} outside curve domain [0, {self.domain_max}]")
        i = bisect.bisect_right(self._cents, total.cents) - 1
        return self.breakpoints[i][1]

    def value_at_euros(self, total: float) -> Fraction:
        """Step lookup for a real-valued total (beliefs need not sit on the grid)."""
        if not 0 <= total <= self.domain_max.euros:
            raise ValueError(
                f"total {total} outside curve domain [0, {self.domain_max.euros}]")
        # The 1e-9 absorbs binary error (2.55 * 100 == 254.99...) without
        # rounding up a total that is truly below a cent boundary.
        i = bisect.bisect_right(self._cents, math.floor(total * 100 + 1e-9)) - 1
        return self.breakpoints[i][1]

    def steps(self) -> list[tuple[Money, Fraction]]:
        return list(self.breakpoints)


def build_success_curve(
    scenario: AmbiguityScenario,
    alpha: float | Fraction,
    game: GameSpec = DEFAULT_GAME,
) -> SuccessCurve:
    """Effective p(C) for a pessimism weight alpha in [0, 1].

    See the module docstring for why the pointwise alpha-mix of the extreme
    curves equals the alpha-weighted worst/best-case evaluation.  alpha is
    converted to an exact rational so step values stay exact.
    """
    a = Fraction(alpha)
    if not 0 <= a <= 1:
        raise ValueError(f"alpha must be in [0,1], got {alpha}")
    met, unmet = scenario.p_success_if_met, scenario.p_success_if_unmet
    candidates = [Money(0)] + [t for t in scenario.threshold.support if t <= game.max_total]
    points: list[tuple[Money, Fraction]] = []
    for c in candidates:
        q_lo, q_hi = scenario.threshold.met_probability_bounds(c)
        p_min = q_lo * met.lo + (1 - q_lo) * unmet.lo
        p_max = q_hi * met.hi + (1 - q_hi) * unmet.hi
        p = a * p_min + (1 - a) * p_max
        if points and points[-1][1] == p:
            continue  # merge equal adjacent steps
        points.append((c, p))
    return SuccessCurve(tuple(points), game.max_total, scenario.label, float(a),
                        tuple(candidates))


def eval_curve(curve: SuccessCurve, total: Money) -> Fraction:
    """Step value at ``total``; breakpoints belong to the step they start."""
    return curve.value_at(total)


# --- JSON wire format -------------------------------------------------------

def scenario_to_json(scenario: AmbiguityScenario) -> str:
    thresholds = []
    for i, t in enumerate(scenario.threshold.support):
        entry: dict = {"value": str(t)}
        if scenario.threshold.distribution is not None:
            entry["prob"] = prob_to_str(scenario.threshold.distribution[i])
        thresholds.append(entry)
    doc = {
        "label": scenario.label,
        "thresholds": thresholds,
        "ambiguous_threshold": scenario.threshold.is_ambiguous,
        "p_met": [prob_to_str(scenario.p_success_if_met.lo),
                  prob_to_str(scenario.p_success_if_met.hi)],
        "p_unmet": [prob_to_str(scenario.p_success_if_unmet.lo),
                    prob_to_str(scenario.p_success_if_unmet.hi)],
    }
    return json.dumps(doc, indent=2)


def scenario_from_json(text: str) -> AmbiguityScenario:
    doc = json.loads(text)
    support = tuple(Money.parse(e["value"]) for e in doc["thresholds"])
    if doc["ambiguous_threshold"]:
        dist = None
    else:
        dist = tuple(Fraction(e["prob"]) for e in doc["thresholds"])
    return AmbiguityScenario(
        label=doc["label"],
        threshold=ThresholdSpec(support, dist),
        p_success_if_met=ProbInterval(Fraction(doc["p_met"][0]), Fraction(doc["p_met"][1])),
        p_success_if_unmet=ProbInterval(Fraction(doc["p_unmet"][0]), Fraction(doc["p_unmet"][1])),
    )
