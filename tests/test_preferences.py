import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import check_condition

from thresholdgame.game import DEFAULT_GAME, build_success_curve, make_scenario
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
    utility_from_json,
)
from thresholdgame.solver import PayoffTable

E = Money.from_euros
F = Fraction


def curve(label, alpha=1.0):
    return build_success_curve(make_scenario(label), alpha)


def objective(u, label):
    """u(5 - c) * p(c + others) at [own euros, others' euros] on the default grid."""
    c = curve(label)
    return np.array([[u(5.0 - own) * float(c.value_at(E(own + others))) for others in range(21)]
                     for own in range(6)])


# --- utilities ----------------------------------------------------------------

def test_power_utility_basics():
    u = PowerUtility(1.0)
    assert u(0.0) == 0.0
    assert u(5.0) == 5.0
    assert PowerUtility(8)(5.0) == 5.0 ** 8
    with pytest.raises(ValueError):
        PowerUtility(0.0)
    with pytest.raises(ValueError):
        u(-1.0)


def test_table_utility_interpolates():
    u = TableUtility([(0, 0), (2, 1), (5, 4)])
    assert u(0) == 0
    assert u(1) == 0.5
    assert u(3.5) == 2.5
    assert u(5) == 4
    with pytest.raises(ValueError):
        u(6)


def test_table_utility_validation():
    with pytest.raises(ValueError):
        TableUtility([(1, 1), (2, 2)])  # missing (0,0)
    with pytest.raises(ValueError):
        TableUtility([(0, 0), (2, 1), (3, 1)])  # not strictly increasing


def test_utility_from_json():
    assert utility_from_json({"family": "power", "rho": 2.0}).rho == 2.0
    table = utility_from_json({"family": "table", "points": [[0, 0], [5, 1]]})
    assert table(5) == 1
    with pytest.raises(ValueError):
        utility_from_json({"family": "cobb-douglas"})


# --- objective ----------------------------------------------------------------

def test_objective_examples():
    rn = PowerUtility(1.0)
    assert objective(rn, "RR")[1, 4] == pytest.approx(2.0)
    assert objective(rn, "AR")[2, 8] == pytest.approx(2.4)
    assert objective(PowerUtility(3), "RR")[5, 10] == 0.0


def test_objective_rejects_overcontribution():
    # One row per contribution on the grid, none above the endowment; keeping
    # a negative amount has no utility.
    assert PayoffTable(curve("RR"), PowerUtility(1.0), DEFAULT_GAME).nash.shape == (6, 21)
    with pytest.raises(ValueError):
        PowerUtility(1.0)((E(5) - E(6)).euros)


def test_objective_decreasing_on_flat_step():
    # others at 10 keeps every own contribution on the top step of RR
    values = objective(PowerUtility(1.0), "RR")[:, 10].tolist()
    assert all(b < a for a, b in zip(values, values[1:]))


# --- equilibrium conditions -----------------------------------------------------

def condition_id(value):
    """"any" for the empty conjunction; pytest's own id for everything else."""
    return "any" if value == HOLDS_FOR_ANY_U else None


PESSIMIST_CONDITIONS = {
    ("RR", 0): HOLDS_FOR_ANY_U,
    ("RR", 5): (EqCondition(E(5), F(5), E(4)),),
    ("RR", 10): (EqCondition(E(5), F(9, 5), E(3)),),
    ("RA", 0): HOLDS_FOR_ANY_U,
    ("RA", 5): NEVER_EQUILIBRIUM,
    ("RA", 10): (EqCondition(E(5), F(9), E(3)),),
    ("AR", 0): NEVER_EQUILIBRIUM,
    ("AR", 5): HOLDS_FOR_ANY_U,
    ("AR", 10): (EqCondition(E(5), F(2), E(3)),),
    ("AA", 0): NEVER_EQUILIBRIUM,
    ("AA", 5): NEVER_EQUILIBRIUM,
    ("AA", 10): HOLDS_FOR_ANY_U,
}
OPTIMIST_CONDITIONS = {
    ("RR", 0): HOLDS_FOR_ANY_U,
    ("RR", 5): (EqCondition(E(5), F(5), E(4)),),
    ("RR", 10): (EqCondition(E(5), F(9, 5), E(3)),),
    ("RA", 0): HOLDS_FOR_ANY_U,
    ("RA", 5): (EqCondition(E(5), F(9), E(4)),),
    ("RA", 10): NEVER_EQUILIBRIUM,
    ("AR", 0): HOLDS_FOR_ANY_U,
    ("AR", 5): (EqCondition(E(5), F(3), E(4)),),
    ("AR", 10): (EqCondition(E(5), F(5, 3), E(3)),),
    ("AA", 0): HOLDS_FOR_ANY_U,
    ("AA", 5): (EqCondition(E(5), F(5), E(4)),),
    ("AA", 10): NEVER_EQUILIBRIUM,
}


@pytest.mark.parametrize("key,expected", sorted(PESSIMIST_CONDITIONS.items(),
                                                key=lambda kv: kv[0]), ids=condition_id)
def test_pessimist_conditions(key, expected):
    label, total = key
    assert condition_from_curve(curve(label, 1.0), E(total)) == expected


@pytest.mark.parametrize("key,expected", sorted(OPTIMIST_CONDITIONS.items(),
                                                key=lambda kv: kv[0]), ids=condition_id)
def test_optimist_conditions(key, expected):
    label, total = key
    assert condition_from_curve(curve(label, 0.0), E(total)) == expected


def test_condition_rejects_non_canonical_total():
    with pytest.raises(ValueError):
        condition_from_curve(curve("RR"), E(3))


def test_eq_condition_validation():
    with pytest.raises(ValueError):
        EqCondition(E(5), F(-1), E(3))
    with pytest.raises(ValueError):
        EqCondition(E(5), F(1), E(5))
    with pytest.raises(ValueError):
        EqCondition(E(0), F(1), E(3))
    # lhs < rhs is a lower bound on u's curvature
    assert str(EqCondition(E(3), F(5, 6), E(4))) == "u(3) < 5/6*u(4)"


def test_check_condition_examples():
    mid = EqCondition(E(5), F(5), E(4))
    high = EqCondition(E(5), F(9, 5), E(3))
    assert check_condition(mid, PowerUtility(1.0))        # 5 < 20
    assert check_condition(high, PowerUtility(1.0))       # 5 < 5.4
    assert not check_condition(high, PowerUtility(8.0))   # 390625 >= 1.8 * 6561
    tie = EqCondition(E(5), F(5, 3), E(3))
    assert not check_condition(tie, PowerUtility(1.0))    # exact tie is not strict


def test_power_threshold_closed_forms():
    cases = [
        (EqCondition(E(5), F(9, 5), E(3)), math.log(1.8) / math.log(5 / 3)),
        (EqCondition(E(5), F(5), E(4)), math.log(5) / math.log(1.25)),
        (EqCondition(E(5), F(9), E(3)), math.log(9) / math.log(5 / 3)),
    ]
    for cond, expected in cases:
        assert power_threshold(cond) == pytest.approx(expected, abs=1e-12)
    assert power_threshold(cases[0][0]) == pytest.approx(1.1507, abs=2e-3)
    assert power_threshold(cases[1][0]) == pytest.approx(7.2135, abs=2e-3)
    assert power_threshold(cases[2][0]) == pytest.approx(4.3013, abs=2e-3)


def test_power_threshold_rejects_degenerate():
    with pytest.raises(ValueError):
        power_threshold(EqCondition(E(5), F(2), E(5)))


def bisect_threshold(cond, lo=0.01, hi=50.0, tol=1e-10):
    """Independent check: find where check_condition flips by bisection."""
    assert check_condition(cond, PowerUtility(lo))
    assert not check_condition(cond, PowerUtility(hi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if check_condition(cond, PowerUtility(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("cond", [
    EqCondition(E(5), F(9, 5), E(3)),
    EqCondition(E(5), F(5), E(4)),
    EqCondition(E(5), F(9), E(3)),
    EqCondition(E(5), F(2), E(3)),
])
def test_bisection_agrees_with_closed_form(cond):
    assert bisect_threshold(cond) == pytest.approx(power_threshold(cond), abs=1e-4)


@given(rho=st.floats(0.05, 20.0))
@settings(max_examples=80)
def test_condition_holds_iff_below_threshold(rho):
    cond = EqCondition(E(5), F(9, 5), E(3))
    rho_star = power_threshold(cond)
    if abs(rho - rho_star) > 1e-9:  # knife edge needs exact-arithmetic care
        assert check_condition(cond, PowerUtility(rho)) == (rho < rho_star)
    assert condition_sign((cond,), PowerUtility(rho)) == (rho < rho_star) - (rho > rho_star)


def test_condition_sign_of_table_utilities_and_of_non_inequalities():
    cond = EqCondition(E(5), F(5), E(4))  # u(5) < 5*u(4), with u(4) = 1 below
    assert [condition_sign((cond,), TableUtility([(0, 0), (4, 1), (5, top)]))
            for top in (5 - 4e-13, 5.0, 5 + 4e-13)] == [1, 0, -1]
    assert condition_sign((cond,), PowerUtility(power_threshold(cond))) == 0
    assert condition_sign(HOLDS_FOR_ANY_U, PowerUtility(1.0)) == 1
    assert condition_sign(NEVER_EQUILIBRIUM, PowerUtility(1.0)) is None


def test_mid_total_condition_weaker_when_threshold_ambiguous():
    rr, = condition_from_curve(curve("RR", 1.0), E(10))
    ra, = condition_from_curve(curve("RA", 1.0), E(10))
    assert power_threshold(ra) > power_threshold(rr)


def test_high_total_condition_weaker_when_loss_ambiguous():
    rr, = condition_from_curve(curve("RR", 1.0), E(10))
    ar, = condition_from_curve(curve("AR", 1.0), E(10))
    assert ar.factor == F(2) and rr.factor == F(9, 5)
    assert power_threshold(ar) > power_threshold(rr)
    assert condition_from_curve(curve("AR", 1.0), E(5)) == HOLDS_FOR_ANY_U
    assert len(condition_from_curve(curve("RR", 1.0), E(5))) == 1
