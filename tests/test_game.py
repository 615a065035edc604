from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thresholdgame.game import (
    DEFAULT_GAME,
    AmbiguityScenario,
    GameSpec,
    ProbInterval,
    SuccessCurve,
    ThresholdSpec,
    TREATMENTS,
    build_success_curve,
    make_scenario,
    prob_to_str,
)
from thresholdgame.money import Money

E = Money.from_euros
F = Fraction

# The step functions the curve builder must reproduce exactly, pessimist
# (alpha=1) and optimist (alpha=0) benchmarks.
PESSIMIST_CURVES = {
    "RR": [(0, F(1, 10)), (5, F(1, 2)), (10, F(9, 10))],
    "RA": [(0, F(1, 10)), (10, F(9, 10))],
    "AR": [(0, F(0)), (5, F(2, 5)), (10, F(4, 5))],
    "AA": [(0, F(0)), (10, F(4, 5))],
}
OPTIMIST_CURVES = {
    "RR": [(0, F(1, 10)), (5, F(1, 2)), (10, F(9, 10))],
    "RA": [(0, F(1, 10)), (5, F(9, 10))],
    "AR": [(0, F(1, 5)), (5, F(3, 5)), (10, F(1))],
    "AA": [(0, F(1, 5)), (5, F(1))],
}


def steps(curve):
    return [(c.cents // 100, p) for c, p in curve.breakpoints]


def test_make_scenario_canonical_parameters():
    rr = make_scenario("RR")
    assert rr.threshold.support == (E(5), E(10))
    assert rr.threshold.distribution == (F(1, 2), F(1, 2))
    assert rr.p_success_if_met == ProbInterval.point(F(9, 10))
    assert rr.p_success_if_unmet == ProbInterval.point(F(1, 10))

    aa = make_scenario("AA")
    assert aa.threshold.distribution is None
    assert aa.p_success_if_met == ProbInterval(F(4, 5), F(1))
    assert aa.p_success_if_unmet == ProbInterval(F(0), F(1, 5))

    ar = make_scenario("AR")
    assert ar.threshold.distribution == (F(1, 2), F(1, 2))
    assert ar.p_success_if_met == ProbInterval(F(4, 5), F(1))

    ra = make_scenario("RA")
    assert ra.threshold.distribution is None
    assert ra.p_success_if_met == ProbInterval.point(F(9, 10))


def test_make_scenario_rejects_unknown_label():
    with pytest.raises(ValueError):
        make_scenario("XX")


@pytest.mark.parametrize("label", TREATMENTS)
def test_pessimist_curves_exact(label):
    curve = build_success_curve(make_scenario(label), 1.0)
    assert steps(curve) == PESSIMIST_CURVES[label]


@pytest.mark.parametrize("label", TREATMENTS)
def test_optimist_curves_exact(label):
    curve = build_success_curve(make_scenario(label), 0.0)
    assert steps(curve) == OPTIMIST_CURVES[label]


def test_blended_curve_averages_extremes():
    curve = build_success_curve(make_scenario("AA"), 0.5)
    assert curve.value_at(E(12)) == F(9, 10)


def test_eval_curve_boundaries():
    rr = build_success_curve(make_scenario("RR"), 1.0)
    assert rr.value_at(E(5)) == F(1, 2)  # breakpoint belongs to the upper step
    assert rr.value_at(E(0)) == F(1, 10)
    assert rr.value_at(E(4)) == F(1, 10)
    assert rr.value_at(E(25)) == F(9, 10)


def test_eval_curve_fine_grid_below_breakpoint():
    game = GameSpec(grid_step=Money(1))
    ra = build_success_curve(make_scenario("RA"), 1.0, game)
    assert ra.value_at(Money(999)) == F(1, 10)  # 9.99 still on the low step


def test_value_at_euros_absorbs_binary_error_only():
    # 2.55 * 100 == 254.99999999999997 in binary floating point.
    odd = SuccessCurve(((Money(0), F(1, 10)), (Money(255), F(9, 10))), E(25))
    assert odd.value_at(Money(255)) == F(9, 10)
    assert odd.value_at_euros([2.55, 2.549]).tolist() == [0.9, 0.1]
    rr = build_success_curve(make_scenario("RR"), 1.0)
    # 4.996 is not rounded up to the 5 threshold
    assert rr.value_at_euros([[4.996, 5.0], [0.0, 25.0]]).tolist() == [[0.1, 0.5], [0.1, 0.9]]
    with pytest.raises(ValueError):
        rr.value_at_euros([5.0, 25.01])


def test_eval_curve_rejects_out_of_domain():
    rr = build_success_curve(make_scenario("RR"), 1.0)
    with pytest.raises(ValueError):
        rr.value_at(E(26))
    with pytest.raises(ValueError):
        rr.value_at(Money(-1))


@given(
    label=st.sampled_from(TREATMENTS),
    alpha_pair=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
@settings(max_examples=60)
def test_curves_monotone_in_total_and_pessimism(label, alpha_pair):
    lo_alpha, hi_alpha = sorted(alpha_pair)
    scenario = make_scenario(label)
    more_pessimistic = build_success_curve(scenario, hi_alpha)
    less_pessimistic = build_success_curve(scenario, lo_alpha)
    totals = [Money(c) for c in range(0, 2501, 100)]
    values = [more_pessimistic.value_at(t) for t in totals]
    assert all(b >= a for a, b in zip(values, values[1:]))
    for t in totals:
        assert more_pessimistic.value_at(t) <= less_pessimistic.value_at(t)


@given(alpha=st.floats(0, 1))
@settings(max_examples=40)
def test_rr_curve_invariant_in_alpha(alpha):
    curve = build_success_curve(make_scenario("RR"), alpha)
    assert steps(curve) == PESSIMIST_CURVES["RR"]


def test_build_rejects_bad_alpha():
    with pytest.raises(ValueError):
        build_success_curve(make_scenario("RR"), 1.5)


def test_scenario_validation():
    with pytest.raises(ValueError):
        ThresholdSpec((E(5), E(10)), (F(1, 2), F(1, 3)))  # does not sum to 1
    with pytest.raises(ValueError):
        ThresholdSpec((E(10), E(5)), None)  # not increasing
    with pytest.raises(ValueError):
        ProbInterval(F(9, 10), F(1, 10))  # reversed
    with pytest.raises(ValueError):
        AmbiguityScenario(
            "RR",
            ThresholdSpec((E(5),), (F(1),)),
            p_success_if_met=ProbInterval.point(F(1, 10)),
            p_success_if_unmet=ProbInterval.point(F(9, 10)),
        )


def test_success_curve_validation():
    with pytest.raises(ValueError):
        SuccessCurve(((E(1), F(1, 2)),), E(25))  # must start at 0
    with pytest.raises(ValueError):
        SuccessCurve(((E(0), F(1, 2)), (E(5), F(1, 4))), E(25))  # decreasing


def test_prob_to_str_exactness():
    assert prob_to_str(F(9, 10)) == "0.9"
    assert prob_to_str(F(1, 2)) == "0.5"
    assert prob_to_str(F(0)) == "0"
    assert prob_to_str(F(1)) == "1"
    assert prob_to_str(F(1, 3)) == "1/3"
    assert Fraction("0.9") == F(9, 10)


def test_game_spec_validation():
    assert DEFAULT_GAME.max_total == E(25)
    assert len(DEFAULT_GAME.contribution_grid()) == 6
    with pytest.raises(ValueError):
        GameSpec(endowment=Money(550), grid_step=Money(100))
    fine = GameSpec(grid_step=Money(50))
    assert len(fine.contribution_grid()) == 11
