import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import records
from fairaudit import (
    BinScheme,
    OutcomeValues,
    ThresholdPolicy,
    curve_from_counts,
    equalize_fpr,
    expected_values,
    optimal_threshold,
    policy_expected_disvalue,
    scenario_curve,
    scenario_spec,
)
from fairaudit.domain import ValidationError

ASYMMETRIC = OutcomeValues(v_tp=0.0, v_fp=-3.0, v_tn=0.0, v_fn=-1.0)


def random_values(rng: random.Random) -> OutcomeValues:
    v_fp = rng.uniform(-10, 10)
    v_tn = v_fp + rng.uniform(0.05, 10)
    v_fn = rng.uniform(-10, 10)
    v_tp = v_fn + rng.uniform(0.05, 10)
    return OutcomeValues(v_tp=v_tp, v_fp=v_fp, v_tn=v_tn, v_fn=v_fn)


def grid_crossover(values: OutcomeValues, step: float = 1e-3) -> float:
    """Independent oracle: first grid credence where acting weakly wins."""
    n = round(1 / step)
    for i in range(n + 1):
        p = i * step
        ev = expected_values(p, values)
        if ev.ev_act >= ev.ev_refrain:
            return p
    return 1.0


values_strategy = st.builds(
    random_values, st.integers(min_value=0, max_value=2**32).map(random.Random)
)


#: Two distinct finite floats, ascending.
_ORDERED_PAIR = st.lists(
    st.floats(allow_nan=False, allow_infinity=False),
    min_size=2, max_size=2, unique=True,
).map(sorted)


class TestExpectedValues:
    def test_certain_negative(self):
        ev = expected_values(0.0, ASYMMETRIC)
        assert ev.ev_act == ASYMMETRIC.v_fp
        assert ev.ev_refrain == ASYMMETRIC.v_tn

    def test_certain_positive(self):
        ev = expected_values(1.0, ASYMMETRIC)
        assert ev.ev_act == ASYMMETRIC.v_tp
        assert ev.ev_refrain == ASYMMETRIC.v_fn

    def test_indifference_exactly_at_p_star(self):
        # Oracle cross-check: the grid sweep locates the crossover at 0.75.
        assert grid_crossover(ASYMMETRIC) == pytest.approx(0.75, abs=1e-3)
        ev = expected_values(0.75, ASYMMETRIC)
        assert ev.ev_act == pytest.approx(-0.75)
        assert ev.ev_refrain == pytest.approx(-0.75)

    def test_rejects_out_of_range_credence(self):
        with pytest.raises(ValidationError):
            expected_values(1.2, ASYMMETRIC)

    @given(values_strategy, st.floats(min_value=0, max_value=1))
    def test_convex_combination_bounds(self, values, p):
        ev = expected_values(p, values)
        assert min(values.v_tp, values.v_fp) - 1e-12 <= ev.ev_act
        assert ev.ev_act <= max(values.v_tp, values.v_fp) + 1e-12
        assert min(values.v_tn, values.v_fn) - 1e-12 <= ev.ev_refrain
        assert ev.ev_refrain <= max(values.v_tn, values.v_fn) + 1e-12


class TestOptimalThreshold:
    def test_symmetric_values_midpoint(self):
        assert optimal_threshold(OutcomeValues(1, 0, 1, 0)) == 0.5

    def test_decimal_values_give_the_exact_p_star(self):
        # (0.4 - 0.1) / ((0.4 - 0.1) + (0.2 - 0.1)) is 3/4; in float
        # arithmetic it comes out as 0.7500000000000001.
        assert optimal_threshold(OutcomeValues(0.2, 0.1, 0.4, 0.1)) == 0.75

    @settings(deadline=None)
    @given(_ORDERED_PAIR, _ORDERED_PAIR)
    def test_p_star_is_the_exact_quotient_rounded_once(self, refrain, act):
        (v_fp, v_tn), (v_fn, v_tp) = refrain, act
        p_star = optimal_threshold(OutcomeValues(v_tp, v_fp, v_tn, v_fn))
        v_tp, v_fp, v_tn, v_fn = (
            Fraction(repr(v)) for v in (v_tp, v_fp, v_tn, v_fn)
        )
        exact = (v_tn - v_fp) / ((v_tn - v_fp) + (v_tp - v_fn))
        assert p_star == float(exact)

    def test_asymmetric_example_vs_grid_oracle(self):
        p_star = optimal_threshold(ASYMMETRIC)
        assert p_star == pytest.approx(0.75)
        assert abs(p_star - grid_crossover(ASYMMETRIC)) <= 1e-3

    def test_affine_invariance(self):
        v = ASYMMETRIC
        shifted = OutcomeValues(
            v_tp=2 * v.v_tp - 5,
            v_fp=2 * v.v_fp - 5,
            v_tn=2 * v.v_tn - 5,
            v_fn=2 * v.v_fn - 5,
        )
        assert optimal_threshold(shifted) == pytest.approx(
            optimal_threshold(v), abs=1e-12
        )

    @given(values_strategy, st.floats(min_value=0.1, max_value=5),
           st.floats(min_value=-20, max_value=20))
    def test_affine_invariance_property(self, values, a, b):
        mapped = OutcomeValues(
            v_tp=a * values.v_tp + b,
            v_fp=a * values.v_fp + b,
            v_tn=a * values.v_tn + b,
            v_fn=a * values.v_fn + b,
        )
        assert optimal_threshold(mapped) == pytest.approx(
            optimal_threshold(values), abs=1e-9
        )

    @given(values_strategy)
    def test_sign_agreement_with_ev_difference(self, values):
        p_star = optimal_threshold(values)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            ev = expected_values(p, values)
            diff = ev.ev_act - ev.ev_refrain
            if abs(diff) > 1e-9:
                assert (diff > 0) == (p > p_star)


class TestApplyPolicy:
    """A policy acts on every record of a cell whose p_score is at least
    the group's threshold, so its decisions are read off confusion counts."""

    def test_stride_uniform_half_acts_on_high_bin(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        for g in curve.groups:
            cm = curve.confusion(g, 0.5)
            acted = sum(
                score >= 160.0 for group, score, _ in records(spec.cells)
                if group == g
            )
            assert (cm.tp + cm.fp, cm.tn + cm.fn) == (acted, cm.n - acted)

    def test_zero_threshold_acts_on_everyone(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        for g in curve.groups:
            cm = curve.confusion(g, 0.0)
            assert cm.tn + cm.fn == 0

    def test_differential_thresholds_split_equal_p_scores(self):
        # Equalization-style per-group thresholds: white detained at the
        # high bin while black defendants with the same p_score band are not.
        spec = scenario_spec("compas_synthetic")
        curve = scenario_curve(spec.bins, spec.cells)
        policy = ThresholdPolicy.per_group({"white": 0.5, "black": 0.9})
        acted = {}
        for g in curve.groups:
            cm = curve.confusion(g, policy.threshold_for(g))
            acted[g] = cm.tp + cm.fp
        assert acted["white"] > 0
        assert acted["black"] == 0

    def test_deterministic_and_idempotent(self):
        spec = scenario_spec("compas_synthetic")
        curve = scenario_curve(spec.bins, spec.cells)
        policy = ThresholdPolicy.uniform(0.5)
        decide = lambda: [
            curve.confusion(g, policy.threshold_for(g)) for g in curve.groups
        ]
        assert decide() == decide()


class TestPolicyExpectedDisvalue:
    def test_single_record_expected_contribution(self):
        values = OutcomeValues(v_tp=1, v_fp=-1, v_tn=1, v_fn=-1)
        ev = expected_values(0.8, values)
        assert ev.ev_act == pytest.approx(0.8 * 1 + 0.2 * -1)

    def test_never_act_on_all_negative_population_is_perfect(self):
        spec = scenario_spec("certainty_lottery")
        curve = scenario_curve(spec.bins, spec.cells)
        values = OutcomeValues(v_tp=1, v_fp=0, v_tn=1, v_fn=0)
        assessment = policy_expected_disvalue(
            curve, ThresholdPolicy.uniform(0.5), values
        )
        assert assessment.total.realized_value == len(records(spec.cells)) * values.v_tn
        assert assessment.total.expected_disvalue == 0.0

    def test_totals_are_group_sums(self):
        spec = scenario_spec("compas_synthetic")
        curve = scenario_curve(spec.bins, spec.cells)
        a = policy_expected_disvalue(
            curve, ThresholdPolicy.uniform(0.5), OutcomeValues(1, 0, 1, 0)
        )
        total = a.total
        assert total.n == sum(g.n for g in a.per_group.values())
        assert total.expected_value == pytest.approx(
            sum(g.expected_value for g in a.per_group.values())
        )

    @pytest.mark.parametrize("scenario", ["stride_height", "compas_synthetic"])
    def test_uniform_p_star_minimizes_expected_disvalue(self, scenario):
        # Exhaustive threshold sweep: no uniform threshold beats p*.
        spec = scenario_spec(scenario)
        curve = scenario_curve(spec.bins, spec.cells)
        values = OutcomeValues(1, 0, 1, 0)
        p_star = optimal_threshold(values)
        best = policy_expected_disvalue(
            curve, ThresholdPolicy.uniform(p_star), values
        ).total.expected_disvalue
        candidates = {i / 100 for i in range(101)}
        candidates.update(
            curve.p_score(g, cell.bin)
            for g, cells in curve.by_group.items()
            for cell in cells
        )
        for t in sorted(candidates):
            cost = policy_expected_disvalue(
                curve, ThresholdPolicy.uniform(t), values
            ).total.expected_disvalue
            assert cost >= best - 1e-9


def test_value_sums_past_the_largest_float_are_rejected():
    # Each value and each group's value sum is finite (1e308); only the
    # totals over both groups overflow.
    curve = curve_from_counts(
        BinScheme(edges=(0.0, 1.0, 2.0)), [("a", 1, 1, 1), ("b", 1, 1, 1)]
    )
    values = OutcomeValues(v_tp=1e308, v_fp=0.0, v_tn=1e308, v_fn=0.0)
    policy = ThresholdPolicy.uniform(0.5)
    assert values.value_of(curve.confusion("a", 0.5)) == 1e308
    with pytest.raises(ValidationError, match="rescale --values"):
        policy_expected_disvalue(curve, policy, values)
    with pytest.raises(ValidationError, match="rescale --values"):
        equalize_fpr(curve, policy, tolerance=1e-9, values=values)
