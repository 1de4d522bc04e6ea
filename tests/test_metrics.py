import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import records
from fairaudit import (
    BinScheme,
    ConfusionMatrix,
    calibration_gap,
    scenario_curve,
    scenario_spec,
)
from fairaudit.domain import ValidationError
from reference import chance_miscalibration_bound, curve_from_counts


def base_rate(name, group):
    """A group's positive fraction in a named fixture, read off its curve's
    confusion counts."""
    spec = scenario_spec(name)
    return scenario_curve(spec.bins, spec.cells).confusion(group, 0.5).base_rate


def binomial_two_sided_tail(n: int, p: float, gap: float) -> float:
    """Brute-force P(|X/n - p| >= gap) for X ~ Binomial(n, p)."""
    return sum(
        math.comb(n, k) * p**k * (1 - p) ** (n - k)
        for k in range(n + 1)
        if abs(k / n - p) >= gap
    )


class TestRates:
    def test_fpr_stride_women(self):
        assert ConfusionMatrix(tp=0, fp=20, tn=80, fn=0).fpr == 0.20

    def test_fpr_compas_black(self):
        fpr = ConfusionMatrix(tp=0, fp=805, tn=990, fn=0).fpr
        assert fpr == pytest.approx(805 / 1795)

    def test_fpr_undefined_on_empty_denominator(self):
        assert ConfusionMatrix(tp=3, fp=0, tn=0, fn=1).fpr is None

    def test_fnr_no_misses(self):
        assert ConfusionMatrix(tp=5, fp=0, tn=0, fn=0).fnr == 0.0

    def test_fnr_undefined(self):
        assert ConfusionMatrix(tp=0, fp=2, tn=2, fn=0).fnr is None

    def test_ppv_section2(self):
        assert ConfusionMatrix(16, 4, 0, 0).ppv == 0.80

    def test_ppv_direct_ratio(self):
        assert ConfusionMatrix(7, 3, 0, 0).ppv == 0.70

    def test_ppv_undefined(self):
        assert ConfusionMatrix(0, 0, 5, 5).ppv is None

    def test_fpr_complement_identity(self):
        cm = ConfusionMatrix(tp=11, fp=7, tn=13, fn=2)
        assert cm.fpr + cm.tn / (cm.fp + cm.tn) == 1.0

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    )
    def test_defined_rates_stay_in_unit_interval(self, tp, fp, tn, fn):
        cm = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
        for rate in (cm.fpr, cm.fnr, cm.ppv):
            if rate is not None:
                assert 0.0 <= rate <= 1.0


class TestConfusionForGroup:
    def test_section2_b_policy(self):
        spec = scenario_spec("section_grades")
        curve = scenario_curve(spec.bins, spec.cells)
        cm = curve.confusion("section2", 0.5)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (16, 4, 6, 4)

    def test_stride_men_high_bin_policy(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        cm = curve.confusion("men", 0.5)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (160, 40, 40, 10)

    def test_never_act_policy(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        cm = curve.confusion("men", 1.0)
        assert cm.tp == 0 and cm.fp == 0
        assert cm.n == 250

    def test_unknown_group(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        with pytest.raises(ValidationError):
            curve.confusion("nobody", 0.5)

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.2, 0.5, 0.8, 0.9, 1.0])
    def test_counts_partition_group(self, threshold):
        spec = scenario_spec("compas_synthetic")
        curve = scenario_curve(spec.bins, spec.cells)
        for g in curve.groups:
            cm = curve.confusion(g, threshold)
            assert cm.n == sum(
                group == g for group, _score, _ in records(spec.cells)
            )


class TestBaseRate:
    def test_compas_base_rates(self):
        assert base_rate("compas_synthetic", "black") == pytest.approx(
            0.51, abs=0.005
        )
        assert base_rate("compas_synthetic", "white") == pytest.approx(
            0.39, abs=0.005
        )

    def test_all_negative_group(self):
        assert base_rate("certainty_lottery", "men") == 0.0

    def test_unknown_group(self):
        with pytest.raises(ValidationError):
            base_rate("certainty_lottery", "children")


class TestCalibrationCurve:
    def test_stride_high_bin_calibrated_at_080(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        assert curve.p_score("men", 1) == 0.80
        assert curve.p_score("women", 1) == 0.80

    def test_section_grades_b_bin(self):
        spec = scenario_spec("section_grades")
        curve = scenario_curve(spec.bins, spec.cells)
        assert curve.p_score("section1", 1) == 0.80
        assert curve.p_score("section2", 1) == 0.80

    def test_single_bin_degenerates_to_base_rate(self):
        # All certainty_lottery records sit in one bin.
        spec = scenario_spec("certainty_lottery")
        curve = scenario_curve(spec.bins, spec.cells)
        for g in curve.groups:
            bins, _counts, _positives = curve.by_group[g]
            assert bins == (0,)
            assert curve.p_score(g, 0) == base_rate("certainty_lottery", g)

    def test_empty_cells_absent_not_zero(self):
        spec = scenario_spec("miscalibrated_compas")
        curve = scenario_curve(spec.bins, spec.cells)
        bins, _counts, _positives = curve.by_group["white"]
        assert 0 not in bins
        with pytest.raises(ValidationError):
            curve.p_score("white", 0)

    @settings(deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(0, 7),
                  st.integers(0, 3), st.integers(0, 3)),
        max_size=30,
    ))
    def test_p_score_reads_each_cell_and_only_cells(self, counts):
        # Group "c" may have no cells at all; bins -1 and 8 are outside
        # the scheme.
        counts += [("a", 0, 1, 0), ("b", 7, 0, 1)]
        curve = curve_from_counts(BinScheme(edges=tuple(range(9))), counts)
        for g in "abc":
            bins, counts, positives = curve.by_group.get(g, ((), (), ()))
            for b, count, pos in zip(bins, counts, positives):
                assert curve.p_score(g, b) == pos / count
            for b in set(range(-1, 9)) - set(bins):
                with pytest.raises(ValidationError,
                                   match=f"has no records in bin {b}$"):
                    curve.p_score(g, b)


class TestCalibrationGap:
    def test_miscalibrated_bin8(self):
        spec = scenario_spec("miscalibrated_compas")
        curve = scenario_curve(spec.bins, spec.cells)
        assert calibration_gap(curve, "white", "black") == pytest.approx(0.20)

    def test_identity_is_zero(self):
        spec = scenario_spec("compas_synthetic")
        curve = scenario_curve(spec.bins, spec.cells)
        assert calibration_gap(curve, "black", "black") == 0.0

    def test_stride_is_bin_exact(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        assert calibration_gap(curve, "men", "women") == 0.0

    def test_symmetry(self):
        spec = scenario_spec("miscalibrated_compas")
        curve = scenario_curve(spec.bins, spec.cells)
        assert calibration_gap(curve, "white", "black") == calibration_gap(
            curve, "black", "white"
        )


class TestChanceMiscalibrationBound:
    def test_vacuous_bound_clamps(self):
        assert chance_miscalibration_bound(1, 0.5, 0.5) == 1.0

    def test_direct_evaluation(self):
        assert chance_miscalibration_bound(10_000, 0.5, 0.2) == 0.000625

    def test_halves_when_n_doubles(self):
        b1 = chance_miscalibration_bound(4000, 0.3, 0.2)
        b2 = chance_miscalibration_bound(8000, 0.3, 0.2)
        assert b2 == pytest.approx(b1 / 2)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValidationError):
            chance_miscalibration_bound(10, 0.5, 0.0)

    def test_rejects_nan_gap(self):
        with pytest.raises(ValidationError, match="gap must be positive"):
            chance_miscalibration_bound(10, 0.5, math.nan)

    def test_rejects_nan_n(self):
        with pytest.raises(ValidationError, match="n must be >= 1"):
            chance_miscalibration_bound(math.nan, 0.5, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_dominates_exact_binomial_tail(self, n, p, gap):
        bound = chance_miscalibration_bound(n, p, gap)
        tail = binomial_two_sided_tail(n, p, gap)
        assert bound >= tail - 1e-9

    @given(
        st.integers(min_value=1, max_value=1000),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_monotone_in_n_and_gap(self, n, p, gap):
        b = chance_miscalibration_bound(n, p, gap)
        assert chance_miscalibration_bound(n + 7, p, gap) <= b
        assert chance_miscalibration_bound(n, p, gap + 0.1) <= b
