import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import check_pair, keyed_cells, records
from fairaudit import (
    AuditError,
    BinScheme,
    ThresholdPolicy,
    curve_from_counts,
    equalize_fpr,
    fair_lottery,
    individual_error_risk,
    scenario_curve,
    scenario_spec,
)
from fairaudit.domain import ValidationError
from fairaudit.parity import LOWER_OTHERS, RAISE_OTHERS


def direct_fpr(spec, group, threshold):
    """Oracle: count fp and tn straight off the fixture's records."""
    curve = scenario_curve(spec.bins, spec.cells)
    fp = tn = 0
    for g, score, positive in records(spec.cells):
        if g != group or positive:
            continue
        p = curve.p_score(group, spec.bins.bin_of(score))
        if p >= threshold:
            fp += 1
        else:
            tn += 1
    return fp / (fp + tn)


class TestImpossibilityCheck:
    def test_stride_ordering(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        verdict = check_pair(curve, spec.threshold)
        assert verdict.calibrated
        assert verdict.higher_base_rate_group == "men"
        assert verdict.applicable
        assert verdict.ordering_holds
        assert verdict.fprs["men"] == pytest.approx(0.5)
        assert verdict.fprs["women"] == pytest.approx(0.2)

    def test_a_group_named_by_the_empty_string(self):
        # Ingest rejects an empty label, but a library caller may use one.
        spec = scenario_spec("stride_height")
        renamed = {"men": "", "women": "w"}
        cells = [(renamed[g], *rest) for g, *rest in spec.cells]
        verdict = check_pair(scenario_curve(spec.bins, cells), spec.threshold)
        assert verdict.higher_base_rate_group == ""
        assert verdict.applicable
        assert verdict.ordering_holds

    def test_section_grades_ordering(self):
        spec = scenario_spec("section_grades")
        curve = scenario_curve(spec.bins, spec.cells)
        verdict = check_pair(
            curve, spec.threshold, calib_tolerance=spec.calib_tolerance
        )
        assert verdict.applicable
        assert verdict.ordering_holds
        assert verdict.fprs["section2"] == pytest.approx(0.40)
        assert verdict.fprs["section1"] == pytest.approx(0.10)

    def test_miscalibrated_population_not_applicable(self):
        spec = scenario_spec("miscalibrated_compas")
        curve = scenario_curve(spec.bins, spec.cells)
        verdict = check_pair(curve, spec.threshold)
        assert not verdict.calibrated
        assert not verdict.applicable
        assert verdict.calibration_gap == pytest.approx(0.20)

    @pytest.mark.parametrize("tolerance", [float("nan"), -1.0])
    def test_rejects_bad_calibration_tolerance(self, tolerance):
        spec = scenario_spec("stride_height")
        with pytest.raises(ValidationError, match="tolerance"):
            check_pair(
                scenario_curve(spec.bins, spec.cells), spec.threshold,
                calib_tolerance=tolerance,
            )

    def test_matrices_name_a_pair(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        with pytest.raises(ValidationError, match="pairwise; got 1 groups"):
            check_pair(curve, spec.threshold, "men")

    def test_requires_exactly_two_groups(self):
        spec = scenario_spec("stride_height")
        only_women = [cell for cell in spec.cells if cell[0] == "women"]
        with pytest.raises(ValidationError):
            scenario_curve(spec.bins, only_women)

    def test_fprs_match_direct_counts(self):
        spec = scenario_spec("compas_synthetic")
        curve = scenario_curve(spec.bins, spec.cells)
        verdict = check_pair(
            curve, spec.threshold, calib_tolerance=spec.calib_tolerance
        )
        for g in curve.groups:
            assert verdict.fprs[g] == pytest.approx(
                direct_fpr(spec, g, spec.threshold)
            )


#: A bin's exact positive fraction k/d, as (d, k).
_FRACTIONS = st.integers(1, 6).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(0, d))
)


@st.composite
def calibrated_tables(draw):
    """(bins, entries): two groups over 2-6 bins, exactly calibrated. Bin j
    holds whole units of d_j records, k_j of them positive, in both groups;
    the fractions k_j/d_j come in any order and may repeat, and each group's
    units per bin are drawn freely."""
    fractions = draw(st.lists(_FRACTIONS, min_size=2, max_size=6))
    entries = [
        (g, j, u * k, u * (d - k))
        for g in ("a", "b")
        for j, (d, k) in enumerate(fractions)
        for u in [draw(st.integers(0, 6), label=f"units {g}{j}")]
        if u
    ]
    for g in ("a", "b"):
        assume(any(neg for group, _j, _pos, neg in entries if group == g))
    return BinScheme(edges=tuple(range(len(fractions) + 1))), entries


@st.composite
def tables_with_a_third_group(draw):
    """(bins, entries): a calibrated table of groups a and b, and a group c
    over the same bins whose positives and negatives per bin are drawn
    freely, so that it is seldom calibrated with either."""
    bins, entries = draw(calibrated_tables())
    third = [
        ("c", j, positives, negatives)
        for j in range(len(bins.edges) - 1)
        for positives, negatives in [
            draw(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                 label=f"c{j}")
        ]
        if positives + negatives
    ]
    assume(third)
    return bins, entries + third


@settings(max_examples=300, deadline=None)
@given(calibrated_tables(), st.data())
def test_applicable_verdict_always_finds_the_ordering(table, data):
    bins, entries = table
    curve = curve_from_counts(bins, entries)
    p_scores = sorted({cell.p_score for cell in keyed_cells(curve).values()})
    threshold = data.draw(
        st.sampled_from(p_scores) | st.floats(0.0, 1.0), label="threshold"
    )
    verdict = check_pair(curve, threshold)
    assert verdict.calibrated
    if verdict.applicable:
        assert verdict.ordering_holds, verdict


@settings(max_examples=200, deadline=None)
@given(tables_with_a_third_group(), st.data())
def test_a_pairs_verdict_depends_only_on_that_pair(table, data):
    bins, entries = table
    three = curve_from_counts(bins, entries)
    two = curve_from_counts(bins, [e for e in entries if e[0] != "c"])
    p_scores = sorted({cell.p_score for cell in keyed_cells(two).values()})
    threshold = data.draw(
        st.sampled_from(p_scores) | st.floats(0.0, 1.0), label="threshold"
    )
    notes_three: list[str] = []
    notes_two: list[str] = []
    verdict = check_pair(three, threshold, "a", "b", notes=notes_three)
    assert verdict == check_pair(two, threshold, notes=notes_two)
    assert notes_three == notes_two


class TestEqualizeFpr:
    def test_stride_raise_others(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        result = equalize_fpr(
            curve,
            ThresholdPolicy.uniform(spec.threshold),
            tolerance=1e-9,
            direction=RAISE_OTHERS,
        )
        # Women (FPR 0.2) are the reference; men's threshold rises above
        # the long bin's p_score 0.8 so no men are treated as likely-long.
        assert result.reference_group == "women"
        assert result.thresholds["women"] == pytest.approx(0.5)
        assert result.thresholds["men"] > 0.8
        assert result.fprs["men"] == pytest.approx(0.0)
        assert result.residual_gap == pytest.approx(0.2)
        assert not result.exact

    def test_compas_benefit_matches_hand_computation(self):
        spec = scenario_spec("compas_benefit")
        curve = scenario_curve(spec.bins, spec.cells)
        result = equalize_fpr(
            curve,
            ThresholdPolicy.uniform(spec.threshold),
            tolerance=1e-9,
            direction=RAISE_OTHERS,
        )
        assert result.reference_group == "white"
        assert result.thresholds["black"] == pytest.approx(0.7)
        assert result.acted_baseline["black"] == 160
        assert result.acted_equalized["black"] == 120
        assert result.acted_equalized["black"] < result.acted_baseline["black"]
        # Moving off the EV-optimal threshold cannot reduce expected disvalue.
        assert result.disvalue_delta >= 0.0

    def test_identical_groups_already_equal(self):
        spec = scenario_spec("compas_benefit")
        # Restrict to a synthetic two-group clone: same composition, so the
        # baseline FPRs coincide and thresholds stay at baseline.
        clone = [
            (name, score, positives, negatives)
            for group, score, positives, negatives in spec.cells
            if group == "black"
            for name in ("black", "black2")
        ]
        curve = scenario_curve(spec.bins, clone)
        result = equalize_fpr(
            curve, ThresholdPolicy.uniform(0.5), tolerance=1e-9
        )
        assert result.thresholds == {"black": 0.5, "black2": 0.5}
        assert result.residual_gap == 0.0
        assert result.exact
        assert result.disvalue_delta == 0.0

    def test_gaps_equal_as_fractions_keep_the_baseline(self):
        # r's FPR is 1/2. At 0.25, g's FPR is 2/3, and at its baseline 0.5
        # it is 1/3: both gaps are 1/6, though as floats the first is the
        # smaller. The tie goes to the baseline threshold.
        curve = curve_from_counts(BinScheme(edges=tuple(range(11))), [
            ("r", 8, 1, 1), ("r", 1, 0, 1),
            ("g", 7, 5, 3), ("g", 4, 1, 3), ("g", 2, 0, 3),
        ])
        assert abs(2 / 3 - 1 / 2) < abs(1 / 3 - 1 / 2)
        result = equalize_fpr(
            curve, ThresholdPolicy.uniform(0.5), tolerance=1e-9
        )
        assert result.reference_group == "r"
        assert result.thresholds == {"g": 0.5, "r": 0.5}
        assert result.fprs == {"g": 1 / 3, "r": 1 / 2}
        assert result.disvalue_delta == 0.0

    def test_fprs_consistent_with_direct_counts(self):
        spec = scenario_spec("compas_benefit")
        curve = scenario_curve(spec.bins, spec.cells)
        result = equalize_fpr(
            curve,
            ThresholdPolicy.uniform(spec.threshold),
            tolerance=1e-9,
            direction=RAISE_OTHERS,
        )
        for g in curve.groups:
            assert result.fprs[g] == pytest.approx(
                direct_fpr(spec, g, result.thresholds[g])
            )

    def test_no_negatives_is_an_error(self):
        curve = scenario_curve(
            BinScheme(edges=(0.0, 0.5, 1.0)),
            [("a", 0.5, 5, 0), ("b", 0.5, 3, 3)],
        )
        with pytest.raises(AuditError, match="no negatives"):
            equalize_fpr(curve, ThresholdPolicy.uniform(0.5), tolerance=1e-9)

    def test_rejects_bad_arguments(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        with pytest.raises(ValidationError):
            equalize_fpr(curve, ThresholdPolicy.uniform(0.5), tolerance=0.0)
        with pytest.raises(ValidationError):
            equalize_fpr(
                curve, ThresholdPolicy.uniform(0.5), tolerance=float("nan")
            )
        with pytest.raises(ValidationError):
            equalize_fpr(
                curve,
                ThresholdPolicy.uniform(0.5),
                tolerance=1e-9,
                direction="sideways",
            )


class TestIndividualErrorRisk:
    def test_acted_on_long_bin_risk(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        policy = ThresholdPolicy.uniform(spec.threshold)
        tall_man = next(
            score for group, score, _ in records(spec.cells)
            if group == "men" and score >= 160
        )
        assert individual_error_risk(
            curve, "men", spec.bins.bin_of(tall_man), policy
        ) == pytest.approx(0.20)

    def test_group_invariance_under_uniform_policy(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        policy = ThresholdPolicy.uniform(spec.threshold)
        tall = {
            g: next(
                score for group, score, _ in records(spec.cells)
                if group == g and score >= 160
            )
            for g in curve.groups
        }
        risks = {
            g: individual_error_risk(curve, g, spec.bins.bin_of(score), policy)
            for g, score in tall.items()
        }
        assert risks["men"] == risks["women"]

    def test_refrained_risk_is_p_score(self):
        spec = scenario_spec("stride_height")
        curve = scenario_curve(spec.bins, spec.cells)
        policy = ThresholdPolicy.uniform(spec.threshold)
        short_woman = next(
            score for group, score, _ in records(spec.cells)
            if group == "women" and score < 160
        )
        assert individual_error_risk(
            curve, "women", spec.bins.bin_of(short_woman), policy
        ) == pytest.approx(0.20)


class TestFairLottery:
    def test_two_group_quota(self):
        result = fair_lottery({"men": 50, "women": 100}, exclusion_quota=30)
        assert result.probability == pytest.approx(0.20)
        assert result.per_group["men"] == result.per_group["women"]

    def test_probability_independent_of_partition(self):
        merged = fair_lottery({"all": 150}, 30)
        split = fair_lottery({"men": 50, "women": 100}, 30)
        assert merged.probability == split.probability

    def test_quota_zero_and_full(self):
        assert fair_lottery({"a": 3, "b": 7}, 0).probability == 0.0
        assert fair_lottery({"a": 3, "b": 7}, 10).probability == 1.0

    def test_errors(self):
        with pytest.raises(ValidationError):
            fair_lottery({"a": 5}, -1)
        with pytest.raises(ValidationError):
            fair_lottery({}, 0)
        with pytest.raises(ValidationError):
            fair_lottery({"a": 5}, 6)
