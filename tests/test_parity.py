import pytest

from fairaudit import (
    AuditError,
    OutcomeLabel,
    Record,
    ThresholdPolicy,
    build_scenario,
    calibration_curve,
    equalize_fpr,
    fair_lottery,
    impossibility_check,
    individual_error_risk,
)
from fairaudit.domain import ValidationError
from fairaudit.parity import LOWER_OTHERS, RAISE_OTHERS


def direct_fpr(population, group, threshold):
    """Oracle: count fp and tn straight off the records."""
    curve = calibration_curve(population)
    fp = tn = 0
    for r in population.records:
        if r.group != group or r.outcome.is_positive:
            continue
        p = curve.p_score(group, population.bins.bin_of(r.score))
        if p >= threshold:
            fp += 1
        else:
            tn += 1
    return fp / (fp + tn)


class TestImpossibilityCheck:
    def test_stride_ordering(self):
        pop, spec = build_scenario("stride_height")
        curve = calibration_curve(pop)
        verdict = impossibility_check(curve, spec.threshold)
        assert verdict.calibrated
        assert verdict.higher_base_rate_group == "men"
        assert verdict.applicable
        assert verdict.ordering_holds
        assert verdict.fprs["men"] == pytest.approx(0.5)
        assert verdict.fprs["women"] == pytest.approx(0.2)

    def test_section_grades_ordering(self):
        pop, spec = build_scenario("section_grades")
        curve = calibration_curve(pop)
        verdict = impossibility_check(
            curve, spec.threshold, calib_tolerance=spec.calib_tolerance
        )
        assert verdict.applicable
        assert verdict.ordering_holds
        assert verdict.fprs["section2"] == pytest.approx(0.40)
        assert verdict.fprs["section1"] == pytest.approx(0.10)

    def test_miscalibrated_population_not_applicable(self):
        pop, spec = build_scenario("miscalibrated_compas")
        curve = calibration_curve(pop)
        verdict = impossibility_check(curve, spec.threshold)
        assert not verdict.calibrated
        assert not verdict.applicable
        assert verdict.calibration_gap == pytest.approx(0.20)

    @pytest.mark.parametrize("tolerance", [float("nan"), -1.0])
    def test_rejects_bad_calibration_tolerance(self, tolerance):
        pop, spec = build_scenario("stride_height")
        with pytest.raises(ValidationError, match="tolerance"):
            impossibility_check(
                calibration_curve(pop), spec.threshold,
                calib_tolerance=tolerance,
            )

    def test_requires_exactly_two_groups(self):
        pop, _ = build_scenario("stride_height")
        only_women = [r for r in pop.records if r.group == "women"]
        from fairaudit import validate_population

        with pytest.raises(ValidationError):
            validate_population(only_women, pop.bins, pop.action_benefits_subject)

    def test_fprs_match_direct_counts(self):
        pop, spec = build_scenario("compas_synthetic")
        curve = calibration_curve(pop)
        verdict = impossibility_check(
            curve, spec.threshold, calib_tolerance=spec.calib_tolerance
        )
        for g in pop.groups:
            assert verdict.fprs[g] == pytest.approx(
                direct_fpr(pop, g, spec.threshold)
            )


class TestEqualizeFpr:
    def test_stride_raise_others(self):
        pop, spec = build_scenario("stride_height")
        curve = calibration_curve(pop)
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
        pop, spec = build_scenario("compas_benefit")
        curve = calibration_curve(pop)
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
        pop, spec = build_scenario("compas_benefit")
        # Restrict to a synthetic two-group clone: same composition, so the
        # baseline FPRs coincide and thresholds stay at baseline.
        records = []
        for r in pop.records:
            if r.group != "black":
                continue
            records.append(r)
            records.append(
                Record(
                    id=r.id + "-clone",
                    group="black2",
                    score=r.score,
                    outcome=r.outcome,
                )
            )
        from fairaudit import validate_population

        clone = validate_population(
            records, pop.bins, pop.action_benefits_subject
        )
        curve = calibration_curve(clone)
        result = equalize_fpr(
            curve, ThresholdPolicy.uniform(0.5), tolerance=1e-9
        )
        assert result.thresholds == {"black": 0.5, "black2": 0.5}
        assert result.residual_gap == 0.0
        assert result.exact
        assert result.disvalue_delta == 0.0

    def test_fprs_consistent_with_direct_counts(self):
        pop, spec = build_scenario("compas_benefit")
        curve = calibration_curve(pop)
        result = equalize_fpr(
            curve,
            ThresholdPolicy.uniform(spec.threshold),
            tolerance=1e-9,
            direction=RAISE_OTHERS,
        )
        for g in pop.groups:
            assert result.fprs[g] == pytest.approx(
                direct_fpr(pop, g, result.thresholds[g])
            )

    def test_no_negatives_is_an_error(self):
        from fairaudit import BinScheme, validate_population

        bins = BinScheme(edges=(0.0, 0.5, 1.0))
        records = [
            Record(id=f"a{i}", group="a", score=0.5, outcome=OutcomeLabel.POSITIVE)
            for i in range(5)
        ] + [
            Record(
                id=f"b{i}",
                group="b",
                score=0.5,
                outcome=OutcomeLabel.NEGATIVE if i % 2 else OutcomeLabel.POSITIVE,
            )
            for i in range(6)
        ]
        pop = validate_population(records, bins, action_benefits_subject=False)
        curve = calibration_curve(pop)
        with pytest.raises(AuditError, match="no negatives"):
            equalize_fpr(curve, ThresholdPolicy.uniform(0.5), tolerance=1e-9)

    def test_rejects_bad_arguments(self):
        pop, _ = build_scenario("stride_height")
        curve = calibration_curve(pop)
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
        pop, spec = build_scenario("stride_height")
        curve = calibration_curve(pop)
        policy = ThresholdPolicy.uniform(spec.threshold)
        tall_man = next(
            r for r in pop.records if r.group == "men" and r.score >= 160
        )
        assert individual_error_risk(
            curve, tall_man.group, pop.bins.bin_of(tall_man.score), policy
        ) == pytest.approx(0.20)

    def test_group_invariance_under_uniform_policy(self):
        pop, spec = build_scenario("stride_height")
        curve = calibration_curve(pop)
        policy = ThresholdPolicy.uniform(spec.threshold)
        tall = {
            g: next(
                r for r in pop.records if r.group == g and r.score >= 160
            )
            for g in pop.groups
        }
        risks = {
            g: individual_error_risk(curve, g, pop.bins.bin_of(r.score), policy)
            for g, r in tall.items()
        }
        assert risks["men"] == risks["women"]

    def test_refrained_risk_is_p_score(self):
        pop, spec = build_scenario("stride_height")
        curve = calibration_curve(pop)
        policy = ThresholdPolicy.uniform(spec.threshold)
        short_woman = next(
            r for r in pop.records if r.group == "women" and r.score < 160
        )
        assert individual_error_risk(
            curve, short_woman.group, pop.bins.bin_of(short_woman.score), policy
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
