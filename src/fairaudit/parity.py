"""FPR equalization, the calibration/base-rate impossibility check,
individual error risk, and the certainty-case fair lottery.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple

from .domain import (
    AuditError,
    ConfusionMatrix,
    OutcomeValues,
    SYMMETRIC_VALUES,
    ThresholdPolicy,
    ValidationError,
)
from .metrics import CalibrationCurve, calibration_gap

#: Hold the highest-FPR group fixed, lower the other groups' thresholds.
LOWER_OTHERS = "lower_others"
#: Hold the lowest-FPR group fixed, raise the other groups' thresholds.
RAISE_OTHERS = "raise_others"


class EqualizationResult(NamedTuple):
    thresholds: Mapping[str, float]
    fprs: Mapping[str, float]
    baseline_fprs: Mapping[str, float]
    residual_gap: float
    exact: bool
    disvalue_delta: float
    acted_baseline: Mapping[str, int]
    acted_equalized: Mapping[str, int]
    reference_group: str


class ImpossibilityVerdict(NamedTuple):
    """Outcome of checking the central impossibility on a two-group
    population: calibrated + unequal base rates forces the higher-base-rate
    group to have the higher FPR.

    ``ordering_holds`` is asserted only when ``applicable`` is true, i.e.
    the population is calibrated within tolerance, base rates differ, and
    the threshold splits each group's bins nontrivially.
    """

    calibrated: bool
    calibration_gap: float
    base_rates: Mapping[str, float]
    fprs: Mapping[str, float]
    higher_base_rate_group: str | None
    applicable: bool
    ordering_holds: bool


def equalize_fpr(
    curve: CalibrationCurve,
    baseline_policy: ThresholdPolicy,
    tolerance: float,
    direction: str = LOWER_OTHERS,
    values: OutcomeValues = SYMMETRIC_VALUES,
) -> EqualizationResult:
    """Search per-group thresholds that minimize the FPR gap.

    The reference group (highest FPR by default, lowest with
    direction=RAISE_OTHERS) keeps its baseline threshold; every other group
    moves over its finite set of achievable cut points to the threshold
    whose FPR is closest to the reference's. Exact parity is often
    unattainable with discrete bins, so the residual gap is first-class
    output. ``disvalue_delta`` is the increase in total expected disvalue
    relative to the baseline policy under ``values``: the baseline's value
    minus the equalized one, read off the search's confusion matrices.
    """
    if not tolerance > 0:
        raise ValidationError("tolerance must be positive")
    if direction not in (LOWER_OTHERS, RAISE_OTHERS):
        raise ValidationError(f"unknown direction {direction!r}")
    groups = curve.groups
    baseline = {
        g: curve.confusion(g, baseline_policy.threshold_for(g)) for g in groups
    }
    baseline_fprs: dict[str, float] = {}
    for g, cm in baseline.items():
        fpr = cm.fpr
        if fpr is None:
            raise AuditError(
                f"group {g!r} has no negatives; its FPR is undefined and "
                "equalization is meaningless"
            )
        baseline_fprs[g] = fpr

    pick = max if direction == LOWER_OTHERS else min
    reference = pick(groups, key=lambda g: (baseline_fprs[g], g))
    target = baseline_fprs[reference]

    thresholds: dict[str, float] = {}
    chosen: dict[str, ConfusionMatrix] = {}
    for g in groups:
        t0 = baseline_policy.threshold_for(g)
        if g == reference:
            thresholds[g], chosen[g] = t0, baseline[g]
            continue
        best: tuple[float, float, float] | None = None
        # FPR is a step function of the threshold; only the group's cut
        # points (plus the extremes and the baseline itself) can change the
        # acted set. 1.0 plays the role of "never act" unless some cell has
        # p_score exactly 1.
        for t in sorted({0.0, 1.0, t0, *curve.cut_points(g)}):
            cm = curve.confusion(g, t)
            # The group has negatives (checked above), so fpr is defined.
            # Prefer the smallest gap; break ties toward the baseline
            # threshold so an already-equal group is left untouched.
            key = (abs(cm.fpr - target), abs(t - t0), t)
            if best is None or key < best:
                best, thresholds[g], chosen[g] = key, t, cm

    fprs = {g: cm.fpr for g, cm in chosen.items()}
    residual = max(fprs.values()) - min(fprs.values())
    baseline_value = sum(values.value_of(cm) for cm in baseline.values())
    equalized_value = sum(values.value_of(cm) for cm in chosen.values())
    return EqualizationResult(
        thresholds=thresholds,
        fprs=fprs,
        baseline_fprs=baseline_fprs,
        residual_gap=residual,
        exact=residual <= tolerance,
        disvalue_delta=baseline_value - equalized_value,
        acted_baseline={g: cm.acted for g, cm in baseline.items()},
        acted_equalized={g: cm.acted for g, cm in chosen.items()},
        reference_group=reference,
    )


def impossibility_check(
    curve: CalibrationCurve,
    uniform_threshold: float,
    calib_tolerance: float = 1e-9,
) -> ImpossibilityVerdict:
    """Check the central impossibility on a two-group population.

    Multi-group populations reduce to pairwise checks at the caller.
    """
    if not calib_tolerance >= 0:
        raise ValidationError("calibration tolerance must be nonnegative")
    groups = curve.groups
    if len(groups) != 2:
        raise ValidationError(
            f"impossibility check is pairwise; got {len(groups)} groups"
        )
    policy = ThresholdPolicy.uniform(uniform_threshold)
    gap = calibration_gap(curve, *groups)
    rates: dict[str, float] = {}
    fprs: dict[str, float] = {}
    split = True
    for g in groups:
        cm = curve.confusion(g, policy.threshold_for(g))
        rates[g] = cm.base_rate
        fpr = cm.fpr
        if fpr is None:
            raise AuditError(f"group {g!r} has no negatives; FPR undefined")
        fprs[g] = fpr
        # The ordering claim needs the threshold to act on some bin and
        # refrain on some bin, with negatives observable.
        if cm.acted == 0 or cm.acted == cm.n or cm.tn == 0:
            split = False

    calibrated = gap <= calib_tolerance
    a, b = groups
    higher = None
    if rates[a] != rates[b]:
        higher = a if rates[a] > rates[b] else b
    applicable = calibrated and higher is not None and split
    lower = b if higher == a else a
    ordering = applicable and fprs[higher] >= fprs[lower] if higher else False
    return ImpossibilityVerdict(
        calibrated=calibrated,
        calibration_gap=gap,
        base_rates=rates,
        fprs=fprs,
        higher_base_rate_group=higher,
        applicable=applicable,
        ordering_holds=ordering,
    )


def individual_error_risk(
    curve: CalibrationCurve,
    group: str,
    bin_index: int,
    policy: ThresholdPolicy,
) -> float:
    """Probability that the decision applied to a member of ``group`` in
    bin ``bin_index`` is wrong, conditional on the cell's p_score: 1 - p if
    acted on, p if refrained.

    Group membership enters only through the threshold applied, so under a
    uniform policy two cells with the same p_score carry identical risk.
    """
    p = curve.p_score(group, bin_index)
    acted = p >= policy.threshold_for(group)
    return 1.0 - p if acted else p


class LotteryResult(NamedTuple):
    per_group: Mapping[str, float]
    probability: float


def fair_lottery(
    group_counts: Mapping[str, int], exclusion_quota: int
) -> LotteryResult:
    """Equal-chance exclusion lottery for the certainty case.

    All individuals are known negatives, so fairness is an equal per-person
    exclusion probability quota/total, identical across groups.
    """
    if exclusion_quota < 0:
        raise ValidationError("quota must be nonnegative")
    total = sum(group_counts.values())
    if total <= 0:
        raise ValidationError("no individuals to run a lottery over")
    if exclusion_quota > total:
        raise ValidationError(
            f"quota {exclusion_quota} exceeds total count {total}"
        )
    p = exclusion_quota / total
    return LotteryResult(
        per_group={g: p for g in group_counts}, probability=p
    )
