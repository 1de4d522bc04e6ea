"""FPR equalization, the calibration/base-rate impossibility check, and
the certainty-case fair lottery.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Mapping, NamedTuple

from .domain import (
    AuditError,
    ConfusionMatrix,
    OutcomeValues,
    SYMMETRIC_VALUES,
    ThresholdPolicy,
    ValidationError,
    finite_value,
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
    """Outcome of checking the central impossibility on a pair of groups:
    when the groups are calibrated, their base rates differ and the
    higher-base-rate group dominates the other in likelihood ratio, the
    higher-base-rate group has the higher FPR at every uniform threshold.

    ``calibrated`` means calibrated within the tolerance. ``ordering_holds``
    is asserted only when ``applicable`` is true, i.e. the pair is exactly
    calibrated, base rates differ, the threshold splits each group's bins
    nontrivially, and the dominance holds. Calibration and unequal base
    rates alone do not order the FPRs, and calibration within a tolerance
    does not order them even with the dominance.
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
    baseline: Mapping[str, ConfusionMatrix],
    tolerance: float,
    direction: str = LOWER_OTHERS,
    values: OutcomeValues = SYMMETRIC_VALUES,
    *,
    notes: list[str],
) -> EqualizationResult:
    """Search per-group thresholds that minimize the FPR gap.

    ``baseline`` maps each group of ``curve``, and no other, to its matrix
    at its ``baseline_policy`` threshold. The reference group (highest FPR
    by default, lowest with direction=RAISE_OTHERS) keeps that threshold;
    every other group moves over its achievable cut points to the threshold
    whose FPR is closest to the reference's. Exact parity is often
    unattainable with discrete bins, so the residual gap is first-class
    output; ``exact`` means equal FPRs, decided on integer counts, and a
    nonzero residual at or below ``tolerance`` gets a note in ``notes``.
    ``disvalue_delta`` is the baseline's total value under ``values`` minus
    the equalized one (a sum that is not finite is a ValidationError).
    """
    if not tolerance > 0:
        raise ValidationError("tolerance must be positive")
    if direction not in (LOWER_OTHERS, RAISE_OTHERS):
        raise ValidationError(f"unknown direction {direction!r}")
    if baseline.keys() != curve.by_group.keys():
        raise ValidationError("baseline and curve name different groups")
    groups = curve.groups
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
    ref = baseline[reference]
    ref_neg = ref.fp + ref.tn

    def gap(fp: int, neg: int) -> int:
        # |fp/neg - ref.fp/ref_neg|, ranked by its numerator over the common
        # denominator, which is fixed within a group: gaps that are equal as
        # fractions tie exactly.
        return abs(fp * ref_neg - ref.fp * neg)

    thresholds: dict[str, float] = {}
    chosen: dict[str, ConfusionMatrix] = {}
    for g in groups:
        t0 = baseline_policy.threshold_for(g)
        if g == reference:
            thresholds[g], chosen[g] = t0, baseline[g]
            continue
        # FPR is a step function of the threshold; only the group's cut
        # points (plus the extremes and the baseline itself) can change the
        # acted set. 1.0 plays the role of "never act" unless some cell has
        # p_score exactly 1. A candidate's gap is read off the group's
        # sweep, whose fps[0] is the group's negatives. The smallest gap
        # wins; ties break toward the baseline threshold, so an
        # already-equal group is left untouched, and then toward the lower
        # threshold. No two keys are equal.
        cuts, _tps, fps = curve.sweep(g)
        t = thresholds[g] = min({0.0, 1.0, t0, *cuts}, key=lambda t: (
            gap(fps[bisect_left(cuts, t)], fps[0]), abs(t - t0), t,
        ))
        chosen[g] = baseline[g] if t == t0 else curve.confusion(g, t)

    fprs = {g: cm.fpr for g, cm in chosen.items()}
    residual = max(fprs.values()) - min(fprs.values())
    exact = all(gap(cm.fp, cm.fp + cm.tn) == 0 for cm in chosen.values())
    if not exact and residual <= tolerance:
        notes.append(
            f"FPR equalization: the residual gap {residual:.6g} is within "
            f"the tolerance {tolerance:g}, but the FPRs are not equal."
        )
    baseline_value = sum(values.value_of(cm) for cm in baseline.values())
    equalized_value = sum(values.value_of(cm) for cm in chosen.values())
    return EqualizationResult(
        thresholds=thresholds,
        fprs=fprs,
        baseline_fprs=baseline_fprs,
        residual_gap=residual,
        exact=exact,
        disvalue_delta=finite_value(baseline_value - equalized_value),
        acted_baseline={g: cm.acted for g, cm in baseline.items()},
        acted_equalized={g: cm.acted for g, cm in chosen.items()},
        reference_group=reference,
    )


def impossibility_check(
    curve: CalibrationCurve,
    matrices: Mapping[str, ConfusionMatrix],
    calib_tolerance: float = 1e-9,
    *,
    notes: list[str],
) -> ImpossibilityVerdict:
    """Check the central impossibility on a pair of groups of ``curve``:
    the two keys of ``matrices``, which maps each to its confusion matrix
    at one uniform threshold. The uniform threshold is the caller's
    precondition; the ``audit`` and ``equalize`` reports enforce it, and
    skip the check, with a note, on more than two groups.

    The ordering is a theorem only under exact calibration, decided on
    integer counts: a pair calibrated within ``calib_tolerance`` but not
    exactly gets a note giving its observed FPR ordering, unasserted. When
    every precondition but the likelihood-ratio dominance holds, a note
    naming the bins where it fails is appended to ``notes``.
    """
    if not calib_tolerance >= 0:
        raise ValidationError("calibration tolerance must be nonnegative")
    if len(matrices) != 2:
        raise ValidationError(
            f"impossibility check is pairwise; got {len(matrices)} groups"
        )
    a, b = matrices
    gap = calibration_gap(curve, a, b)
    rates: dict[str, float] = {}
    fprs: dict[str, float] = {}
    split = True
    for g, cm in matrices.items():
        rate, fpr = cm.base_rate, cm.fpr
        if rate is None:
            raise AuditError(
                f"group {g!r} has no records; base rate undefined"
            )
        if fpr is None:
            raise AuditError(f"group {g!r} has no negatives; FPR undefined")
        rates[g], fprs[g] = rate, fpr
        # The ordering claim needs the threshold to act on some bin and
        # refrain on some bin, with negatives observable.
        if cm.acted == 0 or cm.acted == cm.n or cm.tn == 0:
            split = False
    higher = None
    if rates[a] != rates[b]:
        higher = a if rates[a] > rates[b] else b
    # The pair with the higher-base-rate group first, if there is one.
    first, second = (b, a) if higher == b else (a, b)
    # bin -> [first's count, second's count, first's positives, second's
    # positives]; a bin only one group populates holds 0 and 0 for the other.
    pair: dict[int, list[int]] = {}
    for side, g in enumerate((first, second)):
        for bin_, count, positives in zip(*curve.by_group[g]):
            cell = pair.setdefault(bin_, [0, 0, 0, 0])
            cell[side], cell[2 + side] = count, positives
    exact = all(p1 * n2 == p2 * n1 for n1, n2, p1, p2 in pair.values())

    calibrated = gap <= calib_tolerance
    if calibrated and not exact:
        top, bottom = sorted(fprs, key=fprs.get, reverse=True)
        relation = "above" if fprs[top] > fprs[bottom] else "equal to"
        notes.append(
            "Impossibility check: the groups are calibrated within the "
            f"tolerance {calib_tolerance:g} but not exactly, and only exact "
            "calibration orders their FPRs. Observed, not asserted: the FPR "
            f"of group {top!r}, {fprs[top]:.6g}, is {relation} that of "
            f"group {bottom!r}, {fprs[bottom]:.6g}."
        )
    applicable = exact and higher is not None and split
    if applicable:
        fall = _dominance_failure(pair)
        if fall is not None:
            applicable = False
            below, above = (curve.bins.label(i) for i in fall)
            notes.append(
                f"Impossibility check: group {first!r} does not "
                f"dominate group {second!r} in likelihood ratio. Over the "
                "bins in ascending p_score order, the first group's "
                "count divided by the second's falls from bin "
                f"{below!r} to bin {above!r}. Calibration alone does not "
                "order the FPRs."
            )
    ordering = applicable and fprs[first] >= fprs[second]
    return ImpossibilityVerdict(
        calibrated=calibrated,
        calibration_gap=gap,
        base_rates=rates,
        fprs=fprs,
        higher_base_rate_group=higher,
        applicable=applicable,
        ordering_holds=ordering,
    )


def _dominance_failure(
    pair: Mapping[int, list[int]]
) -> tuple[int, int] | None:
    """The first pair of adjacent bins, taken in ascending order of their
    p_score pooled over both groups, across which the first group's count
    over the second's falls; None when it never falls, i.e. when the first
    group dominates the second in likelihood ratio. ``pair`` holds each
    bin's two counts and two positives, as ``impossibility_check`` builds
    it. Bins with equal pooled p_score merge (a threshold acts on both or
    neither), and every comparison is on integer counts, by
    cross-multiplication.

    With exact calibration the dominance carries over to each group's
    negatives, so the first group's FPR is at least the second's at every
    threshold.
    """
    # pooled p_score -> [first's count, second's count, first bin]
    levels: dict[float, list[int]] = {}
    for b in sorted(pair):
        n1, n2, p1, p2 = pair[b]
        level = levels.setdefault((p1 + p2) / (n1 + n2), [0, 0, b])
        level[0] += n1
        level[1] += n2
    ordered = [levels[p] for p in sorted(levels)]
    for (h0, l0, b0), (h1, l1, b1) in zip(ordered, ordered[1:]):
        if h1 * l0 < h0 * l1:
            return b0, b1
    return None


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
