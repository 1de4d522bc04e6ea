"""Group-level confusion matrices, error rates, calibration curves.

Rates with an empty denominator are ``None``, never 0.0 or NaN: in small
fixtures an outcome class can be genuinely absent and that is information,
not an error.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .domain import (
    BinScheme,
    ConfusionMatrix,
    Population,
    ThresholdPolicy,
    ValidationError,
    audit_groups,
)


@dataclass(frozen=True)
class CurveCell:
    """One (group, bin) cell of a calibration curve."""

    count: int
    positives: int

    @property
    def p_score(self) -> float:
        """Empirical positive fraction inside this cell."""
        if self.count == 0:
            raise ValidationError("p_score of an empty cell is undefined")
        return self.positives / self.count


@dataclass(frozen=True)
class CalibrationCurve:
    """Per-(group, bin) counts and positive fractions for one population.

    Cells with no records are simply absent from ``cells``; the others are
    in (group, bin) order. Past ingest and binning, every audit quantity is
    a function of these integer counts: confusion matrices, calibration
    gaps, and expected and realized value (which coincide in sample,
    because a record's credence is its own cell's positive fraction).
    Build one with :func:`curve_from_counts`.
    """

    bins: BinScheme
    groups: tuple[str, ...]
    cells: Mapping[tuple[str, int], CurveCell]

    @cached_property
    def by_group(self) -> Mapping[str, tuple[tuple[int, CurveCell], ...]]:
        """Each group's nonempty cells as (bin index, cell), in bin order."""
        out: dict[str, list[tuple[int, CurveCell]]] = {}
        for (g, b), cell in self.cells.items():
            out.setdefault(g, []).append((b, cell))
        return {g: tuple(cells) for g, cells in out.items()}

    def cell(self, group: str, bin_index: int) -> CurveCell | None:
        return self.cells.get((group, bin_index))

    def p_score(self, group: str, bin_index: int) -> float:
        cell = self.cell(group, bin_index)
        if cell is None:
            raise ValidationError(
                f"group {group!r} has no records in bin {bin_index}"
            )
        return cell.p_score

    def nonempty_bins(self, group: str) -> tuple[int, ...]:
        return tuple(b for b, _cell in self.by_group.get(group, ()))

    def confusion(self, group: str, threshold: float) -> ConfusionMatrix:
        """Counts of one group's records by (decision, outcome) when every
        cell with p_score >= ``threshold`` is acted on."""
        tp = fp = tn = fn = 0
        for _b, cell in self.by_group.get(group, ()):
            negatives = cell.count - cell.positives
            if cell.p_score >= threshold:
                tp += cell.positives
                fp += negatives
            else:
                fn += cell.positives
                tn += negatives
        return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass(frozen=True)
class GroupMetrics:
    """The audit quantities for one group under one policy."""

    group: str
    confusion: ConfusionMatrix
    fpr: float | None
    fnr: float | None
    ppv: float | None
    base_rate: float


def curve_from_counts(
    bins: BinScheme, counts: Iterable[tuple[str, int, int, int]]
) -> CalibrationCurve:
    """Sum (group, bin index, positives, negatives) entries into a curve.

    Every curve is built here, so group order, cell order and the
    two-group rule (:func:`~fairaudit.domain.audit_groups`) are decided in
    one place. Entries may repeat a cell; a cell that sums to no records
    is left out.
    """
    sums: dict[tuple[str, int], list[int]] = {}
    for group, b, positives, negatives in counts:
        cell = sums.get((group, b))
        if cell is None:
            cell = sums[(group, b)] = [0, 0]
        cell[0] += positives
        cell[1] += negatives
    cells = {
        key: CurveCell(count=p + n, positives=p)
        for key, (p, n) in sorted(sums.items())
        if p + n
    }
    return CalibrationCurve(
        bins=bins, groups=audit_groups(g for g, _b in cells), cells=cells
    )


def calibration_curve(population: Population) -> CalibrationCurve:
    """Count a population's records and positives per (group, bin)."""
    bin_of = population.bins.bin_of
    return curve_from_counts(population.bins, (
        (r.group, bin_of(r.score), r.outcome.value, 1 - r.outcome.value)
        for r in population.records
    ))


def confusion_for_group(
    curve: CalibrationCurve,
    group: str,
    policy: ThresholdPolicy,
) -> ConfusionMatrix:
    """Classify a group's records by (decision, outcome).

    A record is decided "act" iff the p_score of its bin is >= the group's
    threshold, so the counts aggregate over the group's curve cells.
    """
    if group not in curve.groups:
        raise ValidationError(f"unknown group {group!r}")
    return curve.confusion(group, policy.threshold_for(group))


def false_positive_rate(cm: ConfusionMatrix) -> float | None:
    """fp / (fp + tn); None when the group has no negatives."""
    denom = cm.fp + cm.tn
    return cm.fp / denom if denom else None


def false_negative_rate(cm: ConfusionMatrix) -> float | None:
    """fn / (fn + tp); None when the group has no positives."""
    denom = cm.fn + cm.tp
    return cm.fn / denom if denom else None


def positive_predictive_value(cm: ConfusionMatrix) -> float | None:
    """tp / (tp + fp); None when nothing was acted on."""
    denom = cm.tp + cm.fp
    return cm.tp / denom if denom else None


def group_metrics(
    curve: CalibrationCurve,
    group: str,
    policy: ThresholdPolicy,
) -> GroupMetrics:
    cm = confusion_for_group(curve, group, policy)
    return GroupMetrics(
        group=group,
        confusion=cm,
        fpr=false_positive_rate(cm),
        fnr=false_negative_rate(cm),
        ppv=positive_predictive_value(cm),
        base_rate=cm.base_rate,
    )


def calibration_gap(
    curve: CalibrationCurve, group_a: str, group_b: str
) -> float:
    """Worst-case |p_score difference| over bins nonempty in both groups.

    0.0 when the groups share no bin.
    """
    for g in (group_a, group_b):
        if g not in curve.groups:
            raise ValidationError(f"unknown group {g!r}")
    cells_b = dict(curve.by_group.get(group_b, ()))
    return max(
        (
            abs(cell.p_score - cells_b[b].p_score)
            for b, cell in curve.by_group.get(group_a, ())
            if b in cells_b
        ),
        default=0.0,
    )


def chance_miscalibration_bound(n: int, p: float, gap: float) -> float:
    """Chebyshev upper bound on a per-bin deviation >= gap arising by chance.

    For n records with true positive rate p, the probability that the
    observed fraction deviates from p by at least gap is at most
    p(1-p) / (n * gap^2), clamped to 1.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    if gap <= 0.0:
        raise ValidationError("gap must be positive")
    return min(1.0, p * (1.0 - p) / (n * gap * gap))
