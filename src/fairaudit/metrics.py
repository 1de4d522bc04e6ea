"""Calibration curves: per-(group, bin) counts, each group's threshold
sweep of confusion matrices, and calibration gaps.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .domain import (
    BinScheme,
    ConfusionMatrix,
    ValidationError,
    ValueObject,
)


class CurveCell(NamedTuple):
    """One (group, bin) cell of a calibration curve."""

    count: int
    positives: int

    @property
    def p_score(self) -> float:
        """Empirical positive fraction inside this cell."""
        if self.count == 0:
            raise ValidationError("p_score of an empty cell is undefined")
        return self.positives / self.count


class CalibrationCurve(ValueObject):
    """Per-(group, bin) counts and positive fractions for one population.

    Cells with no records are simply absent from ``cells``; the others are
    in (group, bin) order. Past ingest and binning, every audit quantity is
    a function of these integer counts: confusion matrices, calibration
    gaps, and expected and realized value (which coincide in sample,
    because a record's credence is its own cell's positive fraction).
    Build one with :func:`curve_from_counts`.
    """

    # No __slots__: the cached properties below are kept in __dict__.
    _fields = ("bins", "groups", "cells")
    bins: BinScheme
    groups: tuple[str, ...]
    cells: Mapping[tuple[str, int], CurveCell]

    def __init__(
        self,
        bins: BinScheme,
        groups: tuple[str, ...],
        cells: Mapping[tuple[str, int], CurveCell],
    ) -> None:
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "cells", cells)

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

    @cached_property
    def _sweeps(
        self,
    ) -> Mapping[str, tuple[tuple[float, ...], tuple[ConfusionMatrix, ...]]]:
        """Each group's threshold sweep: its distinct p_scores in ascending
        order, and for each the confusion matrix of acting on every cell at
        or above it, followed by the act-on-nothing matrix."""
        sweeps = {}
        for g, cells in self.by_group.items():
            # p_score -> [positives, negatives] summed over the cells at it
            at: dict[float, list[int]] = {}
            for _b, cell in cells:
                sums = at.setdefault(cell.p_score, [0, 0])
                sums[0] += cell.positives
                sums[1] += cell.count - cell.positives
            cuts = sorted(at)
            # (tp, fp) when acting on the top 0, 1, ..., len(cuts) cut points
            acted = [(0, 0)]
            for p_score in reversed(cuts):
                tp, fp = acted[-1]
                acted.append((tp + at[p_score][0], fp + at[p_score][1]))
            pos, neg = acted[-1]
            sweeps[g] = (tuple(cuts), tuple(
                ConfusionMatrix(tp=tp, fp=fp, tn=neg - fp, fn=pos - tp)
                for tp, fp in reversed(acted)
            ))
        return sweeps

    def cut_points(self, group: str) -> tuple[float, ...]:
        """The distinct p_scores of a group's cells, ascending: the only
        thresholds at which its acted set changes."""
        return self._sweep(group)[0]

    def confusion(self, group: str, threshold: float) -> ConfusionMatrix:
        """Counts of one group's records by (decision, outcome) when every
        cell with p_score >= ``threshold`` is acted on (ties act)."""
        cuts, matrices = self._sweep(group)
        return matrices[bisect_left(cuts, threshold)]

    def _sweep(
        self, group: str
    ) -> tuple[tuple[float, ...], tuple[ConfusionMatrix, ...]]:
        try:
            return self._sweeps[group]
        except KeyError:
            raise ValidationError(f"unknown group {group!r}") from None


def curve_from_counts(
    bins: BinScheme, counts: Iterable[tuple[str, int, int, int]]
) -> CalibrationCurve:
    """Sum (group, bin index, positives, negatives) entries into a curve.

    Every curve is built here, so group order (sorted, the order of every
    report), cell order and the two-group rule are decided in one place:
    an audit compares groups, so fewer than two is a ValidationError.
    Entries may repeat a cell; a cell that sums to no records is left out.
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
    groups = list(dict.fromkeys(g for g, _b in cells))
    if len(groups) < 2:
        raise ValidationError(
            f"need at least 2 groups, found {len(groups)}: {groups}"
        )
    return CalibrationCurve(bins=bins, groups=tuple(groups), cells=cells)


def calibration_gap(curve: CalibrationCurve, *groups: str) -> float:
    """Worst-case p_score spread within one bin among ``groups``.

    Per bin, max - min of the p_scores of the named groups nonempty in it;
    the largest of those over all bins. For two groups this is the largest
    |p_score difference| over the bins both populate, and for more it
    equals the largest pairwise gap. 0.0 when no two groups share a bin.
    """
    for g in groups:
        if g not in curve.groups:
            raise ValidationError(f"unknown group {g!r}")
    named = set(groups)
    spread: dict[int, tuple[float, float]] = {}
    for (g, b), cell in curve.cells.items():
        if g in named:
            p = cell.p_score
            lo, hi = spread.get(b, (p, p))
            spread[b] = (min(lo, p), max(hi, p))
    return max((hi - lo for lo, hi in spread.values()), default=0.0)


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
