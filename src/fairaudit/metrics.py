"""Calibration curves: per-(group, bin) counts, each group's threshold
sweep of cumulative true and false positives, and calibration gaps.
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
    """One (group, bin) cell of a calibration curve: its bin index, its
    record count and how many of those records are positive."""

    bin: int
    count: int
    positives: int

    @property
    def p_score(self) -> float:
        """Empirical positive fraction inside this cell."""
        if self.count == 0:
            raise ValidationError("p_score of an empty cell is undefined")
        return self.positives / self.count


#: A group's record counts by bin index: (positives_by_bin, negatives_by_bin).
Tallies = tuple[dict[int, int], dict[int, int]]

#: A group's threshold sweep: (cut points, true positives, false positives);
#: see :attr:`CalibrationCurve._sweeps`.
Sweep = tuple[tuple[float, ...], tuple[int, ...], tuple[int, ...]]


class CalibrationCurve(ValueObject):
    """Per-(group, bin) counts and positive fractions for one population.

    ``by_group`` is the cell table, the one per-cell structure a curve
    keeps: each group, in sorted order, with its nonempty cells in bin
    order; cells with no records are absent. Past ingest and binning, every
    audit quantity is a function of these integer counts: confusion
    matrices, calibration gaps, and expected and realized value (which
    coincide in sample, because a record's credence is its own cell's
    positive fraction). Build one with :func:`curve_from_counts` or
    :func:`curve_from_tallies`.
    """

    # No __slots__: the cached properties below are kept in __dict__.
    _fields = ("bins", "groups", "by_group")
    bins: BinScheme
    groups: tuple[str, ...]
    by_group: Mapping[str, tuple[CurveCell, ...]]

    def __init__(
        self,
        bins: BinScheme,
        groups: tuple[str, ...],
        by_group: Mapping[str, tuple[CurveCell, ...]],
    ) -> None:
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "by_group", by_group)

    @cached_property
    def cells(self) -> Mapping[tuple[str, int], CurveCell]:
        """The nonempty cells keyed by (group, bin index), in (group, bin)
        order: a view of ``by_group``, built on first use. Nothing in the
        package reads it; the benchmark's tracer does."""
        return {
            (g, cell.bin): cell
            for g, cells in self.by_group.items()
            for cell in cells
        }

    def p_score(self, group: str, bin_index: int) -> float:
        """The positive fraction of a group's cell in bin ``bin_index``,
        found by bisecting the group's cells, which are in bin order."""
        cells = self.by_group.get(group, ())
        i = bisect_left(cells, bin_index, key=lambda cell: cell.bin)
        if i == len(cells) or cells[i].bin != bin_index:
            raise ValidationError(
                f"group {group!r} has no records in bin {bin_index}"
            )
        return cells[i].p_score

    @cached_property
    def _sweeps(self) -> Mapping[str, Sweep]:
        """Each group's threshold sweep, in integers: its distinct p_scores
        in ascending order (the cut points), and the true and false
        positives of acting on every cell at or above each cut point,
        followed by 0 and 0 for acting on nothing. The first entries are
        the group's positives and negatives."""
        sweeps = {}
        for g, cells in self.by_group.items():
            cuts: list[float] = []
            tps, fps = [0], [0]
            # Down from the top p_score, each cell joins the acted set; cells
            # with equal p_scores join at one cut point.
            for cell in sorted(cells, key=lambda c: c.p_score, reverse=True):
                p = cell.p_score
                tp = tps[-1] + cell.positives
                fp = fps[-1] + cell.count - cell.positives
                if cuts and cuts[-1] == p:
                    tps[-1], fps[-1] = tp, fp
                else:
                    cuts.append(p)
                    tps.append(tp)
                    fps.append(fp)
            sweeps[g] = (tuple(reversed(cuts)), tuple(reversed(tps)),
                         tuple(reversed(fps)))
        return sweeps

    def cut_points(self, group: str) -> tuple[float, ...]:
        """The distinct p_scores of a group's cells, ascending: the only
        thresholds at which its acted set changes."""
        return self._sweep(group)[0]

    def confusion(self, group: str, threshold: float) -> ConfusionMatrix:
        """Counts of one group's records by (decision, outcome) when every
        cell with p_score >= ``threshold`` is acted on (ties act). Built
        from the group's sweep on each call; no matrix is kept."""
        cuts, tps, fps = self._sweep(group)
        i = bisect_left(cuts, threshold)
        tp, fp = tps[i], fps[i]
        return ConfusionMatrix(tp=tp, fp=fp, tn=fps[0] - fp, fn=tps[0] - tp)

    def _sweep(self, group: str) -> Sweep:
        try:
            return self._sweeps[group]
        except KeyError:
            raise ValidationError(f"unknown group {group!r}") from None


def curve_from_tallies(
    bins: BinScheme, tallies: Mapping[str, Tallies]
) -> CalibrationCurve:
    """The curve of group -> (positives_by_bin, negatives_by_bin) counts.

    Every curve is built here, so group order (sorted, the order of every
    report), cell order and the two-group rule are decided in one place:
    an audit compares groups, so fewer than two is a ValidationError. A
    cell with no records is left out, and so is a group with none.
    """
    by_group: dict[str, tuple[CurveCell, ...]] = {}
    for g in sorted(tallies):
        positives, negatives = tallies[g]
        cells = []
        for b in sorted(positives.keys() | negatives.keys()):
            p = positives.get(b, 0)
            count = p + negatives.get(b, 0)
            if count:
                cells.append(CurveCell(b, count, p))
        if cells:
            by_group[g] = tuple(cells)
    groups = tuple(by_group)
    if len(groups) < 2:
        raise ValidationError(
            f"need at least 2 groups, found {len(groups)}: {list(groups)}"
        )
    return CalibrationCurve(bins=bins, groups=groups, by_group=by_group)


def curve_from_counts(
    bins: BinScheme, counts: Iterable[tuple[str, int, int, int]]
) -> CalibrationCurve:
    """Sum (group, bin index, positives, negatives) entries into a curve.

    Entries may repeat a cell. They are summed into a group's tallies and
    built by :func:`curve_from_tallies`, so a cell that sums to no records
    is left out, and so is a group with no records.
    """
    tallies: dict[str, Tallies] = {}
    for group, b, positives, negatives in counts:
        pos, neg = tallies.setdefault(group, ({}, {}))
        pos[b] = pos.get(b, 0) + positives
        neg[b] = neg.get(b, 0) + negatives
    return curve_from_tallies(bins, tallies)


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
    spread: dict[int, tuple[float, float]] = {}
    for g in groups:
        for cell in curve.by_group[g]:
            p = cell.p_score
            lo, hi = spread.get(cell.bin, (p, p))
            spread[cell.bin] = (min(lo, p), max(hi, p))
    return max((hi - lo for lo, hi in spread.values()), default=0.0)


def chance_miscalibration_bound(n: int, p: float, gap: float) -> float:
    """Chebyshev upper bound on a per-bin deviation >= gap arising by chance.

    For n records with true positive rate p, the probability that the
    observed fraction deviates from p by at least gap is at most
    p(1-p) / (n * gap^2), clamped to 1.
    """
    if not n >= 1:
        raise ValidationError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    if not gap > 0.0:
        raise ValidationError("gap must be positive")
    return min(1.0, p * (1.0 - p) / (n * gap * gap))
