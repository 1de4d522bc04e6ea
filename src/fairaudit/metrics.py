"""Calibration curves: per-(group, bin) counts, each group's threshold
sweep of cumulative true and false positives, and calibration gaps.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from operator import truediv
from typing import Mapping, NamedTuple

from .domain import (
    BinScheme,
    ConfusionMatrix,
    ValidationError,
    ValueObject,
)


class CurveCell(NamedTuple):
    """One (group, bin) cell of a calibration curve, as the
    :attr:`CalibrationCurve.cells` view holds it: its bin index, its record
    count and how many of those records are positive."""

    bin: int
    count: int
    positives: int


#: A group's record counts by bin index: (positives_by_bin, negatives_by_bin).
Tallies = tuple[dict[int, int], dict[int, int]]

#: A group's nonempty cells in ascending bin order, as three int columns of
#: equal length: (bins, counts, positives).
Cells = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

#: A group's threshold sweep: (cut points, true positives, false positives);
#: see :attr:`CalibrationCurve._sweeps`.
Sweep = tuple[tuple[float, ...], tuple[int, ...], tuple[int, ...]]


class CalibrationCurve(ValueObject):
    """Per-(group, bin) counts and positive fractions for one population.

    ``by_group`` is the cell table, the one per-cell structure a curve
    keeps: each group, in sorted order, with its nonempty cells as
    :data:`Cells` columns in bin order; cells with no records are absent,
    and no object is held per cell. Past ingest and binning, every audit
    quantity is a function of these integer counts: confusion matrices,
    calibration gaps, and expected and realized value (which coincide in
    sample, because a record's credence is its own cell's positive
    fraction). :func:`curve_from_tallies` builds every table, from each
    group's records summed by bin; a hit of the cache of
    :mod:`fairaudit.cellcache` returns one it built before.
    """

    # No __slots__: the cached properties below are kept in __dict__.
    _fields = ("bins", "by_group")
    bins: BinScheme
    by_group: Mapping[str, Cells]

    def __init__(self, bins: BinScheme, by_group: Mapping[str, Cells]) -> None:
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "by_group", by_group)
        # An audit compares groups. Checked here, so that no copy of a
        # curve can hold fewer than two.
        if len(by_group) < 2:
            raise ValidationError(
                f"need at least 2 groups, found {len(by_group)}: "
                f"{list(by_group)}"
            )

    @cached_property
    def groups(self) -> tuple[str, ...]:
        """The groups, in report order: the keys of ``by_group``."""
        return tuple(self.by_group)

    @cached_property
    def cells(self) -> Mapping[tuple[str, int], CurveCell]:
        """The nonempty cells keyed by (group, bin index), in (group, bin)
        order, one :class:`CurveCell` each: a view of ``by_group``, built
        on first use. Nothing in the package reads it; the benchmark's
        tracer does."""
        return {
            (g, b): CurveCell(b, count, positives)
            for g, cells in self.by_group.items()
            for b, count, positives in zip(*cells)
        }

    def p_score(self, group: str, bin_index: int) -> float:
        """The positive fraction of a group's cell in bin ``bin_index``,
        found by bisecting the group's bins, which are in ascending order."""
        bins, counts, positives = self.by_group.get(group, ((), (), ()))
        i = bisect_left(bins, bin_index)
        if i == len(bins) or bins[i] != bin_index:
            raise ValidationError(
                f"group {group!r} has no records in bin {bin_index}"
            )
        return positives[i] / counts[i]

    @cached_property
    def _sweeps(self) -> Mapping[str, Sweep]:
        """Each group's threshold sweep, in integers: its distinct p_scores
        in ascending order (the cut points), and the true and false
        positives of acting on every cell at or above each cut point,
        followed by 0 and 0 for acting on nothing. The first entries are
        the group's positives and negatives."""
        sweeps = {}
        for g, (_bins, counts, positives) in self.by_group.items():
            cuts: list[float] = []
            tps, fps = [0], [0]
            # Down from the top p_score, each cell joins the acted set; cells
            # with equal p_scores join at one cut point.
            for p, count, pos in sorted(
                zip(map(truediv, positives, counts), counts, positives),
                reverse=True,
            ):
                tp = tps[-1] + pos
                fp = fps[-1] + count - pos
                if cuts and cuts[-1] == p:
                    tps[-1], fps[-1] = tp, fp
                else:
                    cuts.append(p)
                    tps.append(tp)
                    fps.append(fp)
            sweeps[g] = (tuple(reversed(cuts)), tuple(reversed(tps)),
                         tuple(reversed(fps)))
        return sweeps

    def sweep(self, group: str) -> Sweep:
        """A group's threshold sweep (see :attr:`_sweeps`). Its cut points
        are the only thresholds at which the group's acted set changes; at
        threshold ``t`` the acted counts are at ``bisect_left(cuts, t)``."""
        try:
            return self._sweeps[group]
        except KeyError:
            raise ValidationError(f"unknown group {group!r}") from None

    def confusion(self, group: str, threshold: float) -> ConfusionMatrix:
        """Counts of one group's records by (decision, outcome) when every
        cell with p_score >= ``threshold`` is acted on (ties act). Built
        from the group's sweep on each call; no matrix is kept."""
        cuts, tps, fps = self.sweep(group)
        i = bisect_left(cuts, threshold)
        tp, fp = tps[i], fps[i]
        return ConfusionMatrix(tp=tp, fp=fp, tn=fps[0] - fp, fn=tps[0] - tp)


def curve_from_tallies(
    bins: BinScheme, tallies: Mapping[str, Tallies]
) -> CalibrationCurve:
    """The curve of group -> (positives_by_bin, negatives_by_bin) counts.

    Every cell table is built here (a cache hit returns one built here
    before), so group order (sorted, the order of every report) and cell
    order are decided in one place, and each group's cells become its three
    :data:`Cells` columns. A cell with no records is left
    out, and so is a group with none; the constructor refuses a curve of
    fewer than two groups.
    """
    by_group: dict[str, Cells] = {}
    for g in sorted(tallies):
        positives, negatives = tallies[g]
        cells = []
        for b in sorted(positives.keys() | negatives.keys()):
            p = positives.get(b, 0)
            count = p + negatives.get(b, 0)
            if count:
                cells.append((b, count, p))
        if cells:
            by_group[g] = tuple(zip(*cells))
    return CalibrationCurve(bins=bins, by_group=by_group)


def calibration_gap(curve: CalibrationCurve, *groups: str) -> float:
    """Worst-case p_score spread within one bin among ``groups``.

    Per bin, max - min of the p_scores of the named groups nonempty in it;
    the largest of those over all bins. For two groups this is the largest
    |p_score difference| over the bins both populate, and for more it
    equals the largest pairwise gap. 0.0 when no two groups share a bin.
    """
    for g in groups:
        if g not in curve.by_group:
            raise ValidationError(f"unknown group {g!r}")
    spread: dict[int, tuple[float, float]] = {}
    for g in groups:
        for b, count, positives in zip(*curve.by_group[g]):
            p = positives / count
            lo, hi = spread.get(b, (p, p))
            spread[b] = (min(lo, p), max(hi, p))
    return max((hi - lo for lo, hi in spread.values()), default=0.0)
