"""Test oracles: per-credence and per-cell quantities that no command
reports, and a curve built from per-cell entries, each computed the direct
way so the tests can hold the package to it.

- :func:`expected_values` is the expected value of acting and of refraining
  at one credence. Acceptance criterion 4 (threshold oracle) finds p* as
  the crossover of the two on a grid and holds
  :func:`fairaudit.optimal_threshold` to it; ``tests/test_decision.py``
  uses it the same way.
- :func:`individual_error_risk` is the chance that the decision on a record
  of one (group, bin) cell is wrong. Acceptance criterion 8 (individual
  error risk is group-blind) checks that under a uniform policy two cells
  with the same p_score carry the same risk. It returns to the package only
  with a command that reports it, such as a per-cell ``--explain``.
- :func:`chance_miscalibration_bound` is the Chebyshev bound on a per-bin
  calibration gap arising by chance; ``tests/test_metrics.py`` holds it to
  the exact binomial tail.
- :func:`impossibility_applicable` decides, in exact fractions, whether
  the impossibility check asserts an FPR ordering for a pair of groups;
  ``tests/test_parity.py`` holds :func:`fairaudit.impossibility_check` to
  it on drawn pairs.
- :func:`curve_from_counts` sums (group, bin index, positives, negatives)
  entries into a curve, so that a test can declare a curve's cells by bin.
  ``test_ingest_builds_the_curve_of_its_rows`` holds ingest to it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from fairaudit.domain import (
    BinScheme,
    OutcomeValues,
    ThresholdPolicy,
    ValidationError,
)
from fairaudit.metrics import CalibrationCurve, Tallies, curve_from_tallies


class DecisionEV(NamedTuple):
    """Expected values of the two available actions at one credence level."""

    ev_act: float
    ev_refrain: float


def expected_values(p: float, values: OutcomeValues) -> DecisionEV:
    """EV of acting and of refraining at credence p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"credence {p!r} outside [0, 1]")
    return DecisionEV(
        ev_act=p * values.v_tp + (1.0 - p) * values.v_fp,
        ev_refrain=(1.0 - p) * values.v_tn + p * values.v_fn,
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


def impossibility_applicable(
    curve: CalibrationCurve, a: str, b: str, threshold: float
) -> bool:
    """Whether the FPR ordering of groups ``a`` and ``b`` at one uniform
    ``threshold`` is a theorem, decided in exact fractions:

    - the pair is exactly calibrated: in every bin both populate, the two
      positive fractions are equal;
    - the two base rates differ;
    - in each group the threshold acts on some record and refrains on some
      negative; a cell is acted on when its p_score, as a float, is at
      least ``threshold``, the package's decision rule;
    - the higher-base-rate group dominates the other in likelihood ratio:
      with the bins pooled into levels of equal pooled positive fraction,
      for any two levels its count over the other's is no smaller at the
      higher level.
    """
    cells = {
        g: {bin_: (count, pos) for bin_, count, pos in zip(*curve.by_group[g])}
        for g in (a, b)
    }
    for bin_ in cells[a].keys() & cells[b].keys():
        (na, pa), (nb, pb) = cells[a][bin_], cells[b][bin_]
        if Fraction(pa, na) != Fraction(pb, nb):
            return False
    rate = {
        g: Fraction(sum(p for _, p in cells[g].values()),
                    sum(n for n, _ in cells[g].values()))
        for g in (a, b)
    }
    if rate[a] == rate[b]:
        return False
    for g in (a, b):
        acted = [pos / count >= threshold for count, pos in cells[g].values()]
        refrained_negatives = sum(
            count - pos
            for (count, pos), act in zip(cells[g].values(), acted) if not act
        )
        if all(acted) or not any(acted) or not refrained_negatives:
            return False
    higher, lower = (a, b) if rate[a] > rate[b] else (b, a)
    # pooled positive fraction -> [higher's count, lower's count]
    levels: dict[Fraction, list[int]] = {}
    for bin_ in cells[a].keys() | cells[b].keys():
        nh, ph = cells[higher].get(bin_, (0, 0))
        nl, pl = cells[lower].get(bin_, (0, 0))
        level = levels.setdefault(Fraction(ph + pl, nh + nl), [0, 0])
        level[0] += nh
        level[1] += nl
    ordered = [levels[p] for p in sorted(levels)]
    return all(
        h1 * l0 >= h0 * l1
        for i, (h0, l0) in enumerate(ordered)
        for h1, l1 in ordered[i + 1:]
    )


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
