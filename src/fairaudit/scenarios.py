"""The named worked examples: their names, the shape of a scenario's spec,
and the checks of its published figures against a report.

The fixtures themselves live in :mod:`fairaudit.fixtures`, which
:func:`scenario_spec` imports on first use, so that ``audit`` and
``equalize`` never compile them.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .domain import AuditError, BinScheme
from .metrics import CalibrationCurve, curve_from_counts

if TYPE_CHECKING:
    from .report import AuditReport

STRIDE_HEIGHT = "stride_height"
SECTION_GRADES = "section_grades"
COMPAS_SYNTHETIC = "compas_synthetic"
COMPAS_BENEFIT = "compas_benefit"
CERTAINTY_LOTTERY = "certainty_lottery"
MISCALIBRATED_COMPAS = "miscalibrated_compas"

SCENARIO_NAMES = (
    STRIDE_HEIGHT,
    SECTION_GRADES,
    COMPAS_SYNTHETIC,
    COMPAS_BENEFIT,
    CERTAINTY_LOTTERY,
    MISCALIBRATED_COMPAS,
)


class Check(NamedTuple):
    """One published figure to assert: a label, the expected value, an
    absolute tolerance (0.0 means exact), and optionally the exact rendered
    one-decimal-percent string the report must show."""

    label: str
    expected: float
    tol: float = 0.0
    rendered: str | None = None


#: (group, score, positives, negatives): that many records of the group at
#: that score. A (group, bin) cell may span several entries.
Entry = tuple[str, float, int, int]


class ScenarioSpec(NamedTuple):
    """A named worked example: its fixture, declared as exact counts, and
    the policy and published figures it is checked against."""

    name: str
    description: str
    bins: BinScheme
    cells: tuple[Entry, ...]
    action_benefits_subject: bool
    threshold: float
    calib_tolerance: float
    equalize_direction: str
    checks: tuple[Check, ...]
    exclusion_quota: int | None = None
    notes: tuple[str, ...] = ()


def scenario_spec(name: str) -> ScenarioSpec:
    """The named scenario's fixture and expected figures."""
    from .fixtures import BUILDERS

    try:
        builder = BUILDERS[name]
    except KeyError:
        raise AuditError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}"
        ) from None
    return builder()


def scenario_curve(
    bins: BinScheme, cells: Iterable[Entry]
) -> CalibrationCurve:
    """The calibration curve of declared counts: each entry's score is
    binned once and its records summed into that cell."""
    bin_of = bins.bin_of
    return curve_from_counts(bins, (
        (group, bin_of(score), positives, negatives)
        for group, score, positives, negatives in cells
    ))


def _section(report: AuditReport, name: str, label: str):
    section = getattr(report, name)
    if section is None:
        raise AuditError(
            f"check {label!r} reads the report's {name} section, which "
            "this report does not have"
        )
    return section


def _entry(table: Mapping, key: str, section: str, label: str):
    try:
        return table[key]
    except KeyError:
        raise AuditError(
            f"check {label!r}: the report's {section} section has no {key!r}"
        ) from None


def scenario_figure(report: AuditReport, label: str) -> float:
    """Read the figure one check label names off the scenario's report.

    A label that reads a section or an entry the report lacks raises
    ``AuditError`` naming it.
    """
    kind, _, rest = label.partition(":")

    if kind == "calibration_gap":
        return report.calibration_gap
    if kind == "lottery_probability":
        lottery = _section(report, "lottery", label)
        return _entry(lottery.per_group, rest, "lottery", label)
    if kind in ("equalized_threshold", "acted_baseline", "acted_equalized"):
        equalization = _section(report, "equalization", label)
        table = {
            "equalized_threshold": equalization.thresholds,
            "acted_baseline": equalization.acted_baseline,
            "acted_equalized": equalization.acted_equalized,
        }[kind]
        return float(_entry(table, rest, "equalization", label))
    if kind == "equalize_residual":
        return _section(report, "equalization", label).residual_gap
    if kind in ("p", "equiv_threshold"):
        bin_label, _, group = rest.rpartition(":")
        curve = report.curve
        cells = _entry(curve.by_group, group, "calibration", label)
        if kind == "p":
            by_label = {curve.bins.label(cell.bin): cell for cell in cells}
            return _entry(by_label, bin_label, "calibration", label).p_score
        # Effective per-group probability threshold implied by the uniform
        # score rule: the smallest acted-bin p_score (ties act, as in the
        # sweep).
        cuts = curve.cut_points(group)
        i = bisect_left(cuts, report.thresholds[group])
        if i == len(cuts):
            raise AuditError(f"group {group!r} has no acted bins")
        return cuts[i]

    if kind not in ("tp", "fp", "tn", "fn", "base_rate", "fpr", "fnr", "ppv"):
        raise AuditError(f"unknown check kind in {label!r}")
    figure = getattr(_entry(report.groups, rest, "groups", label), kind)
    if figure is None:
        raise AuditError(f"{kind} undefined for group {rest!r}")
    return float(figure)


def check_scenario(
    report: AuditReport, spec: ScenarioSpec
) -> list[tuple[Check, float, bool]]:
    """Evaluate every check against the figures in ``report``; returns
    (check, actual, passed) triples, one per check."""
    from .report import format_percent

    results = []
    for check in spec.checks:
        actual = scenario_figure(report, check.label)
        ok = abs(actual - check.expected) <= check.tol
        if check.rendered is not None:
            ok = ok and format_percent(actual) == check.rendered
        results.append((check, actual, ok))
    return results
