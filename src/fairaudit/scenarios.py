"""The named worked examples: their names, the shape of a scenario's spec,
and the checks of its published figures against a report.

The fixtures themselves live in :mod:`fairaudit.fixtures`, which
:func:`scenario_spec` imports on first use, so that ``audit`` and
``equalize`` never compile them.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple

from .domain import AuditError, BinScheme
from .metrics import CalibrationCurve, Tallies, curve_from_tallies

if TYPE_CHECKING:
    from .report import AuditReport

#: The scenarios' names, in the order of ``fixtures.SPECS``: the CLI offers
#: them without compiling the fixtures.
SCENARIO_NAMES = (
    "stride_height", "section_grades", "compas_synthetic", "compas_benefit",
    "certainty_lottery", "miscalibrated_compas",
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
    from .fixtures import SPECS

    try:
        return SPECS[name]
    except KeyError:
        raise AuditError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}"
        ) from None


def scenario_curve(
    bins: BinScheme, cells: Iterable[Entry]
) -> CalibrationCurve:
    """The curve of declared counts: each entry is binned once and summed
    into its group's tallies by bin, as ingest sums its rows."""
    bin_of = bins.bin_of
    tallies: dict[str, Tallies] = {}
    for group, score, positives, negatives in cells:
        b = bin_of(score)
        pos, neg = tallies.setdefault(group, ({}, {}))
        pos[b] = pos.get(b, 0) + positives
        neg[b] = neg.get(b, 0) + negatives
    return curve_from_tallies(bins, tallies)


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
    if kind in ("p", "equiv_threshold"):
        bin_label, _, group = rest.rpartition(":")
        curve = report.curve
        cells = _entry(curve.by_group, group, "calibration", label)
        if kind == "p":
            by_label = {
                curve.bins.label(b): positives / count
                for b, count, positives in zip(*cells)
            }
            return _entry(by_label, bin_label, "calibration", label)
        # Effective per-group probability threshold implied by the uniform
        # score rule: the smallest acted-bin p_score (ties act, as in the
        # sweep).
        cuts = curve.sweep(group)[0]
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
) -> list[dict[str, Any]]:
    """Evaluate every check against the figures in ``report``; returns one
    record per check, as the report's scenario section holds it: label,
    expected, actual, tolerance, rendered and passed."""
    from .report import format_percent

    results = []
    for check in spec.checks:
        actual = scenario_figure(report, check.label)
        ok = abs(actual - check.expected) <= check.tol
        if check.rendered is not None:
            ok = ok and format_percent(actual) == check.rendered
        results.append({
            "label": check.label,
            "expected": check.expected,
            "actual": actual,
            "tolerance": check.tol,
            "rendered": check.rendered,
            "passed": ok,
        })
    return results
