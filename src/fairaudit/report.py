"""Audit report assembly and rendering.

Numbers are stored at full precision; rounding happens only at render time.
The markdown renderer prints one-decimal percentages using the published
table's convention (round the decimal ``repr`` prints to two decimals, then
to one, half away from zero), which is what turns 805/1795 into 44.9%.
A gap between rates that is not zero but rounds to 0.0% prints as <0.05%.
In markdown, a group or bin label prints ``\\`` and ``|`` as ``\\\\``
and ``\\|`` and CR and LF as ``\\r`` and ``\\n``, in table cells and in
the policy and base-rate lines alike, so that no label adds a column or
splits a line.
"""
from __future__ import annotations

from typing import Any, Mapping, NamedTuple, Sequence

from . import __version__
from .decision import PolicyAssessment, printed_decimal
from .domain import ConfusionMatrix, OutcomeValues
from .metrics import CalibrationCurve
from .parity import EqualizationResult, ImpossibilityVerdict, LotteryResult


def format_percent(x: float) -> str:
    """Render a rate as a one-decimal percentage, ProPublica-table style,
    in integer arithmetic."""
    digits, exponent = printed_decimal(abs(x) * 100.0)
    # digits * 10**(exponent + 2) hundredths, rounded half up to whole ones
    unit = 10 ** max(-exponent - 2, 0)
    hundredths, rest = divmod(digits * 10 ** max(exponent + 2, 0), unit)
    tenths = (hundredths + (2 * rest >= unit) + 5) // 10
    sign = "-" if repr(x)[0] == "-" else ""
    return f"{sign}{tenths // 10}.{tenths % 10}%"


class ScenarioSection(NamedTuple):
    name: str
    description: str
    checks: Sequence[Mapping[str, Any]]
    passed: bool


class AuditReport(NamedTuple):
    population_benefits: bool
    policy_kind: str
    thresholds: Mapping[str, float]
    values: OutcomeValues
    values_defaulted: bool
    groups: Mapping[str, ConfusionMatrix]
    calibration_gap: float
    curve: CalibrationCurve
    assessment: PolicyAssessment
    impossibility: ImpossibilityVerdict | None = None
    equalization: EqualizationResult | None = None
    lottery: LotteryResult | None = None
    scenario: ScenarioSection | None = None
    notes: tuple[str, ...] = ()


def render_report(report: AuditReport, fmt: str) -> str:
    """Render to json (full precision, stable key order) or markdown
    (one-decimal percents)."""
    if fmt == "json":
        # Here, so that a markdown run never loads them.
        import json

        from .report_json import report_dict

        text = json.dumps(report_dict(report), sort_keys=True, indent=2)
        return text + "\n"
    if fmt == "md":
        return _render_markdown(report)
    raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'md'")


#: What a label's characters print as in markdown, in a table cell or
#: not. The backslash is escaped too, so that no two labels print alike
#: and no label's own backslash turns an escaped '|' back into a column
#: break.
_CELL_ESCAPES = str.maketrans(
    {"\\": "\\\\", "|": "\\|", "\r": "\\r", "\n": "\\n"}
)


def _render_markdown(report: AuditReport) -> str:
    # Each distinct rate is formatted once per render: thousands of cells
    # share a few hundred p_scores. Every rate here is a ratio of counts or
    # a spread of such ratios, never -0.0, so no key stands for two texts.
    formatted: dict[float, str] = {}

    def pct(x: float | None) -> str:
        if x is None:
            return "-"
        text = formatted.get(x)
        if text is None:
            text = formatted[x] = format_percent(x)
        return text

    def gap(x: float) -> str:
        text = pct(x)
        return "<0.05%" if x and text == "0.0%" else text

    # Each label is escaped once per render, not once per line it is on.
    curve = report.curve
    names = {g: g.translate(_CELL_ESCAPES) for g in curve.groups}
    label = curve.bins.label
    bin_names = [
        label(b).translate(_CELL_ESCAPES) for b in range(curve.bins.n_bins)
    ]

    lines: list[str] = []
    add = lines.append
    add(f"# Fairness audit report (fairaudit {__version__})")
    add("")
    valence = "benefits" if report.population_benefits else "harms"
    add(f"Acting on an individual {valence} them.")
    add("")
    v = report.values
    defaulted = " (defaulted)" if report.values_defaulted else ""
    add(
        f"Outcome values{defaulted}: TP={v.v_tp:g}, FP={v.v_fp:g}, "
        f"TN={v.v_tn:g}, FN={v.v_fn:g}."
    )
    thr = ", ".join(
        f"{names[g]}={t:g}" for g, t in sorted(report.thresholds.items())
    )
    add(f"Policy ({report.policy_kind}): act when p_score >= threshold; {thr}.")
    add("")
    add("## Groups")
    add("")
    add("| group | n | base rate | FPR | FNR | PPV | TP | FP | TN | FN |")
    add("|---|---|---|---|---|---|---|---|---|---|")
    for g in sorted(report.groups):
        c = report.groups[g]
        add(
            f"| {names[g]} | {c.n} | {pct(c.base_rate)} | {pct(c.fpr)} | "
            f"{pct(c.fnr)} | {pct(c.ppv)} | {c.tp} | {c.fp} | {c.tn} | {c.fn} |"
        )
    add("")
    add("## Calibration")
    add("")
    add(f"Max per-bin p_score gap between groups: {gap(report.calibration_gap)}")
    add("")
    add("| group | bin | count | positives | p_score |")
    add("|---|---|---|---|---|")
    # One string per group, not per cell: the cell table is the only
    # per-cell structure a render holds.
    for g, cells in curve.by_group.items():
        name = names[g]
        add("\n".join([
            f"| {name} | {bin_names[cell.bin]} | {cell.count} | "
            f"{cell.positives} | {pct(cell.p_score)} |"
            for cell in cells
        ]))
    add("")
    add("## Policy assessment")
    add("")
    total = report.assessment.total
    add(
        f"Acted on {total.acted} of {total.n}; expected value "
        f"{total.expected_value:.6g}, expected disvalue "
        f"{total.expected_disvalue:.6g}, realized value "
        f"{total.realized_value:.6g}."
    )
    if report.impossibility is not None:
        add("")
        add("## Impossibility check")
        add("")
        imp = report.impossibility
        add(
            f"Calibrated within tolerance: {imp.calibrated} "
            f"(gap {gap(imp.calibration_gap)})."
        )
        rates = ", ".join(
            f"{names[g]}={pct(r)}" for g, r in sorted(imp.base_rates.items())
        )
        fprs = ", ".join(
            f"{names[g]}={pct(r)}" for g, r in sorted(imp.fprs.items())
        )
        add(f"Base rates: {rates}. FPRs: {fprs}.")
        if imp.applicable:
            holds = "holds" if imp.ordering_holds else "VIOLATED"
            add(
                f"Higher-base-rate group {imp.higher_base_rate_group!r} has "
                f"the higher FPR: {holds}."
            )
        else:
            add("Preconditions not met; no ordering asserted.")
    if report.equalization is not None:
        add("")
        add("## FPR equalization")
        add("")
        e = report.equalization
        add(
            f"Reference group {e.reference_group!r} held at its baseline "
            f"threshold."
        )
        add("| group | threshold | FPR (baseline) | FPR (equalized) "
            "| acted (baseline) | acted (equalized) |")
        add("|---|---|---|---|---|---|")
        for g in sorted(e.thresholds):
            add(
                f"| {names[g]} | {e.thresholds[g]:g} | "
                f"{pct(e.baseline_fprs[g])} | {pct(e.fprs[g])} | "
                f"{e.acted_baseline[g]} | "
                f"{e.acted_equalized[g]} |"
            )
        exact = "exact" if e.exact else "residual"
        add(
            f"Parity {exact}; residual FPR gap {gap(e.residual_gap)}; "
            f"expected disvalue increase vs baseline {e.disvalue_delta:.6g}."
        )
    if report.lottery is not None:
        add("")
        add("## Fair lottery")
        add("")
        add(
            f"Per-individual exclusion probability "
            f"{pct(report.lottery.probability)}, identical for every group."
        )
    if report.scenario is not None:
        add("")
        add(f"## Scenario: {report.scenario.name}")
        add("")
        add(report.scenario.description)
        add("")
        for c in report.scenario.checks:
            status = "PASS" if c["passed"] else "FAIL"
            add(
                f"- {status} {c['label']}: expected {c['expected']:.6g}, "
                f"got {c['actual']:.6g}"
            )
        add("")
        add(f"Scenario verdict: {'PASS' if report.scenario.passed else 'FAIL'}")
    if report.notes:
        add("")
        add("## Notes")
        add("")
        for note in report.notes:
            add(f"- {note}")
    add("")
    return "\n".join(lines)
