"""Audit report assembly and rendering.

Numbers are stored at full precision; rounding happens only at render time.
The markdown renderer prints one-decimal percentages using the published
table's convention (round to two decimals, then to one, half away from
zero), which is what turns 805/1795 into 44.9%.
"""
from __future__ import annotations

import json
from decimal import ROUND_HALF_UP, Decimal
from typing import Any, Mapping, NamedTuple, Sequence

from . import __version__
from .decision import PolicyAssessment
from .domain import ConfusionMatrix, OutcomeValues
from .metrics import CalibrationCurve
from .parity import EqualizationResult, ImpossibilityVerdict, LotteryResult

REPORT_VERSION = 1


def format_percent(x: float) -> str:
    """Render a rate as a one-decimal percentage, ProPublica-table style."""
    pct = Decimal(repr(x * 100.0))
    two = pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    one = two.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    return f"{one}%"


def _pct(x: float | None) -> str:
    return format_percent(x) if x is not None else "-"


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
    calibration_cells: Mapping[str, Mapping[str, Mapping[str, float]]]
    assessment: PolicyAssessment
    impossibility: ImpossibilityVerdict | None = None
    equalization: EqualizationResult | None = None
    lottery: LotteryResult | None = None
    scenario: ScenarioSection | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "report_version": REPORT_VERSION,
            "tool": {"name": "fairaudit", "version": __version__},
            "action_benefits_subject": self.population_benefits,
            "policy": {
                "kind": self.policy_kind,
                "thresholds": dict(self.thresholds),
            },
            "values": {
                **self.values._asdict(), "defaulted": self.values_defaulted,
            },
            "groups": {
                g: {
                    key: getattr(cm, key)
                    for key in (
                        "n", "tp", "fp", "tn", "fn",
                        "base_rate", "fpr", "fnr", "ppv",
                    )
                }
                for g, cm in self.groups.items()
            },
            "calibration": {
                "gap": self.calibration_gap,
                "cells": {
                    g: dict(bins) for g, bins in self.calibration_cells.items()
                },
            },
            "assessment": _assessment_dict(self.assessment),
            "notes": list(self.notes),
        }
        for key in ("impossibility", "equalization", "lottery", "scenario"):
            section = getattr(self, key)
            if section is not None:
                out[key] = section._asdict()
        return out


def _assessment_dict(assessment: PolicyAssessment) -> dict[str, Any]:
    def one(a) -> dict[str, Any]:
        return {
            **a._asdict(),
            "expected_disvalue": a.expected_disvalue,
            "realized_value": a.realized_value,
        }

    return {
        "total": one(assessment.total),
        "per_group": {g: one(a) for g, a in assessment.per_group.items()},
    }


def curve_cells_dict(
    curve: CalibrationCurve,
) -> dict[str, dict[str, dict[str, float]]]:
    out: dict[str, dict[str, dict[str, float]]] = {}
    for (g, b), cell in curve.cells.items():
        out.setdefault(g, {})[curve.bins.label(b)] = {
            "count": cell.count,
            "positives": cell.positives,
            "p_score": cell.p_score,
        }
    return out


def render_report(report: AuditReport, fmt: str) -> str:
    """Render to json (full precision, stable key order) or markdown
    (one-decimal percents)."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt == "md":
        return _render_markdown(report)
    raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'md'")


def _render_markdown(report: AuditReport) -> str:
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
    thr = ", ".join(f"{g}={t:g}" for g, t in sorted(report.thresholds.items()))
    add(f"Policy ({report.policy_kind}): act when p_score >= threshold; {thr}.")
    add("")
    add("## Groups")
    add("")
    add("| group | n | base rate | FPR | FNR | PPV | TP | FP | TN | FN |")
    add("|---|---|---|---|---|---|---|---|---|---|")
    for g in sorted(report.groups):
        c = report.groups[g]
        add(
            f"| {g} | {c.n} | {_pct(c.base_rate)} | {_pct(c.fpr)} | "
            f"{_pct(c.fnr)} | {_pct(c.ppv)} | {c.tp} | {c.fp} | {c.tn} | {c.fn} |"
        )
    add("")
    add("## Calibration")
    add("")
    add(f"Max per-bin p_score gap between groups: {_pct(report.calibration_gap)}")
    add("")
    add("| group | bin | count | positives | p_score |")
    add("|---|---|---|---|---|")
    for g in sorted(report.calibration_cells):
        for label, cell in report.calibration_cells[g].items():
            add(
                f"| {g} | {label} | {cell['count']} | {cell['positives']} "
                f"| {_pct(cell['p_score'])} |"
            )
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
            f"(gap {_pct(imp.calibration_gap)})."
        )
        rates = ", ".join(
            f"{g}={_pct(r)}" for g, r in sorted(imp.base_rates.items())
        )
        fprs = ", ".join(f"{g}={_pct(r)}" for g, r in sorted(imp.fprs.items()))
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
                f"| {g} | {e.thresholds[g]:g} | {_pct(e.baseline_fprs[g])} | "
                f"{_pct(e.fprs[g])} | {e.acted_baseline[g]} | "
                f"{e.acted_equalized[g]} |"
            )
        exact = "exact" if e.exact else "residual"
        add(
            f"Parity {exact}; residual FPR gap {_pct(e.residual_gap)}; "
            f"expected disvalue increase vs baseline {e.disvalue_delta:.6g}."
        )
    if report.lottery is not None:
        add("")
        add("## Fair lottery")
        add("")
        add(
            f"Per-individual exclusion probability "
            f"{_pct(report.lottery.probability)}, identical for every group."
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
