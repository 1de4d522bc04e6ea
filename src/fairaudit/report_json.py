"""The JSON form of an audit report.

Only a ``--format json`` run imports this module, so a markdown run never
compiles it. Numbers are stored at full precision.
"""
from __future__ import annotations

from typing import Any

from . import __version__
from .decision import PolicyAssessment
from .report import AuditReport

REPORT_VERSION = 1


def report_dict(report: AuditReport) -> dict[str, Any]:
    """The report as plain dicts, lists and numbers, ready for json.dumps."""
    label = report.curve.bins.label
    out: dict[str, Any] = {
        "report_version": REPORT_VERSION,
        "tool": {"name": "fairaudit", "version": __version__},
        "action_benefits_subject": report.population_benefits,
        "policy": {
            "kind": report.policy_kind,
            "thresholds": dict(report.thresholds),
        },
        "values": {
            **report.values._asdict(), "defaulted": report.values_defaulted,
        },
        "groups": {
            g: {
                key: getattr(cm, key)
                for key in (
                    "n", "tp", "fp", "tn", "fn",
                    "base_rate", "fpr", "fnr", "ppv",
                )
            }
            for g, cm in report.groups.items()
        },
        "calibration": {
            "gap": report.calibration_gap,
            "cells": {
                g: {
                    label(b): {
                        "count": count,
                        "positives": positives,
                        "p_score": positives / count,
                    }
                    for b, count, positives in zip(*cells)
                }
                for g, cells in report.curve.by_group.items()
            },
        },
        "assessment": _assessment_dict(report.assessment),
        "notes": list(report.notes),
    }
    for key in ("impossibility", "equalization", "lottery", "scenario"):
        section = getattr(report, key)
        if section is not None:
            out[key] = section._asdict()
    return out


def _assessment_dict(assessment: PolicyAssessment) -> dict[str, Any]:
    def one(a) -> dict[str, Any]:
        return {
            **a._asdict(),
            "refrained": a.refrained,
            "expected_disvalue": a.expected_disvalue,
            "realized_value": a.realized_value,
        }

    return {
        "total": one(assessment.total),
        "per_group": {g: one(a) for g, a in assessment.per_group.items()},
    }
