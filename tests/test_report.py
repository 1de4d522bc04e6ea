from fairaudit import (
    SYMMETRIC_VALUES,
    ThresholdPolicy,
    scenario_curve,
    scenario_spec,
)
from fairaudit.cli import _base_report
from fairaudit.report import render_report


def test_markdown_prints_large_counts_as_integers():
    spec = scenario_spec("compas_synthetic")
    report = _base_report(
        scenario_curve(spec.bins, spec.cells), spec.action_benefits_subject,
        ThresholdPolicy.uniform(spec.threshold), SYMMETRIC_VALUES, True, 1e-9, [],
    )
    cells = {"black": {"high": {"count": 1_234_567, "positives": 1_000_000,
                                "p_score": 1_000_000 / 1_234_567}}}
    text = render_report(report._replace(calibration_cells=cells), "md")
    assert "| black | high | 1234567 | 1000000 | 81.0% |" in text
