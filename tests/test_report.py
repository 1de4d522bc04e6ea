import fairaudit.report
from fairaudit import (
    SYMMETRIC_VALUES,
    BinScheme,
    ThresholdPolicy,
    curve_from_counts,
    equalize_fpr,
    scenario_curve,
    scenario_spec,
)
from fairaudit.cli import _base_report
from fairaudit.report import format_percent, render_report


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


def test_markdown_formats_each_distinct_rate_once(monkeypatch):
    # 16 groups x 50 bins: the cells far outnumber their distinct p_scores.
    counts = [
        (f"g{g:02d}", b, (3 * g + 7 * b) % 11, (5 * g + 2 * b) % 9 + 1)
        for g in range(16)
        for b in range(50)
        if (g + b) % 7
    ]
    curve = curve_from_counts(BinScheme(edges=tuple(range(51))), counts)
    policy = ThresholdPolicy.uniform(0.5)
    report = _base_report(
        curve, False, policy, SYMMETRIC_VALUES, False, 1e-9, []
    )._replace(equalization=equalize_fpr(curve, policy, tolerance=1e-9))
    formatted = []

    def counted(x):
        formatted.append(x)
        return format_percent(x)

    monkeypatch.setattr(fairaudit.report, "format_percent", counted)
    text = render_report(report, "md")
    assert len(formatted) == len(set(formatted))
    assert len(formatted) < len(curve.cells) // 4
    lines = set(text.splitlines())
    for (g, b), cell in curve.cells.items():
        assert (
            f"| {g} | {curve.bins.label(b)} | {cell.count} | "
            f"{cell.positives} | {format_percent(cell.p_score)} |"
        ) in lines
