import json
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

import fairaudit.report
from conftest import keyed_cells
from fairaudit import (
    SYMMETRIC_VALUES,
    BinScheme,
    ThresholdPolicy,
    curve_from_counts,
    equalize_fpr,
    scenario_spec,
)
from fairaudit.cli import _base_report
from fairaudit.report import format_percent, render_report


def test_markdown_prints_large_counts_as_integers():
    spec = scenario_spec("compas_synthetic")
    high = spec.bins.bin_of(8.0)
    curve = curve_from_counts(spec.bins, [
        ("black", high, 1_000_000, 234_567), ("white", high, 497, 349),
    ])
    report = _base_report(
        curve, spec.action_benefits_subject,
        ThresholdPolicy.uniform(spec.threshold), SYMMETRIC_VALUES, True, 1e-9, [],
    )
    text = render_report(report, "md")
    assert "| black | high | 1234567 | 1000000 | 81.0% |" in text


def test_markdown_never_prints_a_nonzero_gap_as_zero():
    # The low bins' p_scores are 1/40000 and 1/40001: a calibration gap of
    # 6.25e-10. (Gaps of exactly 0 print as 0.0% in the goldens.)
    bins = BinScheme(edges=(0.0, 0.5, 1.0))
    entries = [("a", 0, 1, 39_999), ("b", 0, 1, 40_000),
               ("a", 1, 1, 1), ("b", 1, 1, 1)]
    report = _base_report(
        curve_from_counts(bins, entries), False, ThresholdPolicy.uniform(0.5),
        SYMMETRIC_VALUES, True, 1e-9, [],
    )
    assert 0 < report.calibration_gap < 1e-9
    text = render_report(report, "md")
    assert "Max per-bin p_score gap between groups: <0.05%" in text
    assert "(gap <0.05%)" in text


def many_cell_report():
    """A report over 16 groups x 50 bins: the cells far outnumber their
    distinct p_scores."""
    counts = [
        (f"g{g:02d}", b, (3 * g + 7 * b) % 11, (5 * g + 2 * b) % 9 + 1)
        for g in range(16)
        for b in range(50)
        if (g + b) % 7
    ]
    curve = curve_from_counts(BinScheme(edges=tuple(range(51))), counts)
    policy = ThresholdPolicy.uniform(0.5)
    return _base_report(
        curve, False, policy, SYMMETRIC_VALUES, False, 1e-9, []
    )._replace(equalization=equalize_fpr(curve, policy, tolerance=1e-9))


def test_markdown_formats_each_distinct_rate_once(monkeypatch):
    report = many_cell_report()
    curve = report.curve
    formatted = []

    def counted(x):
        formatted.append(x)
        return format_percent(x)

    monkeypatch.setattr(fairaudit.report, "format_percent", counted)
    text = render_report(report, "md")
    assert len(formatted) == len(set(formatted))
    assert len(formatted) < len(keyed_cells(curve)) // 4
    lines = set(text.splitlines())
    for (g, b), cell in keyed_cells(curve).items():
        assert (
            f"| {g} | {curve.bins.label(b)} | {cell.count} | "
            f"{cell.positives} | {format_percent(cell.p_score)} |"
        ) in lines


def test_json_cells_are_the_curve_cells():
    report = many_cell_report()
    curve = report.curve
    recount = {}
    for (g, b), cell in keyed_cells(curve).items():
        recount.setdefault(g, {})[curve.bins.label(b)] = {
            "count": cell.count,
            "positives": cell.positives,
            "p_score": cell.positives / cell.count,
        }
    payload = json.loads(render_report(report, "json"))
    assert payload["calibration"]["cells"] == recount


def decimal_percent(x):
    """The Decimal formulation of the published rounding, kept as the
    oracle of the integer one in ``format_percent``."""
    pct = Decimal(repr(x * 100.0))
    two = pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    one = two.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    return f"{one}%"


@pytest.mark.parametrize("x,text", [
    (805 / 1795, "44.9%"),  # 44.8468: to 44.85, then half up to 44.9
    (0.30000000000000004, "30.0%"),
    (5e-324, "0.0%"),
    (0.0, "0.0%"),
    (1.0, "100.0%"),
])
def test_format_percent_pinned_cases(x, text):
    assert format_percent(x) == text == decimal_percent(x)


@settings(max_examples=500)
@given(st.floats(min_value=0.0, max_value=1.0)
       | st.integers(1, 10**6).flatmap(
           lambda j: st.integers(0, j).map(lambda i: i / j)))
@example(0.00045)
@example(0.99995)
@example(1.5e-05)
def test_format_percent_matches_the_decimal_rounding(x):
    assert format_percent(x) == decimal_percent(x)
