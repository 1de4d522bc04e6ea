import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _pairs(parent, change, name="peak_rss_mb"):
    return [
        {"parent": {name: p, "correct": True, "failed": 0},
         "change": {name: c, "correct": True, "failed": 0}}
        for p, c in zip(parent, change)
    ]


@pytest.mark.parametrize("parent, change, better, holds", [
    # lower in 10 of 10, median 0.25 below, parent IQR 0.02: holds
    ([15.46, 15.45, 15.47] * 3 + [15.46], [15.21] * 10, "lower", True),
    # lower in 9 of 10 (one tie counts for neither side): holds
    ([15.46] * 10, [15.21] * 9 + [15.46], "lower", True),
    # lower in 8 of 10: does not hold
    ([15.46] * 10, [15.21] * 8 + [15.46, 15.5], "lower", False),
    # lower in 10 of 10, but by less than the parent's IQR: does not hold
    ([1.0, 2.0] * 5, [0.9, 1.9] * 5, "lower", False),
    # a metric better when higher: the change must read higher
    ([100.0] * 10, [120.0] * 10, "higher", True),
    ([100.0] * 10, [80.0] * 10, "higher", False),
])
def test_summarize_applies_the_gain_rule(parent, change, better, holds):
    s = pairs.summarize(_pairs(parent, change), {"peak_rss_mb": better})
    assert list(s) == ["peak_rss_mb"]
    assert s["peak_rss_mb"]["better"] == better
    assert s["peak_rss_mb"]["gain_rule_holds"] is holds


def test_summarize_names_the_workload_free_metric_and_counts_pairs():
    rows = _pairs([15.46] * 10, [15.21] * 9 + [15.5],
                  name="equalize-cells.peak_rss_mb")
    for pair in rows:
        pair["parent"]["scenario-mix.wall_s_p90"] = pair["change"]["scenario-mix.wall_s_p90"] = 1
    s = pairs.summarize(rows, {"peak_rss_mb": "lower"})
    rss = s["equalize-cells.peak_rss_mb"]
    assert (rss["change_lower_pairs"], rss["change_higher_pairs"]) == (9, 1)
    assert rss["pairs"] == 10 and rss["gain_rule_holds"] is True
    assert rss["parent"] == {"median": 15.46, "q1": 15.46, "q3": 15.46}
    assert s["scenario-mix.wall_s_p90"]["gain_rule_holds"] is None


def test_directions_read_the_benchmark_declaration():
    better = pairs.directions(_SCRIPT.parents[1])
    assert better["peak_rss_mb"] == "lower"
    assert set(better) == {"wall_s_p50", "cpu_s_p50", "peak_rss_mb", "setup_s"}
