"""Byte-for-byte golden outputs of the CLI.

Every report under ``tests/golden/`` is compared with what ``main`` writes
to stdout today, together with its exit code. The goldens use integer-valued
outcome profiles only, so their value sums are exact count sums and do not
depend on the order in which floats are added.

After a deliberate output change, regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import os
import pathlib
import tempfile

import pytest

from conftest import write_csv
from fairaudit import SCENARIO_NAMES
from fairaudit.cli import EXIT_OK, main
from synthetic import calibrated_cells

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: Ten bins of width 0.1 over [0, 1], matching calibrated_cells.
TENTHS = ",".join(f"{j / 10:g}-{(j + 1) / 10:g}" for j in range(10))

#: (case name, argv without --format; "{csv}" and "{csv4}" stand for the
#: generated two-group and four-group CSVs).
CASES = [
    (f"scenario_{name}", ["scenario", name]) for name in SCENARIO_NAMES
] + [
    (
        "equalize_raise_values",
        ["equalize", "--input", "{csv}", "--bins", TENTHS,
         "--raise-thresholds", "--values", "2,-1,3,0"],
    ),
    (
        "audit_score_threshold",
        ["audit", "--input", "{csv}", "--bins", TENTHS,
         "--threshold", "score>=0.5"],
    ),
    (
        "equalize_four_groups",
        ["equalize", "--input", "{csv4}", "--bins", TENTHS],
    ),
]
FORMATS = ("md", "json")


def dataset_csvs(directory: pathlib.Path) -> dict[str, str]:
    """The calibrated ten-bin CSVs the dataset cases read, by the argument
    that stands for each: groups a and b, and those two plus groups c and d
    with other base rates."""
    _bins, cells = calibrated_cells(
        n_per_group=1100, bins=10, base_rate_a=0.3, base_rate_b=0.55
    )
    _bins, more = calibrated_cells(
        n_per_group=1100, bins=10, base_rate_a=0.2, base_rate_b=0.7
    )
    renamed = {"a": "c", "b": "d"}
    more = tuple((renamed[g], *rest) for g, *rest in more)
    return {
        "{csv}": write_csv(directory / "calibrated.csv", cells),
        "{csv4}": write_csv(directory / "four_groups.csv", cells + more),
    }


def run_case(argv, fmt, csvs):
    """(exit code, stdout) of one CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([csvs.get(a, a) for a in argv] + ["--format", fmt])
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, fmt, tmp_path):
    code, out = run_case(argv, fmt, dataset_csvs(tmp_path))
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        # A cell-table cache of this run's own, as each test has one: the
        # user's is neither read nor filled.
        os.environ["XDG_CACHE_HOME"] = os.path.join(tmp, "xdg-cache")
        csvs = dataset_csvs(pathlib.Path(tmp))
        for name, argv in CASES:
            for fmt in FORMATS:
                code, out = run_case(argv, fmt, csvs)
                if code != EXIT_OK:
                    raise SystemExit(f"{name}.{fmt} exited {code}")
                (GOLDEN / f"{name}.{fmt}").write_bytes(out.encode("utf-8"))


if __name__ == "__main__":
    regenerate()
