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
import pathlib
import tempfile

import pytest

from conftest import write_csv
from fairaudit import SCENARIO_NAMES, calibrated_cells
from fairaudit.cli import EXIT_OK, main

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: Ten bins of width 0.1 over [0, 1], matching calibrated_cells.
TENTHS = ",".join(f"{j / 10:g}-{(j + 1) / 10:g}" for j in range(10))

#: (case name, argv without --format; "{csv}" stands for the generated CSV).
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
]
FORMATS = ("md", "json")


def dataset_csv(directory: pathlib.Path) -> str:
    """The calibrated two-group, ten-bin CSV the dataset cases read."""
    _bins, cells = calibrated_cells(
        n_per_group=1100, bins=10, base_rate_a=0.3, base_rate_b=0.55
    )
    return write_csv(directory / "calibrated.csv", cells)


def run_case(argv, fmt, csv_path):
    """(exit code, stdout) of one CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.replace("{csv}", csv_path) for a in argv] + ["--format", fmt])
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, fmt, tmp_path):
    code, out = run_case(argv, fmt, dataset_csv(tmp_path))
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = dataset_csv(pathlib.Path(tmp))
        for name, argv in CASES:
            for fmt in FORMATS:
                code, out = run_case(argv, fmt, csv_path)
                if code != EXIT_OK:
                    raise SystemExit(f"{name}.{fmt} exited {code}")
                (GOLDEN / f"{name}.{fmt}").write_bytes(out.encode("utf-8"))


if __name__ == "__main__":
    regenerate()
