import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import entries_of, write_csv
from fairaudit import SCENARIO_NAMES, cli, scenario_spec
from fairaudit.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SPEC_FAIL,
    main,
    parse_bins,
    parse_values,
)
from fairaudit.domain import ValidationError


@pytest.fixture
def compas_csv(tmp_path):
    return write_csv(
        tmp_path / "compas.csv", scenario_spec("compas_synthetic").cells
    )


COMPAS_BINS = "1-4=low,5-10=high"


class TestParseBins:
    def test_labels(self):
        bins = parse_bins(COMPAS_BINS)
        assert bins.edges == (1.0, 5.0, 10.0)
        assert bins.labels == ("low", "high")

    def test_default_labels_are_ranges(self):
        bins = parse_bins("0-0.5,0.5-1")
        assert bins.labels == ("0-0.5", "0.5-1")

    def test_errors(self):
        for bad in ("5-10", "a-b=x,c-d=y", "5-1=down,1-5=up", "1-4,,", "1-6,5-10",
                    "0-5=x,5-10=x"):
            with pytest.raises(ValidationError):
                parse_bins(bad)

    def test_overlap_names_the_segment(self):
        with pytest.raises(ValidationError, match="'5-10' overlaps"):
            parse_bins("1-6,5-10")

    def test_negative_and_exponent_bounds(self):
        assert parse_bins("-3--1,-1-2").edges == (-3.0, -1.0, 2.0)
        assert parse_bins("0-1e-05,1e-05-1").edges == (0.0, 1e-05, 1.0)
        assert parse_bins("-1e+2--5e1=lo,-50-0=hi").edges == (-100.0, -50.0, 0.0)

    def test_gap_belongs_to_the_segment_below(self):
        bins = parse_bins(COMPAS_BINS)
        assert bins.label(bins.bin_of(4.5)) == "low"


class TestParseValues:
    def test_parses_four_floats(self):
        v = parse_values("0,-3,0,-1")
        assert (v.v_tp, v.v_fp, v.v_tn, v.v_fn) == (0.0, -3.0, 0.0, -1.0)

    def test_errors(self):
        with pytest.raises(ValidationError):
            parse_values("1,2,3")
        with pytest.raises(ValidationError):
            parse_values("a,b,c,d")
        # Value constraints apply: refraining must beat acting on negatives.
        with pytest.raises(ValidationError):
            parse_values("1,1,1,0")


class TestAuditCommand:
    def test_json_report(self, compas_csv, capsys):
        code = main([
            "audit", "--input", compas_csv, "--bins", COMPAS_BINS,
            "--threshold", "p=0.5", "--tolerance", "0.07",
            "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["groups"]) == {"black", "white"}
        assert payload["groups"]["black"]["fpr"] == pytest.approx(805 / 1795)
        assert payload["impossibility"]["ordering_holds"] is True

    def test_markdown_report_renders_published_rates(self, compas_csv, capsys):
        code = main([
            "audit", "--input", compas_csv, "--bins", COMPAS_BINS,
            "--threshold", "p=0.5", "--format", "md",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "44.9%" in out
        assert "23.5%" in out

    def test_default_values_note_is_loud(self, compas_csv, capsys):
        main([
            "audit", "--input", compas_csv, "--bins", COMPAS_BINS,
            "--threshold", "p=0.5",
        ])
        assert "symmetric default" in capsys.readouterr().out

    def test_out_file_and_rerender_are_identical(self, compas_csv, tmp_path):
        argv = [
            "audit", "--input", compas_csv, "--bins", COMPAS_BINS,
            "--threshold", "p=0.5", "--format", "json",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_report_longer_than_a_write_slice_is_written_whole(
        self, tmp_path, capsys, monkeypatch
    ):
        # Reports are written in slices; a multi-byte label must not be
        # split or lost at a slice boundary, on stdout or in --out.
        entries = []
        for k in range(250):
            group = f"gr\u00fcppe-{k:03d}"
            entries += [(group, 2.0, 1, 2), (group, 8.0, 2, 1)]
        csv_path = write_csv(tmp_path / "many.csv", entries)
        rendered = []
        render = cli.render_report
        monkeypatch.setattr(
            cli, "render_report",
            lambda report, fmt: rendered.append(render(report, fmt))
            or rendered[-1],
        )
        argv = ["audit", "--input", csv_path, "--bins", COMPAS_BINS,
                "--format", "md"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        path = tmp_path / "report.md"
        assert main(argv + ["--out", str(path)]) == EXIT_OK
        assert len(rendered[0]) > 2 * cli._WRITE_SLICE
        assert out == rendered[0] == rendered[1]
        assert path.read_text(encoding="utf-8") == rendered[0]

    def test_missing_file_exits_2(self, capsys):
        code = main([
            "audit", "--input", "/no/such/file.csv", "--bins", COMPAS_BINS,
        ])
        assert code == EXIT_INPUT
        _only_error_line(
            capsys.readouterr().err, "no such file: /no/such/file.csv"
        )

    def test_single_group_file_exits_2(self, tmp_path, capsys):
        f = tmp_path / "one.csv"
        f.write_text("id,group,score,outcome\nr1,a,2.0,1\nr2,a,7.0,0\n")
        code = main(["audit", "--input", str(f), "--bins", COMPAS_BINS])
        assert code == EXIT_INPUT

    def test_repeated_bin_label_exits_2_naming_it(self, tmp_path, capsys):
        # Cells are reported by bin label, so a shared label would merge
        # two bins' rows into one.
        f = tmp_path / "two.csv"
        f.write_text("id,group,score,outcome\n"
                     "1,a,2.0,1\n2,a,7.0,0\n3,a,8.0,1\n4,b,3.0,0\n")
        for command in ("audit", "equalize"):
            code = main([command, "--input", str(f), "--bins", "0-5=x,5-10=x"])
            assert code == EXIT_INPUT
            assert "bin label 'x' names two bins" in capsys.readouterr().err

    def test_duplicate_id_exits_2_naming_both_rows(self, tmp_path, capsys):
        f = tmp_path / "dup.csv"
        f.write_text("id,group,score,outcome\n1,a,2.0,1\n1,b,7.0,0\n")
        code = main(["audit", "--input", str(f), "--bins", COMPAS_BINS])
        assert code == EXIT_INPUT
        assert "row 3: duplicate id '1' (first on row 2)" in (
            capsys.readouterr().err
        )

    def test_used_column_named_twice_exits_2_naming_it(self, tmp_path, capsys):
        f = tmp_path / "twice.csv"
        f.write_text(
            "id,group,score,outcome,score\n1,a,2.0,1,9.0\n2,b,7.0,0,3.0\n"
        )
        code = main(["audit", "--input", str(f), "--bins", COMPAS_BINS])
        assert code == EXIT_INPUT
        assert "header names column 'score' 2 times" in capsys.readouterr().err
        # A column the audit does not read may repeat.
        f.write_text("id,group,score,outcome,note,note\n"
                     "1,a,2.0,1,x,y\n2,b,7.0,0,x,y\n")
        assert main(["audit", "--input", str(f), "--bins", COMPAS_BINS]) == EXIT_OK

    def test_nan_score_exits_2_naming_the_row(self, tmp_path, capsys):
        f = tmp_path / "nan.csv"
        f.write_text("id,group,score,outcome\nr1,a,2.0,1\nr2,b,nan,0\n")
        code = main(["audit", "--input", str(f), "--bins", COMPAS_BINS])
        assert code == EXIT_INPUT
        assert "row 3" in capsys.readouterr().err

    def test_unreadable_file_exits_2_naming_file_and_row(
        self, tmp_path, capsys
    ):
        for data in (b"r1,a\xe9,2.0,1\n",
                     b"r1,a," + b"9" * 140_000 + b",1\n"):
            f = tmp_path / "bad.csv"
            f.write_bytes(b"id,group,score,outcome\n" + data)
            code = main(["audit", "--input", str(f), "--bins", COMPAS_BINS])
            assert code == EXIT_INPUT
            assert f"{f}: row 2: " in capsys.readouterr().err

    def test_unwritable_out_exits_2_naming_the_path(
        self, compas_csv, tmp_path, capsys
    ):
        dataset = ["--input", compas_csv, "--bins", COMPAS_BINS]
        for argv in (["audit", *dataset], ["equalize", *dataset],
                     ["scenario", "stride_height"]):
            for out in (tmp_path / "no_such_dir" / "r.md", tmp_path):
                assert main([*argv, "--out", str(out)]) == EXIT_INPUT
                assert f"cannot write report to '{out}'" in (
                    capsys.readouterr().err
                )

    def test_cell_at_p_star_is_acted_on(self, tmp_path, capsys):
        # These values put p* at exactly 3/4, and every cell holds 3
        # positives of 4: each cell ties with p*, and ties act.
        f = write_csv(tmp_path / "tie.csv", [
            (g, score, 3, 1) for g in ("a", "b") for score in (2.0, 7.0)
        ])
        code = main([
            "audit", "--input", f, "--bins", COMPAS_BINS,
            "--values", "0.2,0.1,0.4,0.1", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"]["thresholds"] == {"a": 0.75, "b": 0.75}
        assert payload["assessment"]["total"]["acted"] == 16
        for g in ("a", "b"):
            group = payload["groups"][g]
            assert (group["tp"], group["fp"]) == (6, 2), g

    def test_calibration_without_dominance_asserts_no_ordering(
        self, tmp_path, capsys
    ):
        # Calibrated (every bin's p_score is shared), base rates 50% and
        # 35%, yet A's FPR (10.0%) is below B's (30.8%): A's scores do not
        # dominate B's in likelihood ratio, so no ordering is a theorem.
        f = write_csv(tmp_path / "no_dominance.csv", [
            ("A", 2.5, 90, 10), ("A", 0.5, 10, 90),
            ("B", 1.5, 60, 40), ("B", 0.5, 10, 90),
        ])
        argv = ["audit", "--input", f, "--bins", "0-1=lo,1-2=mid,2-3=hi",
                "--threshold", "p=0.5"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "Calibrated within tolerance: True (gap 0.0%)." in out
        assert "Preconditions not met; no ordering asserted." in out
        assert "VIOLATED" not in out
        assert (
            "- Impossibility check: group 'A' does not dominate group 'B' in "
            "likelihood ratio."
        ) in out
        assert "falls from bin 'lo' to bin 'mid'" in out
        assert main([*argv, "--format", "json"]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)["impossibility"]
        assert verdict == {
            "calibrated": True,
            "calibration_gap": 0.0,
            "base_rates": {"A": 0.5, "B": 0.35},
            "fprs": {"A": 0.1, "B": 40 / 130},
            "higher_base_rate_group": "A",
            "applicable": False,
            "ordering_holds": False,
        }

    def test_score_threshold_spec(self, compas_csv, capsys):
        code = main([
            "audit", "--input", compas_csv, "--bins", COMPAS_BINS,
            "--threshold", "score>=5", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"]["kind"] == "per_group"
        assert payload["groups"]["black"]["fp"] == 805


def test_commands_build_no_record_or_population(compas_csv, monkeypatch):
    # Rows and fixture entries are summed into per-group tallies on the way
    # in: no command holds a collection of records. Every curve is built by
    # the one constructor, which is handed only group -> (positives_by_bin,
    # negatives_by_bin) int counts, at most one per bin; fixture entries
    # reach curve_from_counts as a stream.
    import inspect

    import fairaudit.ingest
    import fairaudit.metrics
    import fairaudit.scenarios

    built = []

    def tallies_only(bins, tallies):
        for positives, negatives in tallies.values():
            for by_bin in (positives, negatives):
                assert type(by_bin) is dict, type(by_bin)
                assert len(by_bin) <= bins.n_bins
                assert all(
                    type(b) is int and type(n) is int
                    for b, n in by_bin.items()
                )
        built.append(len(tallies))
        return build(bins, tallies)

    def streamed_only(bins, counts):
        assert inspect.isgenerator(counts), type(counts)
        return from_counts(bins, counts)

    build = fairaudit.metrics.curve_from_tallies
    from_counts = fairaudit.metrics.curve_from_counts
    for module in (fairaudit.ingest, fairaudit.metrics):
        monkeypatch.setattr(module, "curve_from_tallies", tallies_only)
    monkeypatch.setattr(fairaudit.scenarios, "curve_from_counts", streamed_only)
    dataset = ["--input", compas_csv, "--bins", COMPAS_BINS]
    for argv in (["audit", *dataset], ["equalize", *dataset],
                 ["scenario", "compas_synthetic"]):
        assert main([*argv, "--format", "json"]) == EXIT_OK, argv
    assert built == [2, 2, 2]


def test_markdown_table_cells_escape_labels(tmp_path, capsys):
    # A '|' in a label would add a column and a line break would split a
    # row; a backslash is escaped too, so that a label holding '\|' or the
    # characters '\r' neither breaks a column nor prints like another.
    csv_path = write_csv(tmp_path / "labels.csv", [
        ("a|x", 2.0, 1, 3), ("a|x", 8.0, 6, 2),
        ("b\r\ny", 2.0, 2, 6), ("b\r\ny", 8.0, 3, 1),
        ("c\\|z", 2.0, 1, 1), ("c\\|z", 8.0, 2, 2),
        ("b\\r\\ny", 2.0, 1, 1), ("b\\r\\ny", 8.0, 2, 2),
    ])
    assert main(["equalize", "--input", csv_path,
                 "--bins", "1-4=lo|w,5-10=hi", "--threshold", "p=0.5",
                 "--format", "md"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "| a\\|x | lo\\|w | 4 | 1 | 25.0% |" in text
    assert "| b\\r\\ny | hi | 4 | 3 | 75.0% |" in text
    assert "| c\\\\\\|z | lo\\|w | 2 | 1 | 50.0% |" in text
    assert "| b\\\\r\\\\ny | hi | 4 | 2 | 50.0% |" in text
    _assert_tables_keep_their_columns(text)


def _assert_tables_keep_their_columns(text):
    """Every markdown table row has as many unescaped '|' as its header."""
    columns = None
    for line in text.splitlines():
        if not line.startswith("|"):
            columns = None
            continue
        # Each backslash escapes the one character after it.
        count = re.sub(r"\\.", "", line).count("|")
        columns = count if columns is None else columns
        assert count == columns, line


@pytest.mark.parametrize("threshold, policy", [
    ("p=0.5", "Policy (uniform): act when p_score >= threshold; "
              "a\\|x=0.5, b\\r\\ny=0.5."),
    ("score>=5", "Policy (per_group): act when p_score >= threshold; "
                 "a\\|x=0.75, b\\r\\ny=0.75."),
])
def test_markdown_lines_outside_tables_escape_labels(
    tmp_path, capsys, threshold, policy
):
    # The policy line and the impossibility section's base-rate line print
    # group labels too; a label's CR LF must not split them.
    csv_path = write_csv(tmp_path / "labels.csv", [
        ("a|x", 2.0, 1, 3), ("a|x", 8.0, 6, 2),
        ("b\r\ny", 2.0, 2, 6), ("b\r\ny", 8.0, 3, 1),
    ])
    assert main(["audit", "--input", csv_path, "--bins", "1-4=lo|w,5-10=hi",
                 "--threshold", threshold, "--format", "md"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "\r" not in text and "\ny=" not in text
    lines = text.split("\n")
    assert policy in lines
    assert (
        "Base rates: a\\|x=58.3%, b\\r\\ny=41.7%. "
        "FPRs: a\\|x=40.0%, b\\r\\ny=14.3%." in lines
    )


def test_impossibility_note_names_the_group_count(tmp_path, capsys):
    csv_path = write_csv(tmp_path / "three.csv", [
        ("a", 2.0, 1, 3), ("a", 8.0, 6, 2),
        ("b", 2.0, 2, 6), ("b", 8.0, 3, 1),
        ("c", 2.0, 1, 1), ("c", 8.0, 2, 2),
    ])
    assert main(["audit", "--input", csv_path, "--bins", COMPAS_BINS,
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "impossibility" not in payload
    assert (
        "Impossibility check skipped: it is pairwise and the input has 3 "
        "groups." in payload["notes"]
    )


def test_commands_keep_one_cell_table(tmp_path, monkeypatch):
    # The curve's cell table is by_group; no command builds the derived
    # (group, bin)-keyed view. The groups are calibrated with unequal base
    # rates, so audit runs the likelihood-ratio dominance check; the named
    # scenarios run equalization and, where they have one, the lottery.
    import fairaudit.cli as cli_mod

    csv_path = write_csv(tmp_path / "calibrated.csv", [
        ("a", 2.0, 1, 3), ("a", 8.0, 6, 2),
        ("b", 2.0, 2, 6), ("b", 8.0, 3, 1),
    ])
    reports = []
    render = cli_mod.render_report

    def kept(report, fmt):
        reports.append(report)
        return render(report, fmt)

    monkeypatch.setattr(cli_mod, "render_report", kept)
    for command in ("audit", "equalize"):
        assert main([command, "--input", csv_path, "--bins", COMPAS_BINS,
                     "--threshold", "p=0.5"]) == EXIT_OK
    assert [r.impossibility.applicable for r in reports] == [True, True]
    assert reports[1].equalization is not None
    for name in SCENARIO_NAMES:
        assert main(["scenario", name,
                     "--out", str(tmp_path / "scenario.md")]) == EXIT_OK
    assert len(reports) == 2 + len(SCENARIO_NAMES)
    for report in reports:
        assert "cells" not in vars(report.curve)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every CLI run pays its imports: dataclasses (with the inspect it
    # pulls in) cost about half of fairaudit's own start-up.
    import fairaudit

    src = str(Path(fairaudit.__file__).resolve().parents[1])
    code = (
        "import fairaudit.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _fresh_interpreter(code, flags=()):
    """What ``code`` prints when run in a fresh interpreter started with
    the command-line ``flags``."""
    import fairaudit

    src = str(Path(fairaudit.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def _modules_loaded_by(argv, watched):
    """The ``watched`` modules in ``sys.modules`` after ``cli.main(argv)``,
    run without the site module (``-S``): a site ``.pth`` file can preload
    modules, such as ``pathlib``, that the package never imports."""
    return _fresh_interpreter(
        "import sys\n"
        "from fairaudit.cli import main\n"
        f"assert main({list(argv)!r}) == 0\n"
        f"print(sorted({set(watched)!r} & set(sys.modules)))\n",
        flags=("-S",),
    )


#: What a markdown report never needs: json and the JSON report builder,
#: and ingest keeps its id digests without the array extension.
_JSON_REPORT_AND_ARRAY = ("array", "fairaudit.report_json", "json")

#: What no command needs: ingest takes its dataset path as a string.
_PATHLIB = ("pathlib", "urllib.parse")


def test_audit_loads_no_fixture_generator_or_decimal(compas_csv, tmp_path):
    # The scenario fixtures are code an audit never runs, and percentages
    # are rounded in integers.
    argv = ["audit", "--input", compas_csv, "--bins", COMPAS_BINS,
            "--out", str(tmp_path / "report.md")]
    watched = ("decimal", "fairaudit.fixtures", *_JSON_REPORT_AND_ARRAY,
               *_PATHLIB)
    assert _modules_loaded_by(argv, watched) == "[]"


@pytest.mark.parametrize("command, fmt, loaded", [
    ("equalize", "md", []),
    ("audit", "json", ["fairaudit.report_json", "json"]),
])
def test_only_a_json_report_loads_the_json_builder(
    compas_csv, tmp_path, command, fmt, loaded
):
    argv = [command, "--input", compas_csv, "--bins", COMPAS_BINS,
            "--format", fmt, "--out", str(tmp_path / "report")]
    assert _modules_loaded_by(argv, _JSON_REPORT_AND_ARRAY) == str(loaded)


def test_scenario_loads_no_csv_decimal_or_generator(tmp_path):
    argv = ["scenario", "stride_height", "--out", str(tmp_path / "report.md")]
    # Ingest's csv module is loaded by the function that reads a file,
    # which a scenario run never calls.
    watched = ("csv", "decimal", *_JSON_REPORT_AND_ARRAY, *_PATHLIB)
    assert _modules_loaded_by(argv, watched) == "[]"


def test_package_import_loads_no_submodule():
    assert _fresh_interpreter(
        "import sys, fairaudit; "
        "print(sorted(m for m in sys.modules if m.startswith('fairaudit.')))"
    ) == "[]"


#: Every name the package exports.
_EXPORTED = (
    "AuditError BinScheme ConfusionMatrix OutcomeValues SYMMETRIC_VALUES "
    "ThresholdPolicy ValidationError CalibrationCurve calibration_gap "
    "chance_miscalibration_bound curve_from_counts DecisionEV "
    "PolicyAssessment expected_values optimal_threshold "
    "policy_expected_disvalue EqualizationResult ImpossibilityVerdict "
    "LOWER_OTHERS RAISE_OTHERS equalize_fpr fair_lottery impossibility_check "
    "individual_error_risk SCENARIO_NAMES ScenarioSpec "
    "check_scenario scenario_curve scenario_spec DatasetConfig IngestError "
    "ingest_csv"
).split()


@pytest.mark.parametrize("name", _EXPORTED)
def test_package_exports_resolve_lazily(name):
    import fairaudit

    namespace: dict = {}
    exec(f"from fairaudit import {name}", namespace)
    assert namespace[name] is getattr(fairaudit, name)
    assert name in dir(fairaudit) and name in fairaudit.__all__


def test_package_exports_only_the_listed_names():
    import fairaudit

    assert sorted(fairaudit.__all__) == sorted(_EXPORTED)


def test_unknown_package_name_raises_attribute_error():
    import fairaudit

    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        fairaudit.nonesuch
    with pytest.raises(ImportError):
        exec("from fairaudit import nonesuch", {})


def test_markdown_run_never_imports_json():
    # Markdown is the default format; only a json report needs the module.
    import fairaudit

    src = str(Path(fairaudit.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys\n"
        "from fairaudit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['scenario', 'compas_synthetic'])\n"
        "print(code, 'json' in sys.modules)\n"
        "main(['scenario', 'compas_synthetic', '--format', 'json'])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    first, _, rest = result.stdout.partition("\n")
    assert first == f"{EXIT_OK} False"
    assert json.loads(rest)["scenario"]["passed"] is True


def _cli_process(argv, env=None, **kwargs):
    """Start ``python -m fairaudit.cli argv`` with the package on its path;
    ``env`` entries set to None are removed."""
    import fairaudit

    src = str(Path(fairaudit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **(env or {})}
    return subprocess.Popen(
        [sys.executable, "-m", "fairaudit.cli", *argv],
        env={k: v for k, v in env.items() if v is not None},
        stderr=subprocess.PIPE, text=True, **kwargs,
    )


def _only_error_line(stderr, message):
    """stderr is the one line ``error: <message>``: no traceback, and no
    'Exception ignored' from a flush at exit."""
    assert stderr.splitlines() == [f"error: {message}"], stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_report_into_a_full_device_exits_2(unbuffered):
    # Buffered (the variable unset; any nonempty value means unbuffered),
    # the report fits stdout's buffer and fails only when flushed.
    with open("/dev/full", "w") as full:
        proc = _cli_process(["scenario", "stride_height"],
                            env={"PYTHONUNBUFFERED": unbuffered}, stdout=full)
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_INPUT
    _only_error_line(
        stderr, "cannot write report to stdout: No space left on device"
    )


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_report_into_a_pipe_closed_after_one_line_exits_2(
    tmp_path, unbuffered
):
    # Thousands of groups make a report several times a pipe's buffer, so
    # the writer is still writing when the reader goes.
    entries = []
    for k in range(3000):
        entries += [(f"g{k:04d}", 2.0, 1, 2), (f"g{k:04d}", 8.0, 2, 1)]
    csv_path = write_csv(tmp_path / "many.csv", entries)
    proc = _cli_process(["audit", "--input", csv_path, "--bins", COMPAS_BINS],
                        env={"PYTHONUNBUFFERED": unbuffered},
                        stdout=subprocess.PIPE)
    assert proc.stdout.readline().startswith("# Fairness audit report")
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_INPUT
    _only_error_line(stderr, "cannot write report to stdout: Broken pipe")


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"),
                    reason="no /proc/self/mem")
def test_input_whose_read_fails_exits_2_naming_it():
    # The file opens, and its first read fails with EIO.
    proc = _cli_process(["audit", "--input", "/proc/self/mem",
                         "--bins", COMPAS_BINS], stdout=subprocess.PIPE)
    stdout, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stdout) == (EXIT_INPUT, "")
    _only_error_line(
        stderr, "cannot read '/proc/self/mem': Input/output error"
    )


@pytest.mark.parametrize("kind", [
    "directory",
    pytest.param("fifo", marks=pytest.mark.skipif(
        not hasattr(os, "mkfifo"), reason="no os.mkfifo")),
])
def test_input_that_is_not_a_regular_file_exits_2_naming_it(tmp_path, kind):
    # Opening a FIFO with no writer would block, so the path is checked
    # first; the timeout turns a block into a failure.
    path = tmp_path / kind
    if kind == "fifo":
        os.mkfifo(path)
    else:
        path.mkdir()
    with _cli_process(["audit", "--input", str(path), "--bins", COMPAS_BINS],
                      stdout=subprocess.PIPE) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            pytest.fail(f"audit blocked on a {kind}")
    assert (proc.returncode, stdout) == (EXIT_INPUT, "")
    _only_error_line(stderr, f"not a regular file: {path}")


def test_input_whose_stat_fails_exits_2_naming_it(
    compas_csv, monkeypatch, capsys
):
    stat = os.stat

    def fake_stat(path, *args, **kwargs):
        if path == compas_csv:
            raise PermissionError(errno.EACCES, "Permission denied")
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", fake_stat)
    assert main(["audit", "--input", compas_csv, "--bins", COMPAS_BINS]) == (
        EXIT_INPUT
    )
    _only_error_line(capsys.readouterr().err,
                     f"cannot read '{compas_csv}': Permission denied")


@pytest.mark.parametrize("data, failing_open", [
    # The row loop's own open.
    (b"1,a,2.0,1\n2,b,7.0,0\n", 1),
    # The re-read that looks for the first repeated id.
    (b"1,a,2.0,1\n1,b,7.0,0\n", 2),
    # The binary read that finds the line of an undecodable byte.
    (b"1,a\xe9,2.0,1\n2,b,7.0,0\n", 2),
])
def test_input_that_cannot_be_opened_exits_2_naming_it(
    tmp_path, monkeypatch, capsys, data, failing_open
):
    from fairaudit import ingest

    f = tmp_path / "data.csv"
    f.write_bytes(b"id,group,score,outcome\n" + data)
    opened = []

    def fake_open(*args, **kwargs):
        opened.append(args)
        if len(opened) == failing_open:
            raise OSError(errno.EIO, "Input/output error")
        return open(*args, **kwargs)

    monkeypatch.setattr(ingest, "open", fake_open, raising=False)
    assert main(["audit", "--input", str(f), "--bins", COMPAS_BINS]) == (
        EXIT_INPUT
    )
    assert len(opened) == failing_open
    _only_error_line(
        capsys.readouterr().err, f"cannot read '{f}': Input/output error"
    )


class TestEqualizeCommand:
    def test_reports_equalization_section(self, compas_csv, capsys):
        code = main([
            "equalize", "--input", compas_csv, "--bins", COMPAS_BINS,
            "--threshold", "p=0.5", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        eq = payload["equalization"]
        assert eq["reference_group"] == "black"
        assert set(eq["thresholds"]) == {"black", "white"}

    @pytest.mark.parametrize("threshold", [
        ["--threshold", "p=0.5"], [], ["--values", "2,-1,3,0"],
        ["--threshold", "score>=5"],
    ])
    def test_markdown_is_audit_plus_the_equalization_section(
        self, compas_csv, capsys, threshold
    ):
        texts = {}
        for command in ("audit", "equalize"):
            argv = [command, "--input", compas_csv, "--bins", COMPAS_BINS]
            assert main([*argv, *threshold]) == EXIT_OK
            texts[command] = capsys.readouterr().out.splitlines()
        # Every case has notes, and their section follows equalization's.
        lines = texts["equalize"]
        start, end = lines.index("## FPR equalization"), lines.index("## Notes")
        assert end - start > 3
        assert lines[:start] + lines[end:] == texts["audit"]

    def test_raise_thresholds_flag(self, compas_csv, capsys):
        code = main([
            "equalize", "--input", compas_csv, "--bins", COMPAS_BINS,
            "--threshold", "p=0.5", "--raise-thresholds", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["equalization"]["reference_group"] == "white"

    @pytest.mark.parametrize(
        "spec,name",
        [("inf,0,1,0", "v_tp"), ("1,-inf,1,0", "v_fp"), ("1,0,nan,0", "v_tn")],
    )
    def test_non_finite_values_exit_2_naming_the_field(
        self, compas_csv, capsys, spec, name
    ):
        code = main([
            "equalize", "--input", compas_csv, "--bins", COMPAS_BINS,
            "--values", spec, "--format", "json",
        ])
        assert code == EXIT_INPUT
        assert f"{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["audit", "equalize"])
    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_value_sums_that_overflow_exit_2_naming_values(
        self, compas_csv, capsys, command, fmt
    ):
        # Each value is finite, but their sums over the counts are not.
        code = main([
            command, "--input", compas_csv, "--bins", COMPAS_BINS,
            "--values", "1e308,-1e308,1e308,-1e308", "--format", fmt,
        ])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert "rescale --values" in captured.err

    def test_unequal_fprs_within_tolerance_are_not_exact(
        self, tmp_path, capsys
    ):
        # FPRs 1/40000 and 1/40001 differ by 6.25e-10, inside the default
        # tolerance of 1e-9: parity is residual, and a note says why.
        csv_path = write_csv(tmp_path / "tie.csv", [
            ("a", 8.0, 1, 1), ("a", 2.0, 0, 39_999),
            ("b", 8.0, 1, 1), ("b", 2.0, 0, 40_000),
        ])
        argv = ["equalize", "--input", csv_path, "--bins", COMPAS_BINS,
                "--threshold", "p=0.5"]
        assert main([*argv, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        eq = payload["equalization"]
        assert eq["fprs"] == {"a": 1 / 40_000, "b": 1 / 40_001}
        assert eq["exact"] is False and 0 < eq["residual_gap"] <= 1e-9
        note = (
            "FPR equalization: the residual gap 6.24984e-10 is within the "
            "tolerance 1e-09, but the FPRs are not equal."
        )
        assert note in payload["notes"]
        assert main(argv) == EXIT_OK
        text = capsys.readouterr().out
        assert "Parity residual; residual FPR gap <0.05%" in text
        assert f"- {note}" in text

    def test_nan_tolerance_exits_2(self, compas_csv, capsys):
        for command in ("equalize", "audit"):
            for tolerance in ("nan", "-1", "0"):
                code = main([
                    command, "--input", compas_csv, "--bins", COMPAS_BINS,
                    "--tolerance", tolerance,
                ])
                assert code == EXIT_INPUT, (command, tolerance)
                err = capsys.readouterr().err
                assert "tolerance must be positive" in err, (command, tolerance)


class TestScenarioCommand:
    @pytest.mark.parametrize(
        "name",
        [
            "stride_height",
            "section_grades",
            "compas_synthetic",
            "compas_benefit",
            "certainty_lottery",
            "miscalibrated_compas",
        ],
    )
    def test_all_named_scenarios_pass(self, name, capsys):
        code = main(["scenario", name, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["passed"] is True
        assert code == EXIT_OK

    def test_markdown_contains_published_compas_figures(self, capsys):
        main(["scenario", "compas_synthetic", "--format", "md"])
        out = capsys.readouterr().out
        for figure in ("44.9%", "23.5%", "28.0%", "47.7%"):
            assert figure in out

    def test_failed_check_exits_3(self, monkeypatch, capsys):
        import fairaudit.cli as cli_mod

        real = cli_mod.check_scenario

        def sabotage(report, spec):
            results = real(report, spec)
            check, actual, _ok = results[0]
            return [(check, actual, False)] + results[1:]

        monkeypatch.setattr(cli_mod, "check_scenario", sabotage)
        code = main(["scenario", "stride_height", "--format", "json"])
        assert code == EXIT_SPEC_FAIL
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["passed"] is False

    def test_check_reading_a_skipped_section_exits_2(self, monkeypatch, capsys):
        import fairaudit.cli as cli_mod
        from fairaudit import AuditError

        def no_equalization(*args, **kwargs):
            raise AuditError("forced")

        monkeypatch.setattr(cli_mod, "equalize_fpr", no_equalization)
        code = main(["scenario", "compas_benefit"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "equalized_threshold:black" in err and "equalization" in err

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "nonesuch"])


#: CSV fields that stress the parser and each ingest check.
_FIELDS = st.sampled_from(
    ["r1", "r2", "a", "b", "", "0", "1", "2", "2.5", "7", "11", "nan", "-inf",
     '"', '"x,y"', '"a\nb"', " 1", "\ufeff", "\xe9"]
) | st.text(max_size=3)
_GOOD_ROWS = st.lists(
    st.tuples(st.text("abcdef", min_size=1, max_size=4), st.sampled_from("ab"),
              st.sampled_from(["1", "2.5", "7", "10"]), st.sampled_from("01")),
    min_size=2, max_size=8, unique_by=lambda row: row[0],
).map(lambda rows: "\n".join(map(",".join, rows)))
_ANY_ROWS = st.lists(
    st.lists(_FIELDS, max_size=6).map(",".join), max_size=8
).map("\n".join)
_ROWS = _GOOD_ROWS | _ANY_ROWS | st.tuples(_GOOD_ROWS, _ANY_ROWS).map("\n".join)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    _ROWS.map(lambda rows: ("id,group,score,outcome\n" + rows).encode(
        "utf-8", "surrogatepass")),
    _ROWS.map(lambda rows: b"\xef\xbb\xbfid,group,score,outcome\r\n"
              + rows.encode("utf-8", "surrogatepass")),
))
def test_any_input_file_exits_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "fuzz.csv"
        f.write_bytes(data)
        code = main(["audit", "--input", str(f), "--bins", COMPAS_BINS])
    assert code in (EXIT_OK, EXIT_INPUT)


#: Bin bounds that stress the spec parser: signs, exponents, non-numbers and
#: the extremes of float.
_BOUNDS = st.sampled_from(
    ["0", "1", "4", "5", "10", "-1", "1e-05", "2.5", "1e308", "nan", "inf",
     "-inf", "", "x", " "]
) | st.floats().map(repr)
_SEGMENTS = st.tuples(
    _BOUNDS, st.sampled_from(["-", "--", ""]), _BOUNDS,
    st.sampled_from(["", "=low", "=", "=a=b", "=,"]),
).map("".join)


@settings(max_examples=60, deadline=None)
@given(st.lists(_SEGMENTS, max_size=5).map(",".join) | st.text(max_size=12),
       st.sampled_from(["audit", "equalize"]))
def test_any_bin_spec_exits_0_or_2(spec, command):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "four.csv"
        f.write_text("id,group,score,outcome\n"
                     "1,a,2.0,1\n2,a,7.0,0\n3,b,4.0,0\n4,b,8.0,1\n")
        code = main([command, "--input", str(f), f"--bins={spec}"])
    assert code in (EXIT_OK, EXIT_INPUT)


#: Group labels, some with the characters a markdown report escapes.
_LABELS = st.sampled_from(["a", "b", "c|d", "e\r\nf", "g\\"])


@st.composite
def _cli_runs(draw):
    """A small CSV's records and an audit or equalize argv over them, with
    every option the report's numbers depend on drawn at random. Most
    draws are valid, so that most runs get as far as a report."""
    edges = sorted(draw(st.sets(st.integers(0, 10), min_size=3, max_size=4)))
    bins = ",".join(
        f"{lo}-{hi}" + draw(st.sampled_from(["", f"=b{i}", f"=x|{i}",
                                             f"=z\\{i}"]))
        for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
    )
    score = st.integers(edges[0], edges[-1]).map(float)
    groups = draw(st.lists(_LABELS, min_size=2, max_size=3, unique=True))
    rows = [(g, draw(score), draw(st.booleans())) for g in groups] + draw(
        st.lists(st.tuples(st.sampled_from(groups), score, st.booleans()),
                 max_size=10))
    command = draw(st.sampled_from(["audit", "equalize"]))
    fmt = draw(st.sampled_from(["md", "json"]))
    argv = [command, f"--bins={bins}", f"--format={fmt}"]
    threshold = draw(st.none() | st.floats(0, 1).map("p={!r}".format)
                     | st.integers(edges[0], edges[-1]).map("score>={}".format))
    # TN > FP and TP > FN hold when each pair is drawn in order.
    number = st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e308, -1e308]) | st.floats(
        -1e3, 1e3)
    pair = st.lists(number, min_size=2, max_size=2, unique=True).map(sorted)
    values = draw(st.none() | st.tuples(pair, pair).map(
        lambda p: (p[0][1], p[1][0], p[1][1], p[0][0])))
    tolerance = draw(st.none() | st.sampled_from([1e-9, 0.05, 0.5, 0.0])
                     | st.floats(0, 2))
    if threshold is not None:
        argv.append(f"--threshold={threshold}")
    if values is not None:
        argv.append("--values=" + ",".join(map(repr, values)))
    if tolerance is not None:
        argv.append(f"--tolerance={tolerance!r}")
    if command == "equalize" and draw(st.booleans()):
        argv.append("--raise-thresholds")
    return rows, argv, fmt


def _reject_constant(name):
    raise AssertionError(f"report JSON holds {name}")


@settings(max_examples=80, deadline=None)
@given(_cli_runs())
def test_any_cli_run_exits_0_or_2_with_a_well_formed_report(run):
    rows, argv, fmt = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = write_csv(Path(tmp) / "run.csv", entries_of(rows))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--input", csv_path])
    assert code in (EXIT_OK, EXIT_INPUT), err.getvalue()
    if code != EXIT_OK:
        return
    text = out.getvalue()
    if fmt == "json":
        json.loads(text, parse_constant=_reject_constant)
    else:
        assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE), text
        assert "\r" not in text
        _assert_tables_keep_their_columns(text)
