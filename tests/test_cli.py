import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_csv
from fairaudit import scenario_spec
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

    def test_missing_file_exits_2(self, capsys):
        code = main([
            "audit", "--input", "/no/such/file.csv", "--bins", COMPAS_BINS,
        ])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

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
    # Rows and fixture entries stream into the cell sums: no command holds
    # a collection of records, only the per-(group, bin) counts.
    import inspect

    import fairaudit.ingest
    import fairaudit.scenarios

    def streamed_only(bins, counts):
        assert inspect.isgenerator(counts), type(counts)
        return build(bins, counts)

    build = fairaudit.ingest.curve_from_counts
    for module in (fairaudit.ingest, fairaudit.scenarios):
        monkeypatch.setattr(module, "curve_from_counts", streamed_only)
    dataset = ["--input", compas_csv, "--bins", COMPAS_BINS]
    for argv in (["audit", *dataset], ["equalize", *dataset],
                 ["scenario", "compas_synthetic"]):
        assert main([*argv, "--format", "json"]) == EXIT_OK, argv


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
