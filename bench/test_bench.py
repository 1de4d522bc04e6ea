"""Tests of the benchmark itself: seeded inputs, output checks, and a traced
run that changes nothing the CLI prints.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import bisect
import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
from run import Runner, round_layer_metrics
from tracer import CALLER_MODULES, Recorder, traced
from workloads import (
    SCENARIO_NAMES,
    SMALL,
    WORKLOADS,
    check_csv_report,
    check_scenario_report,
    generate_csv,
)

ROOT = Path(__file__).resolve().parent.parent


def _small_dataset(tmp_path, name, seed=7):
    return generate_csv(str(tmp_path / f"{name}.csv"), SMALL[name], seed)


def _small_argvs(tmp_path):
    """(argv, dataset or None) of the smallest variant of every workload."""
    cases = []
    for name in SMALL:
        data = _small_dataset(tmp_path, name)
        cases.append((WORKLOADS[name].argv(data.path, data.bin_spec), data))
    for scenario in SCENARIO_NAMES:
        cases.append((["scenario", scenario, "--format", "md"], None))
    return cases


def _untraced(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "fairaudit.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    return proc.returncode, proc.stdout.decode("utf-8")


def _traced(argv, invocation=0):
    from fairaudit import cli

    recorder = Recorder(invocation)
    buf = io.StringIO()
    with traced(recorder), redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), recorder


class TestGenerator:
    def test_same_seed_same_bytes_other_seed_other_bytes(self, tmp_path):
        spec = SMALL["audit-rows"]
        a = generate_csv(str(tmp_path / "a.csv"), spec, 3)
        b = generate_csv(str(tmp_path / "b.csv"), spec, 3)
        c = generate_csv(str(tmp_path / "c.csv"), spec, 4)
        assert Path(a.path).read_bytes() == Path(b.path).read_bytes()
        assert a.cells == b.cells
        assert Path(a.path).read_bytes() != Path(c.path).read_bytes()

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_tallies_match_a_recount_of_the_csv(self, tmp_path, name):
        data = _small_dataset(tmp_path, name)
        segments = [seg.partition("=") for seg in data.bin_spec.split(",")]
        edges = [float(rng.partition("-")[0]) for rng, _, _ in segments]
        labels = [label for _, _, label in segments]
        recount: dict[tuple[str, str], list[int]] = {}
        with open(data.path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            j = bisect.bisect_right(edges, float(row["score"])) - 1
            cell = recount.setdefault((row["group"], labels[j]), [0, 0])
            cell[0] += 1
            cell[1] += int(row["outcome"])
        assert len(rows) == data.rows == SMALL[name].rows
        assert {k: tuple(v) for k, v in recount.items()} == data.cells
        assert len({row["id"] for row in rows}) == data.rows
        assert len(data.group_sizes()) == SMALL[name].groups


class TestOutputChecks:
    def test_csv_reports_pass_and_a_wrong_count_fails(self, tmp_path):
        for name in SMALL:
            data = _small_dataset(tmp_path, name)
            fmt = WORKLOADS[name].fmt
            code, text = _untraced(WORKLOADS[name].argv(data.path, data.bin_spec))
            assert code == 0
            assert check_csv_report(text, fmt, data) == []
            if fmt == "json":
                payload = json.loads(text)
                payload["groups"]["g00"]["tp"] += 1
                broken = json.dumps(payload)
            else:
                g, label = sorted(data.cells)[0]
                count, positives = data.cells[(g, label)]
                row = f"| {g} | {label} | {count} | {positives} |"
                assert row in text
                broken = text.replace(row, f"| {g} | {label} | {count + 1} | {positives} |")
            assert check_csv_report(broken, fmt, data) != []
            assert check_csv_report("", fmt, data) != []

    def test_scenario_verdict(self):
        code, text = _untraced(["scenario", "stride_height", "--format", "md"])
        assert code == 0
        assert check_scenario_report(text) == []
        failing = text.replace("Scenario verdict: PASS", "Scenario verdict: FAIL")
        assert check_scenario_report(failing) != []
        assert check_scenario_report("") != []


class TestTracedRun:
    def test_output_is_byte_identical_to_the_untraced_cli(self, tmp_path):
        for argv, _data in _small_argvs(tmp_path):
            code, text, _ = _traced(argv)
            assert (code, text) == _untraced(argv), argv

    def test_spans_nest_within_their_invocation(self, tmp_path):
        for invocation, (argv, _data) in enumerate(_small_argvs(tmp_path)):
            _, _, recorder = _traced(argv, invocation)
            spans = {s.id: s for s in recorder.spans}
            roots = [s for s in spans.values() if s.parent is None]
            assert [s.name for s in roots] == ["cli.main"], argv
            for s in spans.values():
                assert s.invocation == invocation
                assert s.start <= s.end
                if s.parent is not None:
                    parent = spans[s.parent]
                    assert parent.invocation == s.invocation
                    assert parent.start <= s.start and s.end <= parent.end

    def test_wrappers_are_restored_even_after_an_error(self):
        import importlib

        from fairaudit.domain import BinScheme
        from fairaudit.metrics import CalibrationCurve

        modules = [importlib.import_module(f"fairaudit.{m}") for m in CALLER_MODULES]
        before = [dict(vars(m)) for m in modules]
        methods = (BinScheme.bin_of, CalibrationCurve.p_score)
        with pytest.raises(RuntimeError):
            with traced(Recorder()):
                assert modules[0].main is not before[0]["main"]
                raise RuntimeError("boom")
        assert [dict(vars(m)) for m in modules] == before
        assert (BinScheme.bin_of, CalibrationCurve.p_score) == methods

    def test_counters_count_every_call(self):
        from fairaudit.domain import BinScheme

        recorder = Recorder()
        bins = BinScheme(edges=(0.0, 0.5, 1.0))
        with traced(recorder):
            for score in (0.1, 0.6, 1.0):
                bins.bin_of(score)
        assert recorder.counts["domain.bin_of.calls"] == 3

    def test_layer_metrics_repeat_exactly(self, tmp_path):
        data = _small_dataset(tmp_path, "equalize-cells")
        argv = WORKLOADS["equalize-cells"].argv(data.path, data.bin_spec)
        rounds = []
        for _ in range(2):
            _, _, recorder = _traced(argv)
            payload = recorder.to_json()
            payload["argv"] = argv
            rounds.append(round_layer_metrics([payload], data.rows))
        counts = [
            {k: v for k, v in r.items() if k.endswith((".calls", ".errors"))}
            for r in rounds
        ]
        assert counts[0] == counts[1]
        assert rounds[0]["parity.candidates"] == rounds[1]["parity.candidates"] > 0
        assert rounds[0]["ingest.rows_per_s"] > 0
        assert rounds[0]["cli.main.self_s"] <= rounds[0]["cli.main.busy_s"]


class TestLauncher:
    def test_child_figures_are_its_own(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "OUT", tmp_path)
        ballast = bytearray(200 * 1024 * 1024)  # a parent far larger than any child
        ballast[::4096] = b"x" * len(ballast[::4096])
        with Runner() as runner:
            inv = runner.invoke([sys.executable, "-c", "print('hi'); raise SystemExit(3)"])
        assert (inv.exit_code, inv.stdout) == (3, "hi\n")
        assert 0 < inv.maxrss_mb < 100
        assert 0 < inv.cpu_s and 0 < inv.wall_s < 60

    def test_a_child_past_the_timeout_is_killed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "OUT", tmp_path)
        monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
        with Runner() as runner:
            inv = runner.invoke([sys.executable, "-c", "import time; time.sleep(60)"])
        assert inv.exit_code == -9
        assert inv.wall_s < 30
