#!/usr/bin/env python3
"""Benchmark of the fairaudit CLI, end to end and layer by layer.

    python3 bench/run.py --workload equalize-cells --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all     # every workload, one table

Run from anywhere; it uses the sources under ``src/`` of the checkout it
lives in. Each workload is a closed loop with one client: the CLI runs as a
user runs it (``python -m fairaudit.cli ...``), one process at a time, and
the next starts when the previous one has exited. Every report is checked
against the benchmark's own tallies (see ``workloads.py``); a wrong exit
code or a failed check counts as a failed invocation.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced rounds with traced ones, in which ``tracer.py`` runs the
same argv through ``fairaudit.cli.main`` with spans around every call
between layers, and reports the per-layer metrics. A round is one
invocation, or for scenario-mix one pass over the six scenarios; per-layer
times are medians over rounds and counts must repeat exactly.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full results, the machine
they were measured on and, for traced runs, every span go to
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from workloads import (
    SCENARIO_NAMES,
    WORKLOADS,
    Dataset,
    Workload,
    check_csv_report,
    check_scenario_report,
    generate_csv,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Set-ups per end-to-end run; setup_s is their median.
SETUP_REPEATS = 3
#: Pairs of fresh interpreters timed for cli.import_s.
IMPORT_PAIRS = 5
#: A CLI process still running after this long is killed and counted failed.
CHILD_TIMEOUT_S = 150.0
#: wall_s_p90 is reported only when at least ten samples lie beyond it.
P90_MIN_SAMPLES = 100

#: Counters the tracer derives from arguments and results; like every
#: ``.calls`` and ``.errors``, they must repeat exactly from round to round.
TRACE_COUNTERS = (
    "domain.bin_of.calls",
    "metrics.p_score.calls",
    "parity.candidates",
    "report.bytes",
    "scenarios.checks",
    "scenarios.curve_builds",
    "scenarios.equalize_calls",
)


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    stdout: str
    stderr: str


class Runner:
    """Runs one CLI process at a time through ``launcher.py`` and keeps the
    pass/fail tally. Use as a context manager: the launcher is stopped, and
    waited for, on the way out."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._launcher.terminate()
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def invoke(self, cmd: list[str]) -> Invocation:
        out_path, err_path = OUT / "child.out", OUT / "child.err"
        request = {
            "cmd": cmd, "stdout": str(out_path), "stderr": str(err_path),
            "timeout": CHILD_TIMEOUT_S,
        }
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        line = self._launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        return Invocation(
            wall_s=reply["wall_s"],
            cpu_s=reply["cpu_s"],
            maxrss_mb=reply["maxrss_kb"] / 1024.0,  # Linux reports KiB
            exit_code=reply["exit_code"],
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def record(self, problems: list[str], argv: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def _cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "fairaudit.cli", *argv]


def _round(workload: Workload, data: Dataset | None, seed: int) -> list[list[str]]:
    """CLI argv lists of one round: one invocation, or for scenario-mix the
    six scenarios in an order rotated by the seed."""
    if data is not None:
        return [workload.argv(data.path, data.bin_spec)]
    k = seed % len(SCENARIO_NAMES)
    return [
        ["scenario", name, "--format", workload.fmt]
        for name in SCENARIO_NAMES[k:] + SCENARIO_NAMES[:k]
    ]


def _problems(workload: Workload, data: Dataset | None, inv: Invocation) -> list[str]:
    problems = [] if inv.exit_code == 0 else [
        f"exit code {inv.exit_code}: {inv.stderr.strip()[-300:]}"
    ]
    if data is not None:
        return problems + check_csv_report(inv.stdout, workload.fmt, data)
    return problems + check_scenario_report(inv.stdout)


def _prepare(workload: Workload, seed: int) -> Dataset | None:
    if workload.csv is None:
        return None
    return generate_csv(str(OUT / f"{workload.name}.csv"), workload.csv, seed)


def _warm_up(runner: Runner, workload: Workload, data: Dataset | None, argv: list[str]) -> None:
    inv = runner.invoke(_cli(argv))
    problems = _problems(workload, data, inv)
    if problems:
        raise SystemExit(f"warm-up invocation failed: {'; '.join(problems)}")


def _metric(value: float, unit: str, raw: list[float]) -> dict[str, Any]:
    """A metric with the samples it was computed from."""
    return {"value": value, "unit": unit, "samples": len(raw), "raw": raw}


def end_to_end(workload: Workload, seed: int, seconds: float, runner: Runner) -> dict[str, dict]:
    """Set up SETUP_REPEATS times (generate the input, run one untimed
    warm-up round), then run rounds until ``seconds`` pass."""
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        data = _prepare(workload, seed)
        argvs = _round(workload, data, seed)
        for argv in argvs:
            _warm_up(runner, workload, data, argv)
        setup.append(time.perf_counter() - t0)

    samples: list[Invocation] = []
    outcomes: list[float] = []  # 1.0 per failed invocation
    deadline = time.perf_counter() + seconds
    while True:
        for argv in argvs:
            inv = runner.invoke(_cli(argv))
            outcomes.append(0.0 if runner.record(_problems(workload, data, inv), argv) else 1.0)
            samples.append(inv)
        if time.perf_counter() >= deadline:
            break

    walls = [s.wall_s for s in samples]
    cpus = [s.cpu_s for s in samples]
    rss = [s.maxrss_mb for s in samples]
    wall_p50 = statistics.median(walls)
    metrics = {
        "wall_s_p50": _metric(wall_p50, "s", walls),
        "cpu_s_p50": _metric(statistics.median(cpus), "s", cpus),
        "peak_rss_mb": _metric(statistics.median(rss), "MB", rss),
        "setup_s": _metric(statistics.median(setup), "s", setup),
        "error_rate": _metric(runner.failed / runner.attempted, "fraction", outcomes),
    }
    if len(walls) >= P90_MIN_SAMPLES:
        metrics["wall_s_p90"] = _metric(statistics.quantiles(walls, n=10)[8], "s", walls)
    if data is not None:
        metrics["rows_per_s"] = _metric(data.rows / wall_p50, "rows/s", walls)
    return metrics


def _import_seconds(runner: Runner) -> dict[str, Any]:
    """Median start-up with ``import fairaudit.cli`` minus median bare start-up."""
    bare, imported = [], []
    for _ in range(IMPORT_PAIRS):
        bare.append(runner.invoke([sys.executable, "-c", "pass"]).wall_s)
        inv = runner.invoke([sys.executable, "-c", "import fairaudit.cli"])
        if inv.exit_code != 0:
            raise SystemExit(f"import fairaudit.cli failed: {inv.stderr.strip()}")
        imported.append(inv.wall_s)
    return _metric(
        statistics.median(imported) - statistics.median(bare), "s",
        [i - b for i, b in zip(imported, bare)],
    )


def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".errors")) or name in TRACE_COUNTERS


def round_layer_metrics(payloads: list[dict], rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, from its invocations' spans.

    busy_s is time inside a call (outermost call only, if a name nests in
    itself); self_s is that minus the time of its direct wrapped children.
    """
    out: dict[str, float] = defaultdict(float)
    for payload in payloads:
        spans = {s["id"]: s for s in payload["spans"]}
        child_s: dict[int, float] = defaultdict(float)
        for s in spans.values():
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        for s in spans.values():
            name, dur = s["name"], s["end"] - s["start"]
            out[f"{name}.calls"] += 1
            out[f"{name}.errors"] += int(s["error"])
            out[f"{name}.self_s"] += dur - child_s[s["id"]]
            if not _inside_same_name(s, spans):
                out[f"{name}.busy_s"] += dur
            if name == "ingest.ingest_csv":
                out["ingest.rss_delta_mb"] += (s["maxrss_end_kb"] - s["maxrss_start_kb"]) / 1024.0
            if payload["argv"][0] == "scenario":
                if name == "metrics.calibration_curve":
                    out["scenarios.curve_builds"] += 1
                elif name == "parity.equalize_fpr":
                    out["scenarios.equalize_calls"] += 1
        for counter, value in payload["counts"].items():
            out[counter] += value
    if out["ingest.ingest_csv.busy_s"] > 0:
        out["ingest.rows_per_s"] = rows / out["ingest.ingest_csv.busy_s"]
    return out


def _inside_same_name(span: dict, spans: dict[int, dict]) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == span["name"]:
            return True
        parent = spans[parent]["parent"]
    return False


def per_layer(workload: Workload, seed: int, seconds: float, runner: Runner) -> tuple[dict[str, dict], list[dict], bool]:
    """Alternate untraced and traced rounds until ``seconds`` pass.

    Returns the per-layer metrics, every span, and whether every count
    repeated exactly across rounds.
    """
    data = _prepare(workload, seed)
    argvs = _round(workload, data, seed)
    for argv in argvs:
        _warm_up(runner, workload, data, argv)
    import_metric = _import_seconds(runner)

    spans_path = OUT / "spans.tmp.json"
    untraced_s: list[float] = []
    traced_s: list[float] = []
    rounds: list[dict[str, float]] = []
    all_spans: list[dict] = []
    invocation = 0
    deadline = time.perf_counter() + seconds
    while True:
        untraced_s.append(0.0)
        for argv in argvs:
            inv = runner.invoke(_cli(argv))
            runner.record(_problems(workload, data, inv), argv)
            untraced_s[-1] += inv.wall_s
        traced_s.append(0.0)
        payloads = []
        for argv in argvs:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), str(invocation), "--", *argv]
            inv = runner.invoke(cmd)
            invocation += 1
            traced_s[-1] += inv.wall_s
            problems = _problems(workload, data, inv)
            if spans_path.is_file():
                payloads.append(json.loads(spans_path.read_text(encoding="utf-8")))
                all_spans.extend(payloads[-1]["spans"])
            else:
                problems.append("tracer wrote no spans")
            runner.record(problems, argv)
        rounds.append(round_layer_metrics(payloads, data.rows if data else 0))
        if time.perf_counter() >= deadline:
            break

    names = sorted(set().union(*rounds))
    steady_counts = True
    metrics: dict[str, dict] = {}
    for name in names:
        values = [r.get(name, 0.0) for r in rounds]
        if _is_count(name):
            if len(set(values)) > 1:
                steady_counts = False
                print(f"count {name} differs between rounds: {values}", file=sys.stderr)
            value: float = int(values[0])
        else:
            value = statistics.median(values)
        metrics[name] = _metric(value, "count" if _is_count(name) else "s", values)
    metrics["cli.import_s"] = import_metric
    metrics["trace.overhead_s"] = _metric(
        statistics.median(traced_s) - statistics.median(untraced_s), "s",
        [t - u for t, u in zip(traced_s, untraced_s)],
    )
    return metrics, all_spans, steady_counts


def machine() -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # The ceiling stops git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict[str, Any]:
    workload = WORKLOADS[name]
    spans: list[dict] = []
    steady = True
    with Runner() as runner:
        if trace:
            metrics, spans, steady = per_layer(workload, seed, seconds, runner)
            wanted = declared["per_layer"]
        else:
            metrics = end_to_end(workload, seed, seconds, runner)
            wanted = declared["end_to_end"]
    for m in wanted:
        if m["name"] in metrics:
            metrics[m["name"]]["unit"] = m["unit"]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "correct": runner.failed == 0 and steady,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        # A metric whose layer never ran in this workload reads 0.
        "declared": {
            m["name"]: metrics.get(m["name"], _metric(0, m["unit"], [])) for m in wanted
        },
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    return result


def print_table(result: dict[str, Any]) -> None:
    m = result["machine"]
    print(
        f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
        f"commit={m['git_commit'][:12]}"
    )
    for name, metric in sorted(result["metrics"].items()):
        print(
            f"{result['workload']:<15} {name:<42} {metric['value']:>16.6g} "
            f"{metric['unit']:<9} n={metric['samples']}"
        )
    print(
        f"{result['workload']:<15} attempted={result['attempted']} "
        f"failed={result['failed']} correct={result['correct']}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fairaudit" / "cli.py").is_file():
        print(f"fairaudit sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, seconds, bool(args.trace), declared) for n in names]
    for result in results:
        print_table(result)

    def strip(metric: dict) -> dict:
        return {"value": metric["value"], "unit": metric["unit"]}

    if len(results) == 1:
        metrics = {k: strip(v) for k, v in results[0]["declared"].items()}
    else:
        metrics = {
            f"{r['workload']}.{k}": strip(v) for r in results for k, v in r["declared"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
