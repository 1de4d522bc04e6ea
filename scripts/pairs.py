#!/usr/bin/env python3
"""Compare two checkouts with alternating runs of their benchmark.

    python3 scripts/pairs.py PARENT CHANGE --out BENCH_x.json
    taskset -c 1 python3 scripts/pairs.py PARENT CHANGE \\
        --workload equalize-cells --seed 3 --out BENCH_x.json

Each of the ten pairs runs ``bench/run.py --trace 0`` once from each
checkout, one after the other; the side that runs first alternates from
pair to pair, so that a drift in the host's load falls on both sides
alike. Each run uses the sources and the benchmark of its own checkout,
run length included.

The two checkout paths must have the same length: the benchmark runs the
CLI with ``PYTHONPATH`` set to the checkout's ``src``, and a longer path
alone raises the peak RSS of a scenario run by ~0.1 MB.

Prints each pair's end-to-end metrics and, per metric, the quartiles of
each side, the number of pairs in which the change read lower, and whether
the gain rule holds, and writes all of it as JSON to ``--out``. The gain
rule: the change reads better in at least nine tenths of the pairs, and
its median is better than the parent's by more than the parent's
interquartile range. Which way is better comes from the ``better`` field
of the change's ``BENCHMARK.json``, which the script only reads. Only the
standard library is used.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Mapping

SIDES = ("parent", "change")
PAIRS = 10


def run_bench(checkout: Path, args: argparse.Namespace) -> dict[str, Any]:
    """One ``bench/run.py`` run from ``checkout``: its summary line, with
    the metrics flattened to name -> value."""
    cmd = [
        sys.executable, str(checkout / "bench" / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=checkout, capture_output=True, text=True, check=False
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}"
        )
    summary = json.loads(lines[-1])
    metrics = {
        name: metric["value"] for name, metric in summary["metrics"].items()
    }
    return {
        **metrics,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
    }


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def directions(checkout: Path) -> dict[str, str]:
    """End-to-end metric name -> "lower" or "higher", the way it is
    better, as the checkout's BENCHMARK.json declares it."""
    declared = json.loads(
        (checkout / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    return {m["name"]: m["better"] for m in declared["end_to_end"]}


def summarize(
    pairs: list[dict[str, Any]], better: Mapping[str, str]
) -> dict[str, Any]:
    """Per metric: each side's quartiles, in how many pairs the change read
    lower, higher or the same, and whether the gain rule holds. ``better``
    gives the direction by metric name without its workload prefix
    ("peak_rss_mb" for "equalize-cells.peak_rss_mb"); the rule is None for
    a metric it does not name."""
    names = [
        name for name, value in pairs[0]["parent"].items()
        if type(value) in (int, float) and name not in ("attempted", "failed")
    ]
    summary = {}
    for name in names:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        higher = sum(c > p for p, c in zip(parent, change))
        sides = {"parent": quartiles(parent), "change": quartiles(change)}
        direction = better.get(name.rpartition(".")[2])
        holds = None
        if direction is not None:
            drop = sides["parent"]["median"] - sides["change"]["median"]
            wins = lower if direction == "lower" else higher
            gain = drop if direction == "lower" else -drop
            spread = sides["parent"]["q3"] - sides["parent"]["q1"]
            # wins / pairs >= 9 / 10, in integers
            holds = 10 * wins >= 9 * len(pairs) and gain > spread
        summary[name] = {
            **sides,
            "change_lower_pairs": lower,
            "change_higher_pairs": higher,
            "pairs": len(pairs),
            "better": direction,
            "gain_rule_holds": holds,
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.partition("\n\n")[0]
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "bench" / "run.py").is_file():
            parser.error(f"{side} {path} has no bench/run.py")
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        parser.error(
            "the checkout paths differ in length "
            f"({len(str(checkouts['parent']))} and "
            f"{len(str(checkouts['change']))} characters), which moves peak "
            "RSS; use paths of equal length"
        )

    pairs: list[dict[str, Any]] = []
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair: dict[str, Any] = {"first": order[0]}
        for side in order:
            pair[side] = run_bench(checkouts[side], args)
        pairs.append(pair)
        print(f"pair {i + 1} (first: {order[0]})")
        for name, parent in pair["parent"].items():
            print(f"  {name}: parent {parent}  change {pair['change'][name]}")
        sys.stdout.flush()

    summary = summarize(pairs, directions(checkouts["change"]))
    print(
        "summary: change lower in k of n pairs; gain rule: better in at "
        "least 9 of 10 pairs and by more than the parent's IQR"
    )
    verdicts = {True: "holds", False: "does not hold", None: "no direction"}
    for name, s in summary.items():
        print(
            f"  {name}: {s['change_lower_pairs']} of {s['pairs']} "
            f"(median parent {s['parent']['median']:.5g}, "
            f"change {s['change']['median']:.5g}); gain rule "
            f"{verdicts[s['gain_rule_holds']]}"
        )
    result = {
        "command": [Path(sys.argv[0]).name, *(argv or sys.argv[1:])],
        "parent": str(args.parent),
        "change": str(args.change),
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "pairs": pairs,
        "summary": summary,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
