"""Benchmark workloads: seeded inputs, the CLI argv each invocation runs,
and the checks every report must pass.

The generator is the benchmark's own and never calls into fairaudit, so a
change to the program (its scenario generator included) cannot change the
benchmark's inputs. Rows are written straight to CSV with ``csv.writer``;
the per-(group, bin) tallies come back from the generator, not from the
program, and are what the output checks compare against.
"""
from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass

#: The six named fixtures of ``fairaudit scenario``, cycled by scenario-mix.
SCENARIO_NAMES = (
    "stride_height",
    "section_grades",
    "compas_synthetic",
    "compas_benefit",
    "certainty_lottery",
    "miscalibrated_compas",
)


@dataclass(frozen=True)
class CsvSpec:
    """Shape of a generated dataset.

    Scores are uniform inside their bin, bins are ``bins`` equal slices of
    [0, 1], and a row in bin j is positive with probability (j + 0.5) /
    bins, the same for every group. Group k's bin weights are an exponential
    tilt exp(tilt * s_k * (x_j - 0.5)) with s_k spread evenly over [-1, 1],
    so the groups differ in score distribution and hence in base rate.
    """

    rows: int
    groups: int
    bins: int
    tilt: float


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "audit", "equalize" or "scenario"
    fmt: str
    csv: CsvSpec | None = None

    def argv(self, input_path: str, bin_spec: str) -> list[str]:
        """CLI arguments of one CSV invocation."""
        return [
            self.command, "--input", input_path, "--bins", bin_spec,
            "--threshold", "p=0.5", "--format", self.fmt,
        ]


# audit-rows is the row-bound workload: ingest and the per-record passes do
# nearly all of its work, and impossibility_check runs. It is not listed in
# BENCHMARK.json, so no change is gated on it: on a 2-vCPU VM whose host
# contention moved long invocations by up to 60% for minutes at a time, the
# IQR/median of its wall time over 10 seeds was 0.35 in one set and 0.22 in
# another, against a 0.25 bound. Run it by hand with --workload audit-rows
# (or all).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("audit-rows", "audit", "json", CsvSpec(200_000, 2, 10, 0.4)),
        Workload("equalize-cells", "equalize", "md", CsvSpec(20_000, 16, 200, 5.0)),
        Workload("scenario-mix", "scenario", "md"),
    )
}

#: Smallest variants of the CSV workloads, for the benchmark's own tests.
SMALL = {
    "audit-rows": CsvSpec(2_000, 2, 10, 0.4),
    "equalize-cells": CsvSpec(1_600, 16, 20, 5.0),
}


@dataclass(frozen=True)
class Dataset:
    """A generated CSV and its exact per-(group, bin) tallies."""

    path: str
    bin_spec: str
    rows: int
    cells: dict[tuple[str, str], tuple[int, int]]  # (group, label) -> (count, positives)

    def group_sizes(self) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for (g, _label), (count, _pos) in self.cells.items():
            sizes[g] = sizes.get(g, 0) + count
        return sizes


def bin_label(j: int) -> str:
    return f"b{j:03d}"


def generate_csv(path: str, spec: CsvSpec, seed: int) -> Dataset:
    """Write ``spec.rows`` seeded rows to ``path`` and return their tallies."""
    rng = random.Random(seed)
    B = spec.bins
    groups = [f"g{k:02d}" for k in range(spec.groups)]
    # Cell c = k * B + j is group k, bin j. Each row draws its cell, so group
    # sizes are equal only in expectation; the tallies are exact.
    weights = []
    for k in range(spec.groups):
        s = -1.0 + 2.0 * k / (spec.groups - 1)
        tilt = [math.exp(spec.tilt * s * ((j + 0.5) / B - 0.5)) for j in range(B)]
        total = sum(tilt)
        weights.extend(w / total for w in tilt)
    cells = rng.choices(range(spec.groups * B), weights=weights, k=spec.rows)

    counts = [0] * (spec.groups * B)
    positives = [0] * (spec.groups * B)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "group", "score", "outcome"))
        for i, c in enumerate(cells):
            k, j = divmod(c, B)
            # Keep scores 5% of a bin width away from either edge, so
            # rounding to six decimals never moves a row across an edge.
            score = (j + 0.05 + 0.9 * rng.random()) / B
            outcome = int(rng.random() < (j + 0.5) / B)
            writer.writerow((f"r{i}", groups[k], f"{score:.6f}", outcome))
            counts[c] += 1
            positives[c] += outcome

    bin_spec = ",".join(
        f"{j / B!r}-{(j + 1) / B!r}={bin_label(j)}" for j in range(B)
    )
    return Dataset(
        path=path,
        bin_spec=bin_spec,
        rows=spec.rows,
        cells={
            (groups[c // B], bin_label(c % B)): (counts[c], positives[c])
            for c in range(spec.groups * B)
            if counts[c]
        },
    )


def check_csv_report(text: str, fmt: str, data: Dataset) -> list[str]:
    """Problems with a CSV workload's report; empty when it is correct.

    Every group's n and every (group, bin) count and positives must equal
    the generator's tallies, and TP+FP+TN+FN must equal n in each group.
    """
    if fmt == "json":
        try:
            payload = json.loads(text)
            groups = {
                g: (m["n"], m["tp"] + m["fp"] + m["tn"] + m["fn"])
                for g, m in payload["groups"].items()
            }
            cells = {
                (g, label): (cell["count"], cell["positives"])
                for g, bins in payload["calibration"]["cells"].items()
                for label, cell in bins.items()
            }
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"unreadable JSON report: {exc!r}"]
    else:
        groups, cells = _markdown_tables(text)

    problems = []
    expected_n = data.group_sizes()
    if set(groups) != set(expected_n):
        problems.append(f"groups {sorted(groups)} != {sorted(expected_n)}")
    for g, (n, confusion_total) in sorted(groups.items()):
        if n != expected_n.get(g):
            problems.append(f"group {g}: n={n}, generated {expected_n.get(g)}")
        if confusion_total != n:
            problems.append(f"group {g}: TP+FP+TN+FN={confusion_total} != n={n}")
    if cells != data.cells:
        wrong = sorted(set(cells.items()) ^ set(data.cells.items()))
        problems.append(f"{len(wrong)} calibration cells differ, e.g. {wrong[:3]}")
    return problems


_ROW = re.compile(r"^\|(.*)\|$")


def _markdown_tables(
    text: str,
) -> tuple[dict[str, tuple[int, int]], dict[tuple[str, str], tuple[int, int]]]:
    """(group -> (n, TP+FP+TN+FN), (group, label) -> (count, positives)) read
    from the markdown report's Groups and Calibration tables."""
    groups: dict[str, tuple[int, int]] = {}
    cells: dict[tuple[str, str], tuple[int, int]] = {}
    section = None
    for line in text.splitlines():
        if line.startswith("## "):
            section = line[3:].strip()
            continue
        m = _ROW.match(line)
        if not m:
            continue
        cols = [c.strip() for c in m.group(1).split("|")]
        if cols[0] in ("group", "---"):
            continue
        try:
            if section == "Groups" and len(cols) == 10:
                tp, fp, tn, fn = (int(c) for c in cols[6:10])
                groups[cols[0]] = (int(cols[1]), tp + fp + tn + fn)
            elif section == "Calibration" and len(cols) == 5:
                cells[(cols[0], cols[1])] = (int(cols[2]), int(cols[3]))
        except ValueError:
            continue  # a non-integer count fails the comparison with the tallies
    return groups, cells


SCENARIO_PASS = "Scenario verdict: PASS"


def check_scenario_report(text: str) -> list[str]:
    """A scenario report must state that every published figure reproduced."""
    verdicts = [l for l in text.splitlines() if l.startswith("Scenario verdict:")]
    if verdicts != [SCENARIO_PASS]:
        return [f"scenario verdict lines {verdicts!r}, expected [{SCENARIO_PASS!r}]"]
    return []
