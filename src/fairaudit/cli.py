"""Command-line interface: audit, scenario, equalize.

Exit codes: 0 success, 2 input or validation error, 3 scenario assertion
failure (a regression against the published figures), 4 internal error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Sequence, TextIO

from .decision import optimal_threshold, policy_expected_disvalue
from .domain import (
    AuditError,
    BinScheme,
    OutcomeValues,
    SYMMETRIC_VALUES,
    ThresholdPolicy,
    ValidationError,
)
from .ingest import DatasetConfig, ingest_csv
from .metrics import CalibrationCurve, calibration_gap
from .parity import (
    LOWER_OTHERS,
    RAISE_OTHERS,
    equalize_fpr,
    fair_lottery,
    impossibility_check,
)
from .report import AuditReport, ScenarioSection, render_report
from .scenarios import (
    SCENARIO_NAMES,
    check_scenario,
    scenario_curve,
    scenario_spec,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SPEC_FAIL = 3
EXIT_INTERNAL = 4

DEFAULT_VALUES_NOTE = (
    "Outcome values were not supplied; using the symmetric default "
    "(TP=1, FP=0, TN=1, FN=0), which puts the optimal threshold at 0.5. "
    "Thresholds are value-laden: pass --values to change this."
)


def parse_bins(spec: str) -> BinScheme:
    """Parse a bin spec like '1-4=low,5-10=high'.

    Each segment is lo-hi with an optional =label; bounds may be negative
    or written with an exponent ('-3--1', '1e-05-1'). Bins are half-open at
    each interior boundary and closed at the top of the last segment.
    Segments must not overlap; a gap between two segments belongs to the
    segment below it.
    """
    edges: list[float] = []
    labels: list[str] = []
    segments = [s.strip() for s in spec.split(",") if s.strip()]
    if len(segments) < 2:
        raise ValidationError(f"bin spec needs at least 2 segments: {spec!r}")
    last_hi = None
    for seg in segments:
        rng, _, label = seg.partition("=")
        lo, hi = _segment_bounds(seg, rng)
        if hi < lo:
            raise ValidationError(f"bin segment {seg!r} has hi < lo")
        if last_hi is not None and lo < last_hi:
            raise ValidationError(
                f"bin segment {seg!r} overlaps the segment before it"
            )
        edges.append(lo)
        labels.append(label or rng)
        last_hi = hi
    edges.append(last_hi)  # type: ignore[arg-type]
    return BinScheme(edges=tuple(edges), labels=tuple(labels))


def _segment_bounds(seg: str, rng: str) -> tuple[float, float]:
    """Split 'lo-hi' at the first '-' that leaves a number on both sides."""
    for i, ch in enumerate(rng):
        if ch == "-" and i > 0:
            try:
                lo, hi = float(rng[:i]), float(rng[i + 1:])
            except ValueError:
                continue
            if not (math.isnan(lo) or math.isnan(hi)):
                return lo, hi
    raise ValidationError(f"bad bin segment {seg!r}; expected lo-hi")


def parse_values(spec: str) -> OutcomeValues:
    """Parse '--values TP,FP,TN,FN'."""
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValidationError(f"--values expects TP,FP,TN,FN, got {spec!r}")
    try:
        tp, fp, tn, fn = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--values expects numbers, got {spec!r}") from None
    return OutcomeValues(v_tp=tp, v_fp=fp, v_tn=tn, v_fn=fn)


def parse_threshold(
    spec: str | None,
    curve: CalibrationCurve,
    values: OutcomeValues,
    notes: list[str],
) -> ThresholdPolicy:
    """Resolve a threshold spec to a policy.

    'p=X' is a uniform probability threshold. 'score>=S' acts on the bins
    at and above S's bin; it is translated per group to the smallest
    p_score among those bins. Unspecified means the optimal threshold for
    the value profile.
    """
    if spec is None:
        p_star = optimal_threshold(values)
        notes.append(
            f"No threshold supplied; using the optimal threshold "
            f"p* = {p_star:.6g} for the value profile."
        )
        return ThresholdPolicy.uniform(p_star)
    spec = spec.strip()
    if spec.startswith("p="):
        try:
            return ThresholdPolicy.uniform(float(spec[2:]))
        except ValueError:
            raise ValidationError(f"bad threshold spec {spec!r}") from None
    if spec.startswith("score>="):
        try:
            boundary = float(spec[len("score>="):])
        except ValueError:
            raise ValidationError(f"bad threshold spec {spec!r}") from None
        first_bin = curve.bins.bin_of(boundary)
        thresholds: dict[str, float] = {}
        for g, cells in curve.by_group.items():
            p_scores = [(b, pos / n) for b, n, pos in zip(*cells)]
            acted = [p for b, p in p_scores if b >= first_bin]
            if not acted:
                raise ValidationError(
                    f"group {g!r} has no records at scores >= {boundary:g}"
                )
            t = min(acted)
            if any(b < first_bin and p >= t for b, p in p_scores):
                notes.append(
                    f"Group {g!r}: some bins below score {boundary:g} have "
                    f"p_score >= {t:.6g}; the probability threshold acts on "
                    "them too."
                )
            thresholds[g] = t
        return ThresholdPolicy.per_group(thresholds)
    raise ValidationError(
        f"bad threshold spec {spec!r}; expected 'p=X' or 'score>=S'"
    )


def _base_report(
    curve: CalibrationCurve,
    action_benefits_subject: bool,
    policy: ThresholdPolicy,
    values: OutcomeValues,
    values_defaulted: bool,
    tolerance: float,
    notes: list[str],
    direction: str | None = None,
    equalize_tolerance: float = 1e-9,
) -> AuditReport:
    """The report of ``policy`` on ``curve``: every section reads one matrix
    per group at its threshold; a ``direction`` adds FPR equalization."""
    thresholds = {g: policy.threshold_for(g) for g in curve.groups}
    groups = {g: curve.confusion(g, t) for g, t in thresholds.items()}
    # A group whose threshold is p* has its best matrix in ``groups``.
    p_star = optimal_threshold(values)
    best = {
        g: cm if thresholds[g] == p_star else curve.confusion(g, p_star)
        for g, cm in groups.items()
    }
    equalization = None if direction is None else equalize_fpr(
        curve, policy, groups, equalize_tolerance,
        direction=direction, values=values, notes=notes,
    )
    impossibility = None
    if len(groups) != 2:
        notes.append(
            "Impossibility check skipped: it is pairwise and the input has "
            f"{len(groups)} groups."
        )
    elif len(set(thresholds.values())) != 1:
        notes.append(
            "Impossibility check skipped: it applies to uniform "
            "thresholds only."
        )
    else:
        try:
            impossibility = impossibility_check(
                curve, groups, calib_tolerance=tolerance, notes=notes
            )
        except AuditError as exc:
            notes.append(f"Impossibility check skipped: {exc}")
    assessment = policy_expected_disvalue(groups, best, values)
    return AuditReport(
        population_benefits=action_benefits_subject,
        policy_kind="uniform" if policy.is_uniform else "per_group",
        thresholds=thresholds,
        values=values,
        values_defaulted=values_defaulted,
        groups=groups,
        calibration_gap=calibration_gap(curve, *curve.groups),
        curve=curve,
        assessment=assessment,
        impossibility=impossibility,
        equalization=equalization,
        notes=tuple(notes),
    )


#: A report is written in slices of this many characters: writing it whole
#: would encode a copy of the whole report while the text is still held.
_WRITE_SLICE = 1 << 14


def _write(fh: TextIO, text: str) -> None:
    for i in range(0, len(text), _WRITE_SLICE):
        fh.write(text[i:i + _WRITE_SLICE])


def _emit(report: AuditReport, args: argparse.Namespace) -> None:
    text = render_report(report, args.format)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write(fh, text)
        else:
            _write(sys.stdout, text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:
            # What stdout still buffers would fail again in the flush at
            # exit; it goes to the null device instead.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        target = repr(args.out) if args.out else "stdout"
        raise AuditError(
            f"cannot write report to {target}: {exc.strerror or exc}"
        ) from None


def cmd_audit(args: argparse.Namespace) -> int:
    """Run ``audit``, or ``equalize``: the same report with an FPR
    equalization section."""
    notes: list[str] = []
    defaulted = not args.values
    if defaulted:
        values = SYMMETRIC_VALUES
        notes.append(DEFAULT_VALUES_NOTE)
    else:
        values = parse_values(args.values)
    if not args.tolerance > 0:
        raise ValidationError("tolerance must be positive")
    curve = ingest_csv(DatasetConfig(
        path=args.input,
        bins=parse_bins(args.bins),
        id_col=args.id_col,
        group_col=args.group_col,
        score_col=args.score_col,
        outcome_col=args.outcome_col,
    ))
    # Labels are compared exactly: say so where two differ only in
    # surrounding whitespace, which most likely names one group twice.
    alike: dict[str, list[str]] = {}
    for group in curve.groups:
        alike.setdefault(group.strip(), []).append(group)
    for labels in alike.values():
        if len(labels) > 1:
            *rest, last = map(repr, labels)
            notes.append(
                f"Groups {', '.join(rest)} and {last} differ only in "
                "surrounding whitespace; they are audited as separate groups."
            )
    policy = parse_threshold(args.threshold, curve, values, notes)
    direction = None
    if args.command == "equalize":
        direction = RAISE_OTHERS if args.raise_thresholds else LOWER_OTHERS
    _emit(_base_report(
        curve, args.benefit, policy, values, defaulted, args.tolerance, notes,
        direction, args.tolerance,
    ), args)
    return EXIT_OK


def scenario_report(name: str) -> AuditReport:
    """Build a named scenario's report and check its published figures
    against the numbers in that report."""
    spec = scenario_spec(name)
    curve = scenario_curve(spec.bins, spec.cells)
    policy = ThresholdPolicy.uniform(spec.threshold)
    report = _base_report(
        curve, spec.action_benefits_subject, policy, SYMMETRIC_VALUES, True,
        spec.calib_tolerance, list(spec.notes), spec.equalize_direction, 1e-9,
    )
    if spec.exclusion_quota is not None:
        counts = {g: cm.n for g, cm in report.groups.items()}
        report = report._replace(
            lottery=fair_lottery(counts, spec.exclusion_quota)
        )
    checks = check_scenario(report, spec)
    return report._replace(scenario=ScenarioSection(
        name=spec.name,
        description=spec.description,
        checks=checks,
        passed=all(c["passed"] for c in checks),
    ))


def cmd_scenario(args: argparse.Namespace) -> int:
    report = scenario_report(args.name)
    _emit(report, args)
    return EXIT_OK if report.scenario.passed else EXIT_SPEC_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairaudit",
        description="Group-fairness audits over scored binary-outcome data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "md"), default="md")
        p.add_argument("--out", default=None, help="write the report here")

    def add_dataset(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="CSV dataset path")
        p.add_argument("--id-col", default="id")
        p.add_argument("--group-col", default="group")
        p.add_argument("--score-col", default="score")
        p.add_argument("--outcome-col", default="outcome")
        p.add_argument(
            "--bins", required=True,
            help="bin spec, e.g. '1-4=low,5-10=high'",
        )
        p.add_argument(
            "--threshold", default=None,
            help="'p=0.75' or 'score>=5'; default: optimal for --values",
        )
        p.add_argument(
            "--values", default=None,
            help="outcome values TP,FP,TN,FN; default symmetric 1,0,1,0",
        )
        p.add_argument("--tolerance", type=float, default=1e-9)
        p.add_argument(
            "--benefit", action="store_true",
            help="acting benefits the subject (default: harms)",
        )

    p_audit = sub.add_parser("audit", help="full audit of a dataset")
    add_dataset(p_audit)
    add_common(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_eq = sub.add_parser("equalize", help="audit plus FPR equalization")
    add_dataset(p_eq)
    p_eq.add_argument(
        "--raise-thresholds", action="store_true",
        help="hold the lowest-FPR group fixed and raise the others "
             "(default lowers the others toward the highest)",
    )
    add_common(p_eq)
    p_eq.set_defaults(func=cmd_audit)

    p_sc = sub.add_parser(
        "scenario", help="rebuild a worked example and assert its figures"
    )
    p_sc.add_argument("name", choices=SCENARIO_NAMES)
    add_common(p_sc)
    p_sc.set_defaults(func=cmd_scenario)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
