"""Deterministic fixtures reproducing the worked examples, plus a generator
of bin-exact calibrated two-group datasets.

Both are declared as exact integer counts, never sampled: the fixtures'
published statistics are bookkeeping identities and must reproduce exactly.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .domain import AuditError, BinScheme, ValidationError
from .metrics import CalibrationCurve, curve_from_counts
from .parity import LOWER_OTHERS, RAISE_OTHERS

if TYPE_CHECKING:
    from .report import AuditReport

STRIDE_HEIGHT = "stride_height"
SECTION_GRADES = "section_grades"
COMPAS_SYNTHETIC = "compas_synthetic"
COMPAS_BENEFIT = "compas_benefit"
CERTAINTY_LOTTERY = "certainty_lottery"
MISCALIBRATED_COMPAS = "miscalibrated_compas"

SCENARIO_NAMES = (
    STRIDE_HEIGHT,
    SECTION_GRADES,
    COMPAS_SYNTHETIC,
    COMPAS_BENEFIT,
    CERTAINTY_LOTTERY,
    MISCALIBRATED_COMPAS,
)


class Check(NamedTuple):
    """One published figure to assert: a label, the expected value, an
    absolute tolerance (0.0 means exact), and optionally the exact rendered
    one-decimal-percent string the report must show."""

    label: str
    expected: float
    tol: float = 0.0
    rendered: str | None = None


#: (group, score, positives, negatives): that many records of the group at
#: that score. A (group, bin) cell may span several entries.
Entry = tuple[str, float, int, int]


class ScenarioSpec(NamedTuple):
    """A named worked example: its fixture, declared as exact counts, and
    the policy and published figures it is checked against."""

    name: str
    description: str
    bins: BinScheme
    cells: tuple[Entry, ...]
    action_benefits_subject: bool
    threshold: float
    calib_tolerance: float
    equalize_direction: str
    checks: tuple[Check, ...]
    # One dict shared by every spec without params; nothing mutates it.
    params: Mapping[str, float] = {}
    notes: tuple[str, ...] = ()


def _stride_height() -> ScenarioSpec:
    # Published quantities: FPR women 20/100, FPR men 40/80, p_score of the
    # long-stride bin 0.80 for both sexes. Positives per bin are completed
    # with the smallest integers consistent with those constraints (high bin
    # must be 4:1 positive, and the stated tn counts fix the low-bin
    # negatives; low-bin positives of 20 and 10 make both groups 0.20 there).
    return ScenarioSpec(
        name=STRIDE_HEIGHT,
        description=(
            "Stride-length predictor of being too tall for a spelunking "
            "trip; excluding acts on the long-stride bin."
        ),
        bins=BinScheme(edges=(100.0, 160.0, 200.0), labels=("short", "long")),
        cells=(
            ("women", 180.0, 80, 20),
            ("women", 130.0, 20, 80),
            ("men", 180.0, 160, 40),
            ("men", 130.0, 10, 40),
        ),
        action_benefits_subject=False,
        threshold=0.5,
        calib_tolerance=1e-9,
        equalize_direction=RAISE_OTHERS,
        checks=(
            Check("fpr:men", 40 / 80, rendered="50.0%"),
            Check("fpr:women", 20 / 100, rendered="20.0%"),
            Check("tp:men", 160),
            Check("fp:men", 40),
            Check("tn:men", 40),
            Check("fn:men", 10),
            Check("tp:women", 80),
            Check("fp:women", 20),
            Check("tn:women", 80),
            Check("fn:women", 20),
            Check("p:long:men", 0.80),
            Check("p:long:women", 0.80),
            Check("calibration_gap", 0.0),
        ),
    )


def _section_grades() -> ScenarioSpec:
    # Section 1: 10 true-B papers, 20 true-A; 10 Bs assigned, 2 false.
    # Section 2: 20 true-B papers, 10 true-A; 20 Bs assigned, 4 false.
    return ScenarioSpec(
        name=SECTION_GRADES,
        description=(
            "Fallible grader assigning B grades across two course sections "
            "with different shares of true-B papers."
        ),
        bins=BinScheme(edges=(0.0, 1.0, 2.0), labels=("A", "B")),
        cells=(
            ("section1", 1.5, 8, 2),
            ("section1", 0.5, 2, 18),
            ("section2", 1.5, 16, 4),
            ("section2", 0.5, 4, 6),
        ),
        action_benefits_subject=False,
        threshold=0.5,
        # The B (acted) bin is exactly calibrated at 0.80; the A-bin
        # fractions (0.10 vs 0.40) necessarily differ given the base rates,
        # so the pairwise check runs with a tolerance that covers them.
        calib_tolerance=0.35,
        equalize_direction=LOWER_OTHERS,
        checks=(
            Check("fpr:section1", 0.10, rendered="10.0%"),
            Check("fpr:section2", 0.40, rendered="40.0%"),
            Check("fp:section1", 2),
            Check("fp:section2", 4),
            Check("tp:section2", 16),
            Check("tn:section2", 6),
            Check("fn:section2", 4),
            Check("p:B:section1", 0.80),
            Check("p:B:section2", 0.80),
            Check("ppv:section2", 0.80),
        ),
    )


# Integer completion of the published aggregates, anchored on the exact
# false-positive counts 805/1795 and 349/1488. Positive totals chosen so
# every published rate reproduces under the report's rounding:
#   black: 1868 positives -> base rate 1868/3663 = .50996, fnr 523/1868 = .27998
#   white:  951 positives -> base rate  951/2439 = .38991, fnr 454/951  = .47739
_COMPAS_COUNTS = {
    "black": {"tp": 1345, "fp": 805, "tn": 990, "fn": 523},
    "white": {"tp": 497, "fp": 349, "tn": 1139, "fn": 454},
}


def _compas_synthetic() -> ScenarioSpec:
    c_b, c_w = _COMPAS_COUNTS["black"], _COMPAS_COUNTS["white"]
    return ScenarioSpec(
        name=COMPAS_SYNTHETIC,
        description=(
            "Synthetic reconstruction of the ProPublica Broward County "
            "aggregates with the 1-4 / 5-10 risk binning; detaining acts on "
            "the high bin."
        ),
        bins=BinScheme(edges=(1.0, 5.0, 10.0), labels=("low", "high")),
        cells=tuple(
            cell
            for group, c in _COMPAS_COUNTS.items()
            for cell in ((group, 8.0, c["tp"], c["fp"]),
                         (group, 3.0, c["fn"], c["tn"]))
        ),
        action_benefits_subject=False,
        threshold=0.5,
        calib_tolerance=0.07,
        equalize_direction=RAISE_OTHERS,
        checks=(
            Check("fp:black", 805),
            Check("tn:black", 990),
            Check("fp:white", 349),
            Check("tn:white", 1139),
            Check("fpr:black", 805 / 1795, rendered="44.9%"),
            Check("fpr:white", 349 / 1488, rendered="23.5%"),
            Check("fnr:black", c_b["fn"] / (c_b["fn"] + c_b["tp"]), rendered="28.0%"),
            Check("fnr:white", c_w["fn"] / (c_w["fn"] + c_w["tp"]), rendered="47.7%"),
            Check("base_rate:black", 0.51, tol=0.005),
            Check("base_rate:white", 0.39, tol=0.005),
        ),
        notes=(
            "Totals per group are reconstructions constrained by the "
            "published rates and the two exact count anchors; the actual "
            "Broward County totals may differ.",
        ),
    )


#: Integer scores 1..10, one bin each.
_TEN_SCORES = BinScheme(
    edges=tuple(s + 0.5 for s in range(0, 11)),
    labels=tuple(str(s) for s in range(1, 11)),
)


def _compas_benefit() -> ScenarioSpec:
    # The benefit variant: act = give a cash transfer to high-risk
    # defendants. A ten-bin, bin-exact calibrated population (bin s has
    # positive fraction s/10) with the black group weighted toward high
    # scores.
    cells = []
    for s in range(1, 11):
        n_black = 10 if s <= 5 else 30
        n_white = 30 if s <= 5 else 10
        cells.append(("black", float(s), n_black * s // 10, n_black - n_black * s // 10))
        cells.append(("white", float(s), n_white * s // 10, n_white - n_white * s // 10))
    return ScenarioSpec(
        name=COMPAS_BENEFIT,
        description=(
            "COMPAS + benefit: the act is giving a benefit to high-risk "
            "defendants, over a calibrated ten-bin score."
        ),
        bins=_TEN_SCORES,
        cells=tuple(cells),
        action_benefits_subject=True,
        threshold=0.5,
        calib_tolerance=1e-9,
        equalize_direction=RAISE_OTHERS,
        checks=(
            Check("calibration_gap", 0.0),
            Check("base_rate:black", 135 / 200),
            Check("base_rate:white", 85 / 200),
            Check("fpr:black", 35 / 65),
            Check("fpr:white", 25 / 115),
            Check("equalized_threshold:black", 0.7),
            Check("equalized_threshold:white", 0.5),
            Check("acted_baseline:black", 160),
            Check("acted_equalized:black", 120),
        ),
        notes=(
            "Equalizing FPR raises the benefit threshold for the "
            "higher-base-rate group, so strictly fewer of its members "
            "receive the benefit than under the uniform baseline.",
        ),
    )


def _certainty_lottery() -> ScenarioSpec:
    # Everyone is a known negative; the only fair procedure is an equal
    # lottery over the exclusion quota.
    return ScenarioSpec(
        name=CERTAINTY_LOTTERY,
        description=(
            "Certainty + lottery: 50 men and 100 women, all known to be "
            "under the height limit; 30 of the 150 must be excluded."
        ),
        bins=BinScheme(edges=(0.0, 1.0, 2.0), labels=("low", "high")),
        cells=(("men", 0.5, 0, 50), ("women", 0.5, 0, 100)),
        action_benefits_subject=False,
        threshold=0.5,
        calib_tolerance=1e-9,
        equalize_direction=LOWER_OTHERS,
        params={"exclusion_quota": 30},
        checks=(
            Check("lottery_probability:men", 30 / 150),
            Check("lottery_probability:women", 30 / 150),
            Check("base_rate:men", 0.0),
            Check("base_rate:women", 0.0),
        ),
        notes=(
            "The source text calls 30/150 a 25% chance; 30/150 is 20%. The "
            "exact ratio is reported and the slip documented rather than "
            "matched.",
        ),
    )


def _miscalibrated_compas() -> ScenarioSpec:
    # Score 8 corresponds to an 80% rearrest frequency for white defendants
    # but only 60% for black defendants. Detaining at score 8 and above is
    # then equivalent to calibrated scores with per-group probability
    # thresholds 0.8 (white) and 0.6 (black).
    return ScenarioSpec(
        name=MISCALIBRATED_COMPAS,
        description=(
            "Miscalibrated risk score: the same nominal score carries "
            "different true rearrest frequencies by race, which implements "
            "differential probability thresholds under a uniform score rule."
        ),
        bins=_TEN_SCORES,
        cells=(
            ("white", 8.0, 8, 2),
            ("white", 6.0, 4, 6),
            ("black", 8.0, 6, 4),
            ("black", 6.0, 4, 6),
        ),
        action_benefits_subject=False,
        threshold=0.6,
        calib_tolerance=1e-9,
        equalize_direction=LOWER_OTHERS,
        checks=(
            Check("p:8:white", 0.80),
            Check("p:8:black", 0.60),
            Check("calibration_gap", 0.20, tol=1e-12),
            Check("equiv_threshold:white", 0.80),
            Check("equiv_threshold:black", 0.60),
        ),
        notes=(
            "Detaining at a nominal score of 8 and above treats a black "
            "defendant's 60% true risk the way it treats a white "
            "defendant's 80%: an implicit differential threshold.",
        ),
    )


_BUILDERS = {
    STRIDE_HEIGHT: _stride_height,
    SECTION_GRADES: _section_grades,
    COMPAS_SYNTHETIC: _compas_synthetic,
    COMPAS_BENEFIT: _compas_benefit,
    CERTAINTY_LOTTERY: _certainty_lottery,
    MISCALIBRATED_COMPAS: _miscalibrated_compas,
}


def scenario_spec(name: str) -> ScenarioSpec:
    """The named scenario's fixture and expected figures."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise AuditError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}"
        ) from None
    return builder()


def scenario_curve(
    bins: BinScheme, cells: Iterable[Entry]
) -> CalibrationCurve:
    """The calibration curve of declared counts: each entry's score is
    binned once and its records summed into that cell."""
    bin_of = bins.bin_of
    return curve_from_counts(bins, (
        (group, bin_of(score), positives, negatives)
        for group, score, positives, negatives in cells
    ))


def _section(report: AuditReport, name: str, label: str):
    section = getattr(report, name)
    if section is None:
        raise AuditError(
            f"check {label!r} reads the report's {name} section, which "
            "this report does not have"
        )
    return section


def _entry(table: Mapping, key: str, section: str, label: str):
    try:
        return table[key]
    except KeyError:
        raise AuditError(
            f"check {label!r}: the report's {section} section has no {key!r}"
        ) from None


def scenario_figure(report: AuditReport, label: str) -> float:
    """Read the figure one check label names off the scenario's report.

    A label that reads a section or an entry the report lacks raises
    ``AuditError`` naming it.
    """
    kind, _, rest = label.partition(":")

    if kind == "calibration_gap":
        return report.calibration_gap
    if kind == "lottery_probability":
        lottery = _section(report, "lottery", label)
        return _entry(lottery.per_group, rest, "lottery", label)
    if kind in ("equalized_threshold", "acted_baseline", "acted_equalized"):
        equalization = _section(report, "equalization", label)
        table = {
            "equalized_threshold": equalization.thresholds,
            "acted_baseline": equalization.acted_baseline,
            "acted_equalized": equalization.acted_equalized,
        }[kind]
        return float(_entry(table, rest, "equalization", label))
    if kind == "equalize_residual":
        return _section(report, "equalization", label).residual_gap
    if kind in ("p", "equiv_threshold"):
        bin_label, _, group = rest.rpartition(":")
        cells = _entry(report.calibration_cells, group, "calibration", label)
        if kind == "p":
            return _entry(cells, bin_label, "calibration", label)["p_score"]
        # Effective per-group probability threshold implied by the uniform
        # score rule: the smallest acted-bin p_score.
        threshold = report.thresholds[group]
        acted = [c["p_score"] for c in cells.values() if c["p_score"] >= threshold]
        if not acted:
            raise AuditError(f"group {group!r} has no acted bins")
        return min(acted)

    if kind not in ("tp", "fp", "tn", "fn", "base_rate", "fpr", "fnr", "ppv"):
        raise AuditError(f"unknown check kind in {label!r}")
    figure = getattr(_entry(report.groups, rest, "groups", label), kind)
    if figure is None:
        raise AuditError(f"{kind} undefined for group {rest!r}")
    return float(figure)


def check_scenario(
    report: AuditReport, spec: ScenarioSpec
) -> list[tuple[Check, float, bool]]:
    """Evaluate every check against the figures in ``report``; returns
    (check, actual, passed) triples, one per check."""
    from .report import format_percent

    results = []
    for check in spec.checks:
        actual = scenario_figure(report, check.label)
        ok = abs(actual - check.expected) <= check.tol
        if check.rendered is not None:
            ok = ok and format_percent(actual) == check.rendered
        results.append((check, actual, ok))
    return results


def calibrated_cells(
    n_per_group: int,
    bins: int,
    base_rate_a: float,
    base_rate_b: float,
) -> tuple[BinScheme, tuple[Entry, ...]]:
    """Two-group dataset, bin-exact calibrated, with requested base rates:
    ``bins`` equal-width bins over [0, 1] and one entry per (group, bin).

    Bin j of B carries positive fraction j/(B+1) in both groups, exactly:
    each cell holds whole units of B+1 records containing j positives.
    Group bin weights follow an exponential tilt solved to match each base
    rate, so the higher-base-rate group's score distribution dominates the
    lower's in likelihood ratio. Requested base rates are hit within
    1/n_per_group.
    """
    B = bins
    d = B + 1
    if B < 2:
        raise ValidationError("need at least 2 bins")
    if n_per_group % d != 0:
        raise ValidationError(
            f"n_per_group must be a multiple of {d} for integral "
            f"bin-exact counts, got {n_per_group}"
        )
    units = n_per_group // d
    if units < B:
        raise ValidationError("n_per_group too small to populate every bin")

    scheme = BinScheme(edges=tuple(j / B for j in range(B + 1)))
    cells: list[Entry] = []
    for group, rate in (("a", base_rate_a), ("b", base_rate_b)):
        if not 0.0 < rate < 1.0:
            raise ValidationError(f"base rate {rate!r} outside (0, 1)")
        target = round(rate * n_per_group)
        weights = _tilted_weights(units, target, B)
        for j, u in enumerate(weights, start=1):
            cells.append((group, (j - 0.5) / B, j * u, (d - j) * u))
    return scheme, tuple(cells)


def _tilted_weights(units: int, positives: int, B: int) -> list[int]:
    """Integer bin weights u_1..u_B with sum ``units`` and
    sum(j * u_j) == ``positives``, every bin populated, shaped as an
    exponential tilt."""
    s_min = B * (B + 1) // 2 + (units - B)
    s_max = B * (B + 1) // 2 + (units - B) * B
    if not s_min <= positives <= s_max:
        raise ValidationError(
            f"infeasible integral counts: need {positives} positives from "
            f"{units} units over {B} bins (feasible range {s_min}..{s_max})"
        )

    mean = positives / units

    def tilt_mean(t: float) -> float:
        ws = [math.exp(t * j - t * B) for j in range(1, B + 1)]
        return sum(j * w for j, w in zip(range(1, B + 1), ws)) / sum(ws)

    lo, hi = -40.0, 40.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if tilt_mean(mid) < mean:
            lo = mid
        else:
            hi = mid
    t = (lo + hi) / 2

    raw = [math.exp(t * j - t * B) for j in range(1, B + 1)]
    scale = units / sum(raw)
    floors = [int(r * scale) for r in raw]
    remainders = [r * scale - f for r, f in zip(raw, floors)]
    for j in sorted(range(B), key=lambda j: -remainders[j]):
        if sum(floors) == units:
            break
        floors[j] += 1
    u = floors
    while sum(u) < units:  # degenerate rounding, give to the heaviest bin
        u[max(range(B), key=lambda j: u[j])] += 1
    for j in range(B):  # every bin populated
        while u[j] == 0:
            donor = max(range(B), key=lambda k: u[k])
            u[donor] -= 1
            u[j] += 1

    current = sum((j + 1) * w for j, w in enumerate(u))
    guard = 0
    while current != positives:
        guard += 1
        if guard > units * B + 10:
            raise AuditError("weight repair failed to converge")
        if current < positives:
            donors = [j for j in range(B - 1) if u[j] >= 2]
            j = max(donors, key=lambda j: u[j])
            u[j] -= 1
            u[j + 1] += 1
            current += 1
        else:
            donors = [j for j in range(1, B) if u[j] >= 2]
            j = max(donors, key=lambda j: u[j])
            u[j] -= 1
            u[j - 1] += 1
            current -= 1
    return u
