"""The worked examples' fixtures, declared as exact integer counts, never
sampled: their published statistics are bookkeeping identities and must
reproduce exactly. :data:`SPECS` maps each scenario's name to its spec.
Only :func:`fairaudit.scenarios.scenario_spec` imports this module, so a
command that runs no scenario never compiles it.
"""
from .domain import BinScheme
from .parity import LOWER_OTHERS, RAISE_OTHERS
from .scenarios import Check, ScenarioSpec

# Integer completion of the published aggregates, anchored on the exact
# false-positive counts 805/1795 and 349/1488. Positive totals chosen so
# every published rate reproduces under the report's rounding:
#   black: 1868 positives -> base rate 1868/3663 = .50996, fnr 523/1868 = .27998
#   white:  951 positives -> base rate  951/2439 = .38991, fnr 454/951  = .47739
_COMPAS_COUNTS = {
    "black": {"tp": 1345, "fp": 805, "tn": 990, "fn": 523},
    "white": {"tp": 497, "fp": 349, "tn": 1139, "fn": 454},
}

#: Integer scores 1..10, one bin each.
_TEN_SCORES = BinScheme(
    edges=tuple(s + 0.5 for s in range(0, 11)),
    labels=tuple(str(s) for s in range(1, 11)),
)

# The benefit variant's population: ten bins, bin-exact calibrated (bin s
# has positive fraction s/10), with the black group weighted toward high
# scores.
_BENEFIT_CELLS = tuple(
    (group, float(s), n * s // 10, n - n * s // 10)
    for s in range(1, 11)
    for group, n in zip(("black", "white"), (10, 30) if s <= 5 else (30, 10))
)

SPECS = {spec.name: spec for spec in (
    # Published quantities: FPR women 20/100, FPR men 40/80, p_score of the
    # long-stride bin 0.80 for both sexes. Positives per bin are completed
    # with the smallest integers consistent with those constraints (high bin
    # must be 4:1 positive, and the stated tn counts fix the low-bin
    # negatives; low-bin positives of 20 and 10 make both groups 0.20 there).
    ScenarioSpec(
        name="stride_height",
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
    ),
    # Section 1: 10 true-B papers, 20 true-A; 10 Bs assigned, 2 false.
    # Section 2: 20 true-B papers, 10 true-A; 20 Bs assigned, 4 false.
    ScenarioSpec(
        name="section_grades",
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
        # so the pair is calibrated only within a tolerance that covers
        # them, and the report notes its FPR ordering without asserting it.
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
    ),
    ScenarioSpec(
        name="compas_synthetic",
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
            Check("fnr:black", 523 / 1868, rendered="28.0%"),
            Check("fnr:white", 454 / 951, rendered="47.7%"),
            Check("base_rate:black", 0.51, tol=0.005),
            Check("base_rate:white", 0.39, tol=0.005),
        ),
        notes=(
            "Totals per group are reconstructions constrained by the "
            "published rates and the two exact count anchors; the actual "
            "Broward County totals may differ.",
        ),
    ),
    # The benefit variant: act = give a cash transfer to high-risk
    # defendants.
    ScenarioSpec(
        name="compas_benefit",
        description=(
            "COMPAS + benefit: the act is giving a benefit to high-risk "
            "defendants, over a calibrated ten-bin score."
        ),
        bins=_TEN_SCORES,
        cells=_BENEFIT_CELLS,
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
    ),
    # Everyone is a known negative; the only fair procedure is an equal
    # lottery over the exclusion quota.
    ScenarioSpec(
        name="certainty_lottery",
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
        exclusion_quota=30,
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
    ),
    # Score 8 corresponds to an 80% rearrest frequency for white defendants
    # but only 60% for black defendants. Detaining at score 8 and above is
    # then equivalent to calibrated scores with per-group probability
    # thresholds 0.8 (white) and 0.6 (black).
    ScenarioSpec(
        name="miscalibrated_compas",
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
    ),
)}
