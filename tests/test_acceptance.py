"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (bypassing capture) so the run log shows
a criterion-by-criterion scoreboard regardless of pytest verbosity.
"""
import random
import time
from contextlib import contextmanager

import pytest

from conftest import assess, equalize, keyed_cells, records, write_csv
from fairaudit import (
    OutcomeValues,
    SCENARIO_NAMES,
    ThresholdPolicy,
    fair_lottery,
    optimal_threshold,
    scenario_curve,
    scenario_spec,
)
from fairaudit.cli import scenario_report
from fairaudit.ingest import DatasetConfig, ingest_csv
from fairaudit.parity import RAISE_OTHERS
from fairaudit.report import format_percent
from reference import expected_values, individual_error_risk
from synthetic import calibrated_cells


@contextmanager
def criterion(capfd, number, description, budget_s=None):
    def emit(line):
        # Bypass capture so the scoreboard shows in the run log even when
        # the criterion passes.
        with capfd.disabled():
            print(line, flush=True)

    start = time.perf_counter()
    try:
        yield
    except BaseException:
        emit(f"criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
        )
    emit(f"criterion {number:2d} PASS  {description} ({elapsed:.2f}s)")


def scenario_actuals(name):
    spec = scenario_spec(name)
    checks = scenario_report(name).scenario.checks
    return spec, {c["label"]: (c, c["actual"], c["passed"]) for c in checks}


def test_criterion_01_compas_table_reproduction(capfd):
    with criterion(capfd, 1, "recidivism table rendering and count anchors", 1.0):
        spec, actuals = scenario_actuals("compas_synthetic")
        check, fpr_b, ok = actuals["fpr:black"]
        assert ok and format_percent(fpr_b) == "44.9%"
        check, fpr_w, ok = actuals["fpr:white"]
        assert ok and format_percent(fpr_w) == "23.5%"
        check, fnr_b, ok = actuals["fnr:black"]
        assert ok and format_percent(fnr_b) == "28.0%"
        check, fnr_w, ok = actuals["fnr:white"]
        assert ok and format_percent(fnr_w) == "47.7%"
        policy = ThresholdPolicy.uniform(spec.threshold)
        curve = scenario_curve(spec.bins, spec.cells)
        black = curve.confusion("black", policy.threshold_for("black"))
        white = curve.confusion("white", policy.threshold_for("white"))
        assert black.fp == 805
        assert black.fp + black.tn == 1795
        assert white.fp == 349
        assert white.fp + white.tn == 1488
        assert abs(black.base_rate - 0.51) <= 0.005
        assert abs(white.base_rate - 0.39) <= 0.005


def test_criterion_02_section_grades_reproduction(capfd):
    with criterion(capfd, 2, "two-section grade prediction, exact bookkeeping", 1.0):
        spec, actuals = scenario_actuals("section_grades")
        assert actuals["fpr:section1"][1] == 0.10
        assert actuals["fpr:section2"][1] == 0.40
        assert actuals["p:B:section1"][1] == 0.80
        assert actuals["p:B:section2"][1] == 0.80
        assert actuals["fp:section1"][1] == 2
        assert actuals["fp:section2"][1] == 4
        assert all(ok for _c, _a, ok in actuals.values())


def test_criterion_03_stride_height_reproduction(capfd):
    with criterion(capfd, 3, "stride-length height prediction, exact rates", 1.0):
        spec = scenario_spec("stride_height")
        policy = ThresholdPolicy.uniform(spec.threshold)
        curve = scenario_curve(spec.bins, spec.cells)
        women = curve.confusion("women", policy.threshold_for("women"))
        men = curve.confusion("men", policy.threshold_for("men"))
        assert (women.fp, women.tn) == (20, 80)
        assert (men.fp, men.tn) == (40, 40)
        assert women.fpr == 0.20
        assert men.fpr == 0.50


def test_criterion_04_threshold_oracle_equivalence(capfd):
    with criterion(capfd, 4, "optimal threshold vs grid-sweep EV crossover", 5.0):
        rng = random.Random(20260826)
        step = 1e-3
        n_grid = round(1 / step)
        for _ in range(1000):
            v_fp = rng.uniform(-10, 10)
            v_tn = v_fp + rng.uniform(0.05, 10)
            v_fn = rng.uniform(-10, 10)
            v_tp = v_fn + rng.uniform(0.05, 10)
            values = OutcomeValues(v_tp=v_tp, v_fp=v_fp, v_tn=v_tn, v_fn=v_fn)
            p_star = optimal_threshold(values)
            # EV difference is linear in p; solve the sign change on the grid.
            d0 = expected_values(0.0, values)
            d1 = expected_values(1.0, values)
            slope = (d1.ev_act - d1.ev_refrain) - (d0.ev_act - d0.ev_refrain)
            intercept = d0.ev_act - d0.ev_refrain
            crossover = 1.0
            for i in range(n_grid + 1):
                if intercept + slope * (i * step) >= 0:
                    crossover = i * step
                    break
            if 0.0 <= p_star <= 1.0:
                assert abs(p_star - crossover) <= step + 1e-12, values
            for i in range(0, n_grid + 1, 50):
                p = i * step
                ev = expected_values(p, values)
                diff = ev.ev_act - ev.ev_refrain
                if abs(diff) > 1e-9:
                    assert (diff > 0) == (p > p_star), (values, p)


def test_criterion_05_central_impossibility_property(capfd):
    with criterion(capfd, 5, "FPR ordering on 500 calibrated random populations", 30.0):
        rng = random.Random(99)
        counterexamples = []
        for case in range(500):
            bins = rng.choice((3, 4, 5))
            unit = bins + 1
            n = unit * rng.randrange(150, 301)
            lo = 1 / unit
            hi = bins / unit
            rate_a = rng.uniform(lo + 0.15, hi - 0.02)
            rate_b = rng.uniform(lo + 0.02, rate_a - 0.10)
            scheme, cells = calibrated_cells(
                n_per_group=n, bins=bins, base_rate_a=rate_a, base_rate_b=rate_b,
            )
            curve = scenario_curve(scheme, cells)
            rate = {g: curve.confusion(g, 0.5).base_rate for g in ("a", "b")}
            higher = "a" if rate["a"] > rate["b"] else "b"
            lower = "b" if higher == "a" else "a"
            assert rate[higher] > rate[lower]
            # Interior achievable thresholds: act on bins j..B-1 for j >= 1.
            # FPRs are computed by direct counts over the raw records: each
            # group's negatives are binned once, then counted per cut.
            negative_bins = {"a": [], "b": []}
            for g, score, positive in records(cells):
                if not positive:
                    negative_bins[g].append(scheme.bin_of(score))
            for j in range(1, bins):
                fprs = {}
                for g, negatives in negative_bins.items():
                    fp = sum(b >= j for b in negatives)
                    fprs[g] = fp / len(negatives)
                if not fprs[higher] > fprs[lower]:
                    counterexamples.append((case, j, fprs))
        assert not counterexamples, counterexamples[:5]


def test_criterion_06_disvalue_dominance(capfd):
    with criterion(capfd, 6, "equalized policies never beat uniform p* disvalue", 1.0):
        values = OutcomeValues(1, 0, 1, 0)
        p_star = optimal_threshold(values)
        for name in ("stride_height", "compas_synthetic"):
            spec = scenario_spec(name)
            curve = scenario_curve(spec.bins, spec.cells)
            baseline = ThresholdPolicy.uniform(p_star)
            base_cost = assess(curve, baseline, values).total.expected_disvalue
            for direction in ("lower_others", "raise_others"):
                result = equalize(
                    curve, baseline, tolerance=1e-9,
                    direction=direction, values=values,
                )
                eq_cost = base_cost + result.disvalue_delta
                assert eq_cost >= base_cost - 1e-12, (name, direction)
                moved = any(
                    result.thresholds[g] != p_star for g in curve.groups
                )
                if moved:
                    assert eq_cost > base_cost, (name, direction, result)


def test_criterion_07_benefit_reversal(capfd):
    with criterion(capfd, 7, "benefit case: higher threshold, fewer benefits", 1.0):
        spec = scenario_spec("compas_benefit")
        assert spec.action_benefits_subject
        curve = scenario_curve(spec.bins, spec.cells)
        baseline = ThresholdPolicy.uniform(spec.threshold)
        result = equalize(
            curve, baseline, tolerance=1e-9, direction=RAISE_OTHERS
        )
        higher = max(
            curve.groups, key=lambda g: curve.confusion(g, 0.5).base_rate
        )
        assert higher == "black"
        assert result.thresholds[higher] > spec.threshold
        assert result.acted_equalized[higher] < result.acted_baseline[higher]


def test_criterion_08_no_preference_invariance(capfd):
    with criterion(capfd, 8, "individual error risk is group-blind per bin", 1.0):
        for name in SCENARIO_NAMES:
            spec = scenario_spec(name)
            curve = scenario_curve(spec.bins, spec.cells)
            policy = ThresholdPolicy.uniform(spec.threshold)
            by_bin: dict[int, set[float]] = {}
            for (g, b), cell in keyed_cells(curve).items():
                p = cell.positives / cell.count
                risk = individual_error_risk(curve, g, b, policy)
                expected = 1.0 - p if p >= spec.threshold else p
                assert risk == expected
                # Under a uniform policy and shared p_score, risk is exactly
                # equal across groups; collect to verify set size.
                by_bin.setdefault(b, set()).add((round(p, 12), risk))
        # The named grade case: a B-predicted student under threshold 0.5
        # with p_score 0.80 carries a 20% chance of being a false B.
        spec = scenario_spec("section_grades")
        curve = scenario_curve(spec.bins, spec.cells)
        policy = ThresholdPolicy.uniform(spec.threshold)
        b_cells = [
            (g, b) for (g, b), cell in keyed_cells(curve).items()
            if cell.positives / cell.count == 0.80
        ]
        risks = {
            individual_error_risk(curve, g, b, policy) for g, b in b_cells
        }
        assert len(risks) == 1
        assert next(iter(risks)) == pytest.approx(0.20)
        assert {g for g, _b in b_cells} == {"section1", "section2"}


def test_criterion_09_lottery(capfd):
    with criterion(capfd, 9, "certainty-case lottery is group-independent", 1.0):
        result = fair_lottery({"men": 50, "women": 100}, exclusion_quota=30)
        assert result.probability == 0.20
        assert result.per_group == {"men": 0.20, "women": 0.20}
        spec, actuals = scenario_actuals("certainty_lottery")
        assert all(ok for _c, _a, ok in actuals.values())


def test_criterion_10_round_trip(capfd, tmp_path):
    with criterion(capfd, 10, "CSV round trip preserves every group metric", 5.0):
        for name in SCENARIO_NAMES:
            spec = scenario_spec(name)
            path = tmp_path / f"{name}.csv"
            write_csv(path, spec.cells)
            back = ingest_csv(DatasetConfig(path=str(path), bins=spec.bins))
            policy = ThresholdPolicy.uniform(spec.threshold)
            curve = scenario_curve(spec.bins, spec.cells)
            for g in curve.groups:
                t = policy.threshold_for(g)
                assert curve.confusion(g, t) == back.confusion(g, t)
            # Permutation invariance: shuffle the rows on disk and re-ingest.
            lines = path.read_text().splitlines()
            header, rows = lines[0], lines[1:]
            random.Random(7).shuffle(rows)
            path.write_text("\n".join([header] + rows) + "\n")
            shuffled = ingest_csv(DatasetConfig(path=str(path), bins=spec.bins))
            for g in curve.groups:
                t = policy.threshold_for(g)
                assert curve.confusion(g, t) == shuffled.confusion(g, t)
