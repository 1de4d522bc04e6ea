import pytest
from hypothesis import given, settings, strategies as st

from conftest import cell_counts, keyed_cells, records, tally
from fairaudit import (
    AuditError,
    SCENARIO_NAMES,
    SYMMETRIC_VALUES,
    BinScheme,
    ThresholdPolicy,
    ValidationError,
    calibration_gap,
    check_scenario,
    scenario_curve,
    scenario_spec,
)
from fairaudit import fixtures
from fairaudit.cli import EXIT_OK, _base_report, main, scenario_report
from fairaudit.scenarios import Check, scenario_figure
from reference import curve_from_counts
from synthetic import calibrated_cells


class TestNamedScenarios:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_all_checks_pass(self, name):
        spec = scenario_spec(name)
        results = check_scenario(scenario_report(name), spec)
        assert len(results) == len(spec.checks)
        failures = [
            f"{r['label']}: expected {r['expected']}, got {r['actual']}"
            for r in results
            if not r["passed"]
        ]
        assert not failures, "; ".join(failures)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_curve_and_equalization_computed_once(
        self, name, monkeypatch, capsys
    ):
        import fairaudit.cli
        import fairaudit.ingest
        import fairaudit.metrics
        import fairaudit.scenarios

        calls = {"curve_from_tallies": 0, "equalize_fpr": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        modules = (fairaudit.cli, fairaudit.ingest, fairaudit.metrics,
                   fairaudit.scenarios)
        for module in modules:
            for key in calls:
                if hasattr(module, key):
                    monkeypatch.setattr(
                        module, key, counting(key, getattr(module, key))
                    )
        assert main(["scenario", name, "--format", "json"]) == EXIT_OK
        assert calls == {"curve_from_tallies": 1, "equalize_fpr": 1}

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_direct_curve_equals_the_binned_population(self, name):
        spec = scenario_spec(name)
        assert cell_counts(scenario_curve(spec.bins, spec.cells)) == tally(
            spec.bins, records(spec.cells)
        )

    def test_checks_read_the_report_not_a_recomputation(self):
        report = scenario_report("stride_height")
        spec = scenario_spec("stride_height")
        men = report.groups["men"]
        doctored = report._replace(
            groups={**report.groups, "men": men._replace(tp=161)},
        )
        results = {
            r["label"]: (r["actual"], r["passed"])
            for r in check_scenario(doctored, spec)
        }
        assert results["tp:men"] == (161.0, False)
        assert all(ok for label, (_a, ok) in results.items() if label != "tp:men")

    @pytest.mark.parametrize(
        "label, section",
        [
            ("equalized_threshold:black", "equalization"),
            ("lottery_probability:black", "lottery"),
            ("fpr:nobody", "groups"),
            ("p:99:black", "calibration"),
            ("equiv_threshold:nobody", "calibration"),
        ],
    )
    def test_check_reading_a_missing_section_names_it(self, label, section):
        report = scenario_report("compas_benefit")._replace(equalization=None)
        spec = scenario_spec("compas_benefit")._replace(
            checks=(Check(label, 0.0),)
        )
        with pytest.raises(AuditError, match=section):
            check_scenario(report, spec)

    def test_unknown_scenario(self):
        with pytest.raises(AuditError, match="unknown scenario"):
            scenario_spec("trolley_problem")

    def test_specs_are_one_table_keyed_by_name(self):
        assert tuple(fixtures.SPECS) == SCENARIO_NAMES
        for name, spec in fixtures.SPECS.items():
            assert spec.name == name
            assert scenario_spec(name) is spec

    def test_building_is_deterministic(self):
        a, b = (scenario_spec("compas_synthetic") for _ in range(2))
        assert a == b
        assert scenario_curve(a.bins, a.cells) == scenario_curve(b.bins, b.cells)


@settings(deadline=None)
@given(st.data())
def test_equiv_threshold_is_the_smallest_acted_p_score(data):
    # Each group's threshold equals one of its p_scores, falls below or
    # between two of them, or exceeds them all.
    counts = data.draw(st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(0, 5),
                  st.integers(0, 4), st.integers(0, 4)),
        min_size=1, max_size=20,
    ), label="counts")
    counts += [("a", 0, 1, 1), ("b", 5, 0, 1)]
    curve = curve_from_counts(BinScheme(edges=tuple(range(7))), counts)
    p_scores = {
        g: [cell.positives / cell.count
            for (group, _b), cell in keyed_cells(curve).items() if group == g]
        for g in curve.groups
    }
    thresholds = {}
    for g, ps in p_scores.items():
        edges = sorted({0.0, *ps, 1.0})
        choices = [st.sampled_from(ps)] + [
            st.floats(lo, hi, exclude_min=lo in ps, exclude_max=hi in ps)
            for lo, hi in zip(edges, edges[1:])
        ]
        thresholds[g] = data.draw(st.one_of(choices), label=f"threshold {g}")
    report = _base_report(
        curve, False, ThresholdPolicy.per_group(thresholds), SYMMETRIC_VALUES,
        True, 1e-9, [],
    )
    for g, t in thresholds.items():
        acted = [p for p in p_scores[g] if p >= t]
        if acted:
            assert scenario_figure(report, f"equiv_threshold:{g}") == min(acted)
        else:
            with pytest.raises(AuditError, match="no acted bins"):
                scenario_figure(report, f"equiv_threshold:{g}")


# (n_per_group, bins, base_rate_a, base_rate_b), all feasible.
CALIBRATED_CASES = (
    (600, 4, 0.55, 0.35),
    (400, 3, 0.6, 0.4),
    (900, 2, 0.5, 0.45),
    (1200, 5, 0.65, 0.3),
    (700, 6, 0.7, 0.25),
)


class TestRandomCalibratedPopulation:
    """calibrated_cells over concrete and randomly drawn inputs."""

    @pytest.mark.parametrize("case", range(len(CALIBRATED_CASES)))
    def test_exactly_calibrated(self, case):
        curve = scenario_curve(*calibrated_cells(*CALIBRATED_CASES[case]))
        assert calibration_gap(curve, "a", "b") == 0.0

    @pytest.mark.parametrize("case", range(len(CALIBRATED_CASES)))
    def test_base_rates_within_one_record(self, case):
        n, _, rate_a, rate_b = CALIBRATED_CASES[case]
        curve = scenario_curve(*calibrated_cells(*CALIBRATED_CASES[case]))
        assert abs(curve.confusion("a", 0.5).base_rate - rate_a) <= 1.0 / n
        assert abs(curve.confusion("b", 0.5).base_rate - rate_b) <= 1.0 / n

    def test_bin_positive_fractions_are_exact(self):
        bins, cells = calibrated_cells(
            n_per_group=400, bins=3, base_rate_a=0.6, base_rate_b=0.4
        )
        curve = scenario_curve(bins, cells)
        for (g, b), cell in keyed_cells(curve).items():
            # Each bin is built from whole units of bins+1 records.
            assert cell.count % 4 == 0
            assert cell.positives * 4 == cell.count * (b + 1), (g, b, cell)

    def test_rejects_indivisible_population_size(self):
        with pytest.raises(ValidationError, match="multiple of 4"):
            calibrated_cells(
                n_per_group=401, bins=3, base_rate_a=0.6, base_rate_b=0.4
            )

    def test_rejects_infeasible_base_rate(self):
        with pytest.raises(ValidationError, match="infeasible"):
            calibrated_cells(
                n_per_group=400, bins=3, base_rate_a=0.99, base_rate_b=0.4
            )

    @settings(deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(1, 120),
        st.one_of(st.just(0), st.integers(1, 6)),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_counts_are_exact_or_the_input_is_rejected(
        self, n_bins, units, extra, rate_a, rate_b
    ):
        n = units * (n_bins + 1) + extra
        # Each bin holds whole units of n_bins + 1 records, bin j (from 1)
        # j positives per unit, and every bin holds at least one unit: so
        # n must divide into units, at least n_bins of them, and a group's
        # positives lie between all spare units in bin 1 and all in bin B.
        fixed = n_bins * (n_bins + 1) // 2
        spare = n // (n_bins + 1) - n_bins
        feasible = n % (n_bins + 1) == 0 and spare >= 0 and all(
            fixed + spare <= round(rate * n) <= fixed + spare * n_bins
            for rate in (rate_a, rate_b)
        )
        if not feasible:
            with pytest.raises(ValidationError):
                calibrated_cells(n, n_bins, rate_a, rate_b)
            return
        bins, cells = calibrated_cells(n, n_bins, rate_a, rate_b)
        curve = scenario_curve(bins, cells)
        assert curve.groups == ("a", "b")
        assert bins.n_bins == n_bins and (bins.edges[0], bins.edges[-1]) == (0.0, 1.0)
        for g, rate in (("a", rate_a), ("b", rate_b)):
            cell_bins, counts, positives = curve.by_group[g]
            assert cell_bins == tuple(range(n_bins))
            for b, (count, pos) in enumerate(zip(counts, positives)):
                assert pos * (n_bins + 1) == count * (b + 1)
            cm = curve.confusion(g, 0.5)
            assert cm.n == n
            assert abs(cm.base_rate - rate) <= 1 / n
        assert calibration_gap(curve, "a", "b") == 0.0
