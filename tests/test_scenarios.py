import dataclasses

import pytest

from fairaudit import (
    AuditError,
    SCENARIO_NAMES,
    build_scenario,
    calibration_curve,
    calibration_gap,
    check_scenario,
    random_calibrated_population,
    scenario_curve,
    scenario_spec,
)
from fairaudit.cli import EXIT_OK, main, scenario_report
from fairaudit.scenarios import Check


class TestNamedScenarios:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_all_checks_pass(self, name):
        _pop, spec = build_scenario(name)
        results = check_scenario(scenario_report(name), spec)
        assert len(results) == len(spec.checks)
        failures = [
            f"{c.label}: expected {c.expected}, got {actual}"
            for c, actual, ok in results
            if not ok
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

        calls = {"curve_from_counts": 0, "equalize_fpr": 0}

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
        assert calls == {"curve_from_counts": 1, "equalize_fpr": 1}

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_direct_curve_equals_the_binned_population(self, name):
        population, spec = build_scenario(name)
        assert scenario_curve(scenario_spec(name)) == calibration_curve(population)

    def test_checks_read_the_report_not_a_recomputation(self):
        report = scenario_report("stride_height")
        _pop, spec = build_scenario("stride_height")
        men = report.groups["men"]
        doctored = dataclasses.replace(
            report,
            groups={
                **report.groups,
                "men": dataclasses.replace(men, tp=161),
            },
        )
        results = {c.label: (a, ok) for c, a, ok in check_scenario(doctored, spec)}
        assert results["tp:men"] == (161.0, False)
        assert all(ok for label, (_a, ok) in results.items() if label != "tp:men")

    @pytest.mark.parametrize(
        "label, section",
        [
            ("equalized_threshold:black", "equalization"),
            ("equalize_residual", "equalization"),
            ("lottery_probability:black", "lottery"),
            ("fpr:nobody", "groups"),
            ("p:99:black", "calibration"),
            ("equiv_threshold:nobody", "calibration"),
        ],
    )
    def test_check_reading_a_missing_section_names_it(self, label, section):
        report = dataclasses.replace(
            scenario_report("compas_benefit"), equalization=None
        )
        _pop, spec = build_scenario("compas_benefit")
        spec = dataclasses.replace(spec, checks=(Check(label, 0.0),))
        with pytest.raises(AuditError, match=section):
            check_scenario(report, spec)

    def test_unknown_scenario(self):
        with pytest.raises(AuditError, match="unknown scenario"):
            build_scenario("trolley_problem")

    def test_building_is_deterministic(self):
        a, _ = build_scenario("compas_synthetic")
        b, _ = build_scenario("compas_synthetic")
        assert a.records == b.records


class TestRandomCalibratedPopulation:
    def test_deterministic_given_seed(self):
        kwargs = dict(n_per_group=400, bins=3, base_rate_a=0.6, base_rate_b=0.4)
        assert (
            random_calibrated_population(seed=7, **kwargs).records
            == random_calibrated_population(seed=7, **kwargs).records
        )

    def test_seed_only_permutes_records(self):
        kwargs = dict(n_per_group=400, bins=3, base_rate_a=0.6, base_rate_b=0.4)
        a = random_calibrated_population(seed=1, **kwargs)
        b = random_calibrated_population(seed=2, **kwargs)
        key = lambda r: (r.group, r.score, r.outcome.value, r.id)
        assert sorted(a.records, key=key) == sorted(b.records, key=key)
        assert a.records != b.records

    @pytest.mark.parametrize("seed", range(5))
    def test_exactly_calibrated(self, seed):
        pop = random_calibrated_population(
            seed=seed, n_per_group=600, bins=4, base_rate_a=0.55, base_rate_b=0.35
        )
        curve = calibration_curve(pop)
        assert calibration_gap(curve, "a", "b") == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_base_rates_within_one_record(self, seed):
        n = 600
        pop = random_calibrated_population(
            seed=seed, n_per_group=n, bins=4, base_rate_a=0.55, base_rate_b=0.35
        )
        curve = calibration_curve(pop)
        assert abs(curve.confusion("a", 0.5).base_rate - 0.55) <= 1.0 / n
        assert abs(curve.confusion("b", 0.5).base_rate - 0.35) <= 1.0 / n

    def test_bin_positive_fractions_are_exact(self):
        bins = 3
        pop = random_calibrated_population(
            seed=0, n_per_group=400, bins=bins, base_rate_a=0.6, base_rate_b=0.4
        )
        curve = calibration_curve(pop)
        for g in pop.groups:
            for b in curve.nonempty_bins(g):
                cell = curve.cell(g, b)
                # Each bin is built from whole units of bins+1 records.
                assert cell.count % (bins + 1) == 0
                assert cell.positives * (bins + 1) == cell.count * (b + 1), (
                    g,
                    b,
                    cell,
                )

    def test_rejects_indivisible_population_size(self):
        with pytest.raises(AuditError):
            random_calibrated_population(
                seed=0, n_per_group=401, bins=3, base_rate_a=0.6, base_rate_b=0.4
            )

    def test_rejects_infeasible_base_rate(self):
        with pytest.raises(AuditError):
            random_calibrated_population(
                seed=0, n_per_group=400, bins=3, base_rate_a=0.99, base_rate_b=0.4
            )
