"""fairaudit: group-fairness auditing for scored binary-outcome populations.

Computes calibration and error-rate metrics per group, derives decision
thresholds from a four-outcome value profile, and demonstrates on exact
fixtures that calibration plus unequal base rates forces unequal false
positive rates, and that equalizing them costs expected value.
"""

__version__ = "0.1.0"

#: Each public name -> the submodule that defines it. Importing the package
#: loads no submodule; ``from fairaudit import X`` imports X's on first use.
_EXPORTS = {
    name: module
    for module, names in (
        ("domain", "AuditError BinScheme ConfusionMatrix OutcomeValues "
                   "SYMMETRIC_VALUES ThresholdPolicy ValidationError"),
        ("metrics", "CalibrationCurve calibration_gap "
                    "chance_miscalibration_bound curve_from_counts"),
        ("decision", "DecisionEV PolicyAssessment expected_values "
                     "optimal_threshold policy_expected_disvalue"),
        ("parity", "EqualizationResult ImpossibilityVerdict LOWER_OTHERS "
                   "RAISE_OTHERS equalize_fpr fair_lottery "
                   "impossibility_check individual_error_risk"),
        ("scenarios", "SCENARIO_NAMES ScenarioSpec check_scenario "
                      "scenario_curve scenario_spec"),
        ("synthetic", "calibrated_cells"),
        ("ingest", "DatasetConfig IngestError ingest_csv"),
    )
    for name in names.split()
}
__all__ = [*_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_EXPORTS[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
