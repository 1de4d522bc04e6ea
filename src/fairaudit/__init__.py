"""fairaudit: group-fairness auditing for scored binary-outcome populations.

Computes calibration and error-rate metrics per group, derives decision
thresholds from a four-outcome value profile, and demonstrates on exact
fixtures that calibration plus unequal base rates forces unequal false
positive rates, and that equalizing them costs expected value.
"""

__version__ = "0.1.0"

from .domain import (  # noqa: F401
    AuditError,
    BinScheme,
    ConfusionMatrix,
    OutcomeValues,
    SYMMETRIC_VALUES,
    ThresholdPolicy,
    ValidationError,
)
from .metrics import (  # noqa: F401
    CalibrationCurve,
    calibration_gap,
    chance_miscalibration_bound,
    curve_from_counts,
)
from .decision import (  # noqa: F401
    DecisionEV,
    PolicyAssessment,
    expected_values,
    optimal_threshold,
    policy_expected_disvalue,
)
from .parity import (  # noqa: F401
    EqualizationResult,
    ImpossibilityVerdict,
    LOWER_OTHERS,
    RAISE_OTHERS,
    equalize_fpr,
    fair_lottery,
    impossibility_check,
    individual_error_risk,
)
from .scenarios import (  # noqa: F401
    SCENARIO_NAMES,
    ScenarioSpec,
    calibrated_cells,
    check_scenario,
    scenario_curve,
    scenario_spec,
)
from .ingest import (  # noqa: F401
    DatasetConfig,
    IngestError,
    ingest_csv,
)
