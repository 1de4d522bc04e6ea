import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from fairaudit import (
    BinScheme,
    ConfusionMatrix,
    OutcomeValues,
    ThresholdPolicy,
    ValidationError,
    curve_from_counts,
)
from fairaudit.cli import scenario_report
from fairaudit.decision import DecisionEV, GroupAssessment, PolicyAssessment
from fairaudit.ingest import DatasetConfig
from fairaudit.metrics import CurveCell
from fairaudit.parity import EqualizationResult, ImpossibilityVerdict, LotteryResult
from fairaudit.report import ScenarioSection
from fairaudit.scenarios import Check, scenario_spec

COMPAS_BINS = BinScheme(edges=(1.0, 5.0, 10.0), labels=("low", "high"))


class TestBinScheme:
    def test_compas_low_high_boundary(self):
        assert COMPAS_BINS.label(COMPAS_BINS.bin_of(4)) == "low"
        assert COMPAS_BINS.label(COMPAS_BINS.bin_of(5)) == "high"

    def test_range_minimum_in_first_bin(self):
        assert COMPAS_BINS.bin_of(1) == 0

    def test_top_edge_belongs_to_last_bin(self):
        assert COMPAS_BINS.bin_of(10) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            COMPAS_BINS.bin_of(11)
        with pytest.raises(ValidationError):
            COMPAS_BINS.bin_of(0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="outside declared range"):
            COMPAS_BINS.bin_of(float("nan"))

    def test_needs_two_bins(self):
        with pytest.raises(ValidationError):
            BinScheme(edges=(0.0, 1.0))

    def test_nonincreasing_edges_rejected(self):
        nan = float("nan")
        for edges in ((0.0, 1.0, 1.0), (nan, 1.0, 2.0), (0.0, nan, 2.0)):
            with pytest.raises(ValidationError):
                BinScheme(edges=edges)

    @given(st.floats(min_value=1.0, max_value=10.0, allow_nan=False))
    def test_every_score_in_exactly_one_bin(self, score):
        scheme = BinScheme(edges=(1.0, 3.0, 5.0, 10.0))
        index = scheme.bin_of(score)
        hits = [
            b
            for b in range(scheme.n_bins)
            if (scheme.edges[b] <= score < scheme.edges[b + 1])
            or (b == scheme.n_bins - 1 and score == scheme.hi)
        ]
        assert hits == [index]


class TestValidatePopulation:
    """The structural checks on a whole dataset, which every curve passes:
    curve_from_counts holds the two-group rule. The per-row checks (empty
    group, out-of-range or nan score) are ingest's, tested in test_ingest."""

    def test_minimal_passing_input(self):
        curve = curve_from_counts(
            COMPAS_BINS, [("a", 0, 0, 1), ("a", 1, 0, 1), ("b", 1, 1, 0)]
        )
        assert curve.groups == ("a", "b")
        assert sum(
            cell.count for cells in curve.by_group.values() for cell in cells
        ) == 3

    def test_single_group_rejected(self):
        # A group whose entries sum to no records is no group.
        for counts in ([("a", 0, 0, 1), ("a", 1, 0, 1)],
                       [("a", 0, 0, 1), ("b", 1, 0, 0)]):
            with pytest.raises(ValidationError, match="need at least 2 groups"):
                curve_from_counts(COMPAS_BINS, counts)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="need at least 2 groups"):
            curve_from_counts(COMPAS_BINS, [])


class TestPolicy:
    def test_uniform_covers_everything(self):
        policy = ThresholdPolicy.uniform(0.5)
        assert policy.threshold_for("anything") == 0.5
        assert policy.covers(["x", "y"])

    def test_per_group_must_cover(self):
        policy = ThresholdPolicy.per_group({"a": 0.2})
        assert not policy.covers(["a", "b"])
        with pytest.raises(ValidationError):
            policy.threshold_for("b")

    def test_threshold_range_enforced(self):
        with pytest.raises(ValidationError):
            ThresholdPolicy.uniform(1.5)
        with pytest.raises(ValidationError):
            ThresholdPolicy.per_group({"a": -0.1})


class TestOutcomeValues:
    def test_inverted_preferences_rejected(self):
        with pytest.raises(ValidationError):
            OutcomeValues(v_tp=0, v_fp=1, v_tn=0, v_fn=1)
        with pytest.raises(ValidationError):
            OutcomeValues(v_tp=1, v_fp=0, v_tn=0, v_fn=0)

    @pytest.mark.parametrize("field", ["v_tp", "v_fp", "v_tn", "v_fn"])
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_value_rejected_by_name(self, field, bad):
        kwargs = dict(v_tp=1.0, v_fp=0.0, v_tn=1.0, v_fn=0.0)
        kwargs[field] = bad
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            OutcomeValues(**kwargs)

    def test_value_is_linear_in_the_confusion_counts(self):
        values = OutcomeValues(v_tp=2, v_fp=-1, v_tn=3, v_fn=0)
        cm = ConfusionMatrix(tp=5, fp=7, tn=11, fn=13)
        assert values.value_of(cm) == 5 * 2 + 7 * -1 + 11 * 3 + 13 * 0


class TestConfusionMatrix:
    def test_base_rate_counts_positives_whatever_the_decision(self):
        assert ConfusionMatrix(tp=3, fp=1, tn=4, fn=2).base_rate == 5 / 10


def _assessment():
    return GroupAssessment(
        n=10, acted=4, refrained=6, expected_value=7.0, best_expected_value=8.0,
    )


#: (factory, a field, invalid copy changes or None, error message) for every
#: value class; the factory builds a fresh instance from equal fields on
#: each call.
VALUE_OBJECTS = [
    (lambda: BinScheme(edges=(0.0, 1.0, 2.0), labels=("lo", "hi")),
     "edges", {"labels": ("lo", "lo")}, "bin label 'lo' names two bins"),
    (lambda: ConfusionMatrix(1, 2, 3, 4),
     "tp", {"fp": -1}, "fp count is negative"),
    (lambda: OutcomeValues(v_tp=1.0, v_fp=0.0, v_tn=1.0, v_fn=0.0),
     "v_tp", {"v_fp": 2.0}, "need v_tn > v_fp"),
    (lambda: ThresholdPolicy.per_group({"a": 0.5}),
     "_per_group", {"_uniform": 1.5}, r"threshold 1.5 outside \[0, 1\]"),
    (lambda: CurveCell(bin=0, count=4, positives=1), "count", None, None),
    (lambda: curve_from_counts(
        BinScheme(edges=(0.0, 1.0, 2.0)), [("a", 0, 1, 1), ("b", 1, 2, 0)],
    ), "by_group", None, None),
    (lambda: DecisionEV(ev_act=0.25, ev_refrain=0.75), "ev_act", None, None),
    (_assessment, "acted", None, None),
    (lambda: PolicyAssessment(per_group={"a": _assessment()}),
     "per_group", None, None),
    (lambda: EqualizationResult(
        thresholds={"a": 0.5}, fprs={"a": 0.1}, baseline_fprs={"a": 0.2},
        residual_gap=0.0, exact=True, disvalue_delta=1.0,
        acted_baseline={"a": 3}, acted_equalized={"a": 4},
        reference_group="a",
    ), "exact", None, None),
    (lambda: ImpossibilityVerdict(
        calibrated=True, calibration_gap=0.0, base_rates={"a": 0.5},
        fprs={"a": 0.1}, higher_base_rate_group="a", applicable=True,
        ordering_holds=True,
    ), "applicable", None, None),
    (lambda: LotteryResult(per_group={"a": 0.5}, probability=0.5),
     "probability", None, None),
    (lambda: ScenarioSection(name="s", description="d", checks=[], passed=True),
     "passed", None, None),
    (lambda: scenario_report("stride_height"), "notes", None, None),
    (lambda: Check("fpr:a", 0.5), "expected", None, None),
    (lambda: scenario_spec("stride_height"), "threshold", None, None),
    (lambda: DatasetConfig(path="x.csv", bins=COMPAS_BINS), "path", None, None),
]
CLASS_NAMES = [type(row[0]()).__name__ for row in VALUE_OBJECTS]
#: Plain records with a dict or list field: like any tuple holding one, they
#: cannot be hashed.
UNHASHABLE = {
    "PolicyAssessment", "EqualizationResult", "ImpossibilityVerdict",
    "LotteryResult", "ScenarioSection", "AuditReport",
}


class TestValueObjects:
    """Every value object is immutable, equal by value, hashed by value
    unless a field is a plain record's dict or list, and validated again
    when copied with changed fields."""

    @pytest.mark.parametrize(
        "make, field", [row[:2] for row in VALUE_OBJECTS], ids=CLASS_NAMES
    )
    def test_assignment_raises(self, make, field):
        obj = make()
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            obj.not_a_field = 1

    @pytest.mark.parametrize(
        "make", [row[0] for row in VALUE_OBJECTS], ids=CLASS_NAMES
    )
    def test_equal_fields_compare_equal(self, make):
        assert make() == make()

    @pytest.mark.parametrize(
        "make", [row[0] for row in VALUE_OBJECTS], ids=CLASS_NAMES
    )
    def test_equal_fields_hash_equal(self, make):
        obj = make()
        if type(obj).__name__ in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable type"):
                hash(obj)
        else:
            assert hash(obj) == hash(make())

    def test_mapping_fields_hash_whatever_their_order(self):
        # Mappings compare equal in any order, so they must hash so too.
        assert hash(ThresholdPolicy.per_group({"a": 0.5, "b": 0.25})) == hash(
            ThresholdPolicy.per_group({"b": 0.25, "a": 0.5})
        )
        curve = curve_from_counts(
            COMPAS_BINS, [("a", 0, 1, 1), ("b", 1, 2, 0)]
        )
        reordered = curve._replace(by_group=dict(reversed(
            curve.by_group.items()
        )))
        assert list(reordered.by_group) == ["b", "a"]
        assert reordered == curve
        assert hash(reordered) == hash(curve)

    @pytest.mark.parametrize(
        "make", [row[0] for row in VALUE_OBJECTS], ids=CLASS_NAMES
    )
    def test_copies_and_pickles_compare_equal(self, make):
        obj = make()
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj

    @pytest.mark.parametrize("make, changes, message", [
        pytest.param(make, changes, message, id=name)
        for name, (make, _field, changes, message)
        in zip(CLASS_NAMES, VALUE_OBJECTS) if changes
    ])
    def test_invalid_copy_raises(self, make, changes, message):
        with pytest.raises(ValidationError, match=message):
            make()._replace(**changes)
