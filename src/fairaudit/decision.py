"""Expected-value decision theory over the four outcomes.

The decision-maker's credence for a record is identified with the p_score of
its bin; nothing else enters. Ties at the threshold resolve toward acting.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple

from .domain import OutcomeValues, ThresholdPolicy, ValidationError
from .metrics import CalibrationCurve


class DecisionEV(NamedTuple):
    """Expected values of the two available actions at one credence level."""

    ev_act: float
    ev_refrain: float


class GroupAssessment(NamedTuple):
    """One group's decision counts and value sums under a policy.

    Value is linear in the confusion counts, so both sums are
    :meth:`OutcomeValues.value_of` of a confusion matrix: the policy's own
    (``expected_value``) and the one at p* (``best_expected_value``), the
    best any threshold can do (see :func:`policy_expected_disvalue`).
    """

    n: int
    acted: int
    refrained: int
    expected_value: float
    best_expected_value: float

    @property
    def realized_value(self) -> float:
        """In sample this is ``expected_value``: a record's credence is its
        own cell's positive fraction, whose value its records realize."""
        return self.expected_value

    @property
    def expected_disvalue(self) -> float:
        """Expected value forgone relative to deciding each record optimally."""
        return self.best_expected_value - self.expected_value


class PolicyAssessment(NamedTuple):
    """Expected and realized value accounting for one policy, by group."""

    per_group: Mapping[str, GroupAssessment]

    @property
    def total(self) -> GroupAssessment:
        gs = list(self.per_group.values())
        return GroupAssessment(
            n=sum(g.n for g in gs),
            acted=sum(g.acted for g in gs),
            refrained=sum(g.refrained for g in gs),
            expected_value=sum(g.expected_value for g in gs),
            best_expected_value=sum(g.best_expected_value for g in gs),
        )


def expected_values(p: float, values: OutcomeValues) -> DecisionEV:
    """EV of acting and of refraining at credence p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"credence {p!r} outside [0, 1]")
    return DecisionEV(
        ev_act=p * values.v_tp + (1.0 - p) * values.v_fp,
        ev_refrain=(1.0 - p) * values.v_tn + p * values.v_fn,
    )


def optimal_threshold(values: OutcomeValues) -> float:
    """The credence p* at which acting and refraining break even.

    p* = (v_tn - v_fp) / ((v_tn - v_fp) + (v_tp - v_fn)). Acting is strictly
    better in expectation iff p > p*; invariant under positive affine
    transformations of all four values.
    """
    refrain_margin = values.v_tn - values.v_fp
    act_margin = values.v_tp - values.v_fn
    return refrain_margin / (refrain_margin + act_margin)


def policy_expected_disvalue(
    curve: CalibrationCurve,
    policy: ThresholdPolicy,
    values: OutcomeValues,
) -> PolicyAssessment:
    """Expected and realized value of a policy, per group and in total.

    Value is linear in the confusion counts, so a group's value under the
    policy is ``values.value_of`` of its confusion matrix. Acting on a cell
    beats refraining exactly when its p_score is at least p*
    (:func:`optimal_threshold`), so the best value is the value of the
    confusion matrix at p*; the difference from the chosen one is the
    policy's expected disvalue.
    """
    if not policy.covers(curve.groups):
        raise ValidationError("policy does not cover every group")
    p_star = optimal_threshold(values)
    per_group: dict[str, GroupAssessment] = {}
    for g in curve.groups:
        cm = curve.confusion(g, policy.threshold_for(g))
        per_group[g] = GroupAssessment(
            n=cm.n,
            acted=cm.acted,
            refrained=cm.n - cm.acted,
            expected_value=values.value_of(cm),
            best_expected_value=values.value_of(curve.confusion(g, p_star)),
        )
    return PolicyAssessment(per_group=per_group)
