"""Expected-value decision theory over the four outcomes.

The decision-maker's credence for a record is identified with the p_score of
its bin; nothing else enters. Ties at the threshold resolve toward acting.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .domain import (
    Decision,
    OutcomeValues,
    Population,
    ThresholdPolicy,
    ValidationError,
)
from .metrics import CalibrationCurve


@dataclass(frozen=True)
class DecisionEV:
    """Expected values of the two available actions at one credence level."""

    ev_act: float
    ev_refrain: float


@dataclass(frozen=True)
class GroupAssessment:
    """One group's decision counts and value sums under a policy.

    The value sums come from integer cell counts (see
    :func:`policy_expected_disvalue`), so ``expected_value`` equals
    ``realized_value`` in sample.
    """

    n: int
    acted: int
    refrained: int
    expected_value: float
    best_expected_value: float
    realized_value: float

    @property
    def expected_disvalue(self) -> float:
        """Expected value forgone relative to deciding each record optimally."""
        return self.best_expected_value - self.expected_value


@dataclass(frozen=True)
class PolicyAssessment:
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
            realized_value=sum(g.realized_value for g in gs),
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


def apply_policy(
    population: Population,
    policy: ThresholdPolicy,
    curve: CalibrationCurve,
) -> tuple[Decision, ...]:
    """Per-record decisions, parallel to ``population.records``."""
    if not policy.covers(population.groups):
        raise ValidationError("policy does not cover every group")
    decisions = []
    for r in population.records:
        p = curve.p_score(r.group, population.bins.bin_of(r.score))
        t = policy.threshold_for(r.group)
        decisions.append(Decision.ACT if p >= t else Decision.REFRAIN)
    return tuple(decisions)


def policy_expected_disvalue(
    population: Population,
    policy: ThresholdPolicy,
    curve: CalibrationCurve,
    values: OutcomeValues,
) -> PolicyAssessment:
    """Expected and realized value of a policy, per group and in total.

    Summed per curve cell from its integer counts: acting on a cell with
    ``pos`` positives and ``neg`` negatives is worth pos*v_tp + neg*v_fp,
    refraining pos*v_fn + neg*v_tn. That is both the cell's expected value
    at its own p_score and the value its records realize, so in sample
    ``expected_value == realized_value``. ``best_expected_value`` takes the
    better action in every cell; the difference from the chosen one is the
    policy's expected disvalue.
    """
    if not policy.covers(population.groups):
        raise ValidationError("policy does not cover every group")
    per_group: dict[str, GroupAssessment] = {}
    for g in population.groups:
        threshold = policy.threshold_for(g)
        n = acted = 0
        chosen = best = 0.0
        for _b, cell in curve.by_group.get(g, ()):
            pos = cell.positives
            neg = cell.count - pos
            act_value = pos * values.v_tp + neg * values.v_fp
            refrain_value = pos * values.v_fn + neg * values.v_tn
            n += cell.count
            if cell.p_score >= threshold:
                acted += cell.count
                chosen += act_value
            else:
                chosen += refrain_value
            best += max(act_value, refrain_value)
        per_group[g] = GroupAssessment(
            n=n,
            acted=acted,
            refrained=n - acted,
            expected_value=chosen,
            best_expected_value=best,
            realized_value=chosen,
        )
    return PolicyAssessment(per_group=per_group)
