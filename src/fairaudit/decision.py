"""Expected-value decisions over the four outcomes: the optimal threshold
p* of a value profile, and a policy's expected value and disvalue by group,
read off confusion matrices.

The decision-maker's credence for a record is identified with the p_score of
its bin; nothing else enters. Ties at the threshold resolve toward acting.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple

from .domain import (
    ConfusionMatrix,
    OutcomeValues,
    ValidationError,
    finite_value,
)


class GroupAssessment(NamedTuple):
    """One group's decision counts and value sums under a policy.

    Value is linear in the confusion counts, so both sums are
    :meth:`OutcomeValues.value_of` of a confusion matrix: the policy's own
    (``expected_value``) and the one at p* (``best_expected_value``), the
    best any threshold can do (see :func:`policy_expected_disvalue`).
    """

    n: int
    acted: int
    expected_value: float
    best_expected_value: float

    @property
    def refrained(self) -> int:
        """Records not acted on."""
        return self.n - self.acted

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
            expected_value=sum(g.expected_value for g in gs),
            best_expected_value=sum(g.best_expected_value for g in gs),
        )


def optimal_threshold(values: OutcomeValues) -> float:
    """The credence p* at which acting and refraining break even.

    p* = (v_tn - v_fp) / ((v_tn - v_fp) + (v_tp - v_fn)). Acting is strictly
    better in expectation iff p > p*; invariant under positive affine
    transformations of all four values.

    Each value is read as the decimal its float prints as (0.1 as 1/10),
    and p* is formed exactly and rounded once: a cell whose p_score is p*
    then compares equal to it and is acted on, as ties are.
    """
    # Over the smallest of their exponents, the four values are exact
    # integers, and int / int rounds the exact quotient once. (fractions
    # would do the same, at an import and its memory in every process.)
    decimals = [
        printed_decimal(v)
        for v in (values.v_tp, values.v_fp, values.v_tn, values.v_fn)
    ]
    low = min(e for _d, e in decimals)
    v_tp, v_fp, v_tn, v_fn = (d * 10 ** (e - low) for d, e in decimals)
    refrain_margin = v_tn - v_fp
    act_margin = v_tp - v_fn
    return refrain_margin / (refrain_margin + act_margin)


def printed_decimal(x: float) -> tuple[int, int]:
    """(digits, exponent) such that digits * 10**exponent is exactly the
    decimal ``repr`` prints for ``x``, a finite float."""
    mantissa, _, exponent = repr(float(x)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    return int(whole + fraction), int(exponent or 0) - len(fraction)


def policy_expected_disvalue(
    matrices: Mapping[str, ConfusionMatrix],
    best: Mapping[str, ConfusionMatrix],
    values: OutcomeValues,
) -> PolicyAssessment:
    """Expected and realized value of a policy, per group and in total.

    ``matrices`` holds each group's confusion matrix under the policy, and
    ``best`` each group's matrix at p* (:func:`optimal_threshold`). Value
    is linear in the confusion counts, so a group's value under the policy
    is ``values.value_of`` of its matrix. Acting on a cell beats refraining
    exactly when its p_score is at least p*, so the best value is the value
    of the matrix at p*; the difference is the policy's expected disvalue.
    A value sum that is not finite is a ValidationError (see
    :func:`~fairaudit.domain.finite_value`).
    """
    if matrices.keys() != best.keys():
        raise ValidationError("matrices and best name different groups")
    per_group: dict[str, GroupAssessment] = {}
    for g, cm in matrices.items():
        per_group[g] = GroupAssessment(
            n=cm.n,
            acted=cm.acted,
            expected_value=values.value_of(cm),
            best_expected_value=values.value_of(best[g]),
        )
    assessment = PolicyAssessment(per_group=per_group)
    # Each group's value sums are finite (value_of checks them). A
    # difference is finite only if both of its terms are, so checking the
    # disvalues also checks the totals.
    for a in (*per_group.values(), assessment.total):
        finite_value(a.expected_disvalue)
    return assessment
