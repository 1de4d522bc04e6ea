"""Core data types: bin schemes, confusion matrices, outcome values and
threshold policies.

Everything here is an immutable value object that enforces its own
invariants at construction.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence


class AuditError(Exception):
    """Base class for every error this library raises deliberately."""


class ValidationError(AuditError):
    """A dataset, bin scheme, or policy violates a structural invariant."""


@dataclass(frozen=True)
class BinScheme:
    """Ordered, contiguous partition of the score range into half-open
    intervals [lo, hi); the last bin is closed on top.

    ``edges`` has length ``n_bins + 1``. ``labels``, when given, has one
    label per bin. Reports key a group's cells by bin label, so no two bins
    may share one.
    """

    edges: tuple[float, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.edges) < 3:
            raise ValidationError("a bin scheme needs at least 2 bins")
        if any(not b > a for a, b in zip(self.edges, self.edges[1:])):
            raise ValidationError("bin edges must be strictly increasing")
        if self.labels is not None and len(self.labels) != self.n_bins:
            raise ValidationError(
                f"expected {self.n_bins} bin labels, got {len(self.labels)}"
            )
        seen: set[str] = set()
        for label in map(self.label, range(self.n_bins)):
            if label in seen:
                raise ValidationError(f"bin label {label!r} names two bins")
            seen.add(label)

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    @property
    def lo(self) -> float:
        return self.edges[0]

    @property
    def hi(self) -> float:
        return self.edges[-1]

    def label(self, index: int) -> str:
        if self.labels is not None:
            return self.labels[index]
        return f"[{self.edges[index]:g},{self.edges[index + 1]:g})"

    def bin_of(self, score: float) -> int:
        """Index of the unique bin containing ``score``.

        Raises ValidationError for scores outside [lo, hi]. The top edge
        belongs to the last bin.
        """
        edges = self.edges
        if not (edges[0] <= score <= edges[-1]):
            raise ValidationError(
                f"score {score!r} outside declared range "
                f"[{edges[0]}, {edges[-1]}]"
            )
        # Searching edges[:-1] puts the top edge in the last bin.
        return bisect_right(edges, score, 0, len(edges) - 1) - 1


@dataclass(frozen=True)
class ConfusionMatrix:
    """Four-outcome counts for one group under one policy, and the rates
    formed from them.

    A rate with an empty denominator is ``None``, never 0.0 or NaN: in small
    fixtures an outcome class can be genuinely absent and that is
    information, not an error.
    """

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} count is negative")

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def acted(self) -> int:
        return self.tp + self.fp

    @property
    def base_rate(self) -> float:
        """Positive-outcome fraction, whatever the policy: (tp + fn) / n."""
        return (self.tp + self.fn) / self.n

    @property
    def fpr(self) -> float | None:
        """fp / (fp + tn); None when the group has no negatives."""
        denom = self.fp + self.tn
        return self.fp / denom if denom else None

    @property
    def fnr(self) -> float | None:
        """fn / (fn + tp); None when the group has no positives."""
        denom = self.fn + self.tp
        return self.fn / denom if denom else None

    @property
    def ppv(self) -> float | None:
        """tp / (tp + fp); None when nothing was acted on."""
        return self.tp / self.acted if self.acted else None


@dataclass(frozen=True)
class OutcomeValues:
    """Utilities of the four decision outcomes, in dimensionless value units.

    A well-posed interior threshold requires acting to be strictly better on
    positives (v_tp > v_fn) and refraining strictly better on negatives
    (v_tn > v_fp).
    """

    v_tp: float
    v_fp: float
    v_tn: float
    v_fn: float

    def __post_init__(self) -> None:
        for name in ("v_tp", "v_fp", "v_tn", "v_fn"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(
                    f"{name} must be finite, got {getattr(self, name)!r}"
                )
        if not self.v_tn > self.v_fp:
            raise ValidationError(
                f"need v_tn > v_fp, got v_tn={self.v_tn} v_fp={self.v_fp}"
            )
        if not self.v_tp > self.v_fn:
            raise ValidationError(
                f"need v_tp > v_fn, got v_tp={self.v_tp} v_fn={self.v_fn}"
            )

    def value_of(self, cm: ConfusionMatrix) -> float:
        """Value of the decisions a confusion matrix counts, which is linear
        in its four counts. The best value over a group's cells is the value
        at p* (:func:`~fairaudit.decision.optimal_threshold`)."""
        return (cm.tp * self.v_tp + cm.fp * self.v_fp
                + cm.tn * self.v_tn + cm.fn * self.v_fn)


#: Symmetric default: every correct decision worth 1, every error worth 0.
SYMMETRIC_VALUES = OutcomeValues(v_tp=1.0, v_fp=0.0, v_tn=1.0, v_fn=0.0)


@dataclass(frozen=True)
class ThresholdPolicy:
    """Uniform or per-group probability threshold.

    Decisions compare the bin p_score against the group's threshold with >=
    (ties resolve toward acting).
    """

    _uniform: float | None = None
    _per_group: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        thresholds = list(self._per_group.values())
        if self._uniform is not None:
            thresholds.append(self._uniform)
        if self._uniform is None and not self._per_group:
            raise ValidationError("policy must set a uniform or per-group threshold")
        for t in thresholds:
            if not 0.0 <= t <= 1.0:
                raise ValidationError(f"threshold {t!r} outside [0, 1]")

    @classmethod
    def uniform(cls, threshold: float) -> "ThresholdPolicy":
        return cls(_uniform=threshold)

    @classmethod
    def per_group(cls, thresholds: Mapping[str, float]) -> "ThresholdPolicy":
        return cls(_per_group=dict(thresholds))

    @property
    def is_uniform(self) -> bool:
        return self._uniform is not None and not self._per_group

    def threshold_for(self, group: str) -> float:
        if group in self._per_group:
            return self._per_group[group]
        if self._uniform is not None:
            return self._uniform
        raise ValidationError(f"policy has no threshold for group {group!r}")

    def covers(self, groups: Sequence[str]) -> bool:
        if self._uniform is not None:
            return True
        return all(g in self._per_group for g in groups)

    def thresholds(self, groups: Sequence[str]) -> dict[str, float]:
        return {g: self.threshold_for(g) for g in groups}
