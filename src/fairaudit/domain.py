"""Core data types: bin schemes, confusion matrices, outcome values and
threshold policies.

Everything here is an immutable value object that enforces its own
invariants at construction.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Mapping, Sequence

# Sets a field of a frozen value object, in its __init__ only.
_set = object.__setattr__


class AuditError(Exception):
    """Base class for every error this library raises deliberately."""


class ValidationError(AuditError):
    """A dataset, bin scheme, or policy violates a structural invariant."""


class ValueObject:
    """Base of the value objects that validate or cache: immutable, equal
    and hashed by the fields named in ``_fields``, each set once by the
    subclass's ``__init__``.

    The plain records elsewhere are ``typing.NamedTuple`` classes; ``_replace``
    and ``_asdict`` are spelled as theirs, so every value object is copied
    the same way, and a copy is validated again like a new instance.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes: Any):
        return type(self)(**{**self._asdict(), **changes})

    def __reduce__(self):
        # copy and pickle rebuild through __init__: they cannot set fields
        # one by one, and the rebuilt object is validated again.
        return type(self), self._astuple()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in self._asdict().items()
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BinScheme(ValueObject):
    """Ordered, contiguous partition of the score range into half-open
    intervals [lo, hi); the last bin is closed on top.

    ``edges`` has length ``n_bins + 1``. ``labels``, when given, has one
    label per bin. Reports key a group's cells by bin label, so no two bins
    may share one.
    """

    __slots__ = _fields = ("edges", "labels")
    edges: tuple[float, ...]
    labels: tuple[str, ...] | None

    def __init__(
        self, edges: tuple[float, ...], labels: tuple[str, ...] | None = None
    ) -> None:
        _set(self, "edges", edges)
        _set(self, "labels", labels)
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


class ConfusionMatrix(ValueObject):
    """Four-outcome counts for one group under one policy, and the rates
    formed from them.

    A rate with an empty denominator is ``None``, never 0.0 or NaN: in small
    fixtures an outcome class can be genuinely absent and that is
    information, not an error.
    """

    __slots__ = _fields = ("tp", "fp", "tn", "fn")
    tp: int
    fp: int
    tn: int
    fn: int

    def __init__(self, tp: int, fp: int, tn: int, fn: int) -> None:
        # Each threshold sweep builds one matrix per cut point, so the
        # common case is tested without building the named pairs.
        if tp < 0 or fp < 0 or tn < 0 or fn < 0:
            for name, count in zip(self._fields, (tp, fp, tn, fn)):
                if count < 0:
                    raise ValidationError(f"{name} count is negative")
        _set(self, "tp", tp)
        _set(self, "fp", fp)
        _set(self, "tn", tn)
        _set(self, "fn", fn)

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


class OutcomeValues(ValueObject):
    """Utilities of the four decision outcomes, in dimensionless value units.

    A well-posed interior threshold requires acting to be strictly better on
    positives (v_tp > v_fn) and refraining strictly better on negatives
    (v_tn > v_fp).
    """

    __slots__ = _fields = ("v_tp", "v_fp", "v_tn", "v_fn")
    v_tp: float
    v_fp: float
    v_tn: float
    v_fn: float

    def __init__(
        self, v_tp: float, v_fp: float, v_tn: float, v_fn: float
    ) -> None:
        for name, value in zip(self._fields, (v_tp, v_fp, v_tn, v_fn)):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
            _set(self, name, value)
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


class ThresholdPolicy(ValueObject):
    """Uniform or per-group probability threshold.

    Decisions compare the bin p_score against the group's threshold with >=
    (ties resolve toward acting).
    """

    __slots__ = _fields = ("_uniform", "_per_group")
    _uniform: float | None
    _per_group: Mapping[str, float]

    def __init__(
        self,
        _uniform: float | None = None,
        _per_group: Mapping[str, float] | None = None,
    ) -> None:
        _set(self, "_uniform", _uniform)
        _set(self, "_per_group", {} if _per_group is None else _per_group)
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
