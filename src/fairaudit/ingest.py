"""CSV ingestion and export for scored-population datasets.

Input is comma-delimited UTF-8 with a header row; outcomes are encoded 0/1
(1 = the predicted property occurred). Ingest is fail-fast: a row that does
not parse aborts with its row number, because silently dropping rows would
corrupt base rates.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .domain import (
    AuditError,
    BinScheme,
    OutcomeLabel,
    Population,
    Record,
    validate_population,
)

EXPORT_HEADER = ("id", "group", "score", "outcome")


class IngestError(AuditError):
    """A dataset file is missing, malformed, or fails validation."""


@dataclass(frozen=True)
class DatasetConfig:
    path: str
    bins: BinScheme
    action_benefits_subject: bool
    id_col: str = "id"
    group_col: str = "group"
    score_col: str = "score"
    outcome_col: str = "outcome"


def ingest_csv(config: DatasetConfig) -> Population:
    """Load and validate a delimited dataset into a Population."""
    path = Path(config.path)
    if not path.is_file():
        raise IngestError(f"no such file: {config.path}")
    records: list[Record] = []
    first_row: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (config.id_col, config.group_col, config.score_col,
                    config.outcome_col):
            if col not in header:
                raise IngestError(
                    f"missing column {col!r}; file has {header}"
                )
        for lineno, row in enumerate(reader, start=2):
            try:
                score = float(row[config.score_col])
            except (TypeError, ValueError):
                raise IngestError(
                    f"row {lineno}: unparseable score "
                    f"{row.get(config.score_col)!r}"
                ) from None
            if not math.isfinite(score):
                raise IngestError(
                    f"row {lineno}: score must be finite, got "
                    f"{row[config.score_col]!r}"
                )
            raw_outcome = (row[config.outcome_col] or "").strip()
            if raw_outcome not in ("0", "1"):
                raise IngestError(
                    f"row {lineno}: outcome must be 0 or 1, got {raw_outcome!r}"
                )
            record_id = row[config.id_col]
            first = first_row.setdefault(record_id, lineno)
            if first != lineno:
                raise IngestError(
                    f"row {lineno}: duplicate id {record_id!r} "
                    f"(first on row {first})"
                )
            records.append(
                Record(
                    id=record_id,
                    group=row[config.group_col],
                    score=score,
                    outcome=OutcomeLabel(int(raw_outcome)),
                )
            )
    if not records:
        raise IngestError(f"{config.path}: no data rows")
    return validate_population(
        records, config.bins, config.action_benefits_subject
    )


def export_csv(population: Population, path: str) -> None:
    """Write the population as id,group,score,outcome rows.

    Scores are written with repr so a round trip through ingest_csv
    reproduces an equal Population.
    """
    if not path:
        raise IngestError("empty export path")
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(EXPORT_HEADER)
            for r in population.records:
                writer.writerow(
                    (r.id, r.group, repr(r.score), int(r.outcome.is_positive))
                )
    except OSError as exc:
        raise IngestError(f"cannot write {path!r}: {exc}") from exc
