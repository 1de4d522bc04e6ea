"""CSV ingestion and export for scored-population datasets.

Input is comma-delimited UTF-8 with a header row; outcomes are encoded 0/1
(1 = the predicted property occurred). Ingest is fail-fast: a row that does
not parse aborts with its row number, because silently dropping rows would
corrupt base rates.
"""
from __future__ import annotations

import codecs
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


#: The two outcome encodings; a lookup here is also the 0/1 check.
_OUTCOMES = {"0": OutcomeLabel.NEGATIVE, "1": OutcomeLabel.POSITIVE}


def ingest_csv(config: DatasetConfig) -> Population:
    """Load and validate a delimited dataset into a Population.

    A leading byte-order mark is ignored and blank lines are skipped. Every
    other row must have as many fields as the header. Errors name the row by
    the file line it ends on.
    """
    path = Path(config.path)
    if not path.is_file():
        raise IngestError(f"no such file: {config.path}")
    records: list[Record] = []
    first_row: dict[str, int] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            # The last of two equal column names wins, as in csv.DictReader.
            position = {name: i for i, name in enumerate(header)}
            for col in (config.id_col, config.group_col, config.score_col,
                        config.outcome_col):
                if col not in position:
                    raise IngestError(
                        f"missing column {col!r}; file has {header}"
                    )
            id_at = position[config.id_col]
            group_at = position[config.group_col]
            score_at = position[config.score_col]
            outcome_at = position[config.outcome_col]
            width = len(header)
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise IngestError(
                        f"row {reader.line_num}: {len(row)} fields, "
                        f"header has {width}"
                    )
                raw_score = row[score_at]
                try:
                    score = float(raw_score)
                except ValueError:
                    raise IngestError(
                        f"row {reader.line_num}: unparseable score "
                        f"{raw_score!r}"
                    ) from None
                if not math.isfinite(score):
                    raise IngestError(
                        f"row {reader.line_num}: score must be finite, got "
                        f"{raw_score!r}"
                    )
                raw_outcome = row[outcome_at].strip()
                outcome = _OUTCOMES.get(raw_outcome)
                if outcome is None:
                    raise IngestError(
                        f"row {reader.line_num}: outcome must be 0 or 1, "
                        f"got {raw_outcome!r}"
                    )
                record_id = row[id_at]
                first = first_row.setdefault(record_id, reader.line_num)
                if first != reader.line_num:
                    raise IngestError(
                        f"row {reader.line_num}: duplicate id {record_id!r} "
                        f"(first on row {first})"
                    )
                records.append(
                    Record(record_id, row[group_at], score, outcome)
                )
    except UnicodeDecodeError as exc:
        raise IngestError(
            f"{config.path}: row {_undecodable_line(path)}: not UTF-8 "
            f"({exc.reason})"
        ) from None
    except csv.Error as exc:
        raise IngestError(
            f"{config.path}: row {reader.line_num}: {exc}"
        ) from None
    if not records:
        raise IngestError(f"{config.path}: no data rows")
    return validate_population(
        records, config.bins, config.action_benefits_subject
    )


def _undecodable_line(path: Path) -> int:
    """File line of the first byte that is not UTF-8. Lines end at LF, CR
    or CRLF, as they do for the csv reader."""
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    head = data
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


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
