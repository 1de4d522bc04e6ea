"""CSV ingestion and export for scored-population datasets.

Input is comma-delimited UTF-8 with a header row; outcomes are encoded 0/1
(1 = the predicted property occurred). Ingest is fail-fast: a row that does
not parse aborts with its row number, because silently dropping rows would
corrupt base rates. One row parser runs every check; :func:`ingest_csv`
streams its rows into the calibration curve's counts, and
:func:`read_population` keeps them as Records.
"""
from __future__ import annotations

import codecs
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .domain import (
    AuditError,
    BinScheme,
    OutcomeLabel,
    Population,
    Record,
    ValidationError,
    validate_population,
)
from .metrics import CalibrationCurve, curve_from_counts

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
_OUTCOMES = {"0": 0, "1": 1}


def ingest_csv(config: DatasetConfig) -> CalibrationCurve:
    """Stream a dataset into its calibration curve, keeping only the
    per-(group, bin) counts. Raises IngestError naming the file line of the
    first row that fails a check (see :func:`_rows`)."""
    return curve_from_counts(config.bins, (
        (group, b, positive, 1 - positive)
        for _id, group, _score, b, positive in _rows(config)
    ))


def read_population(config: DatasetConfig) -> Population:
    """Load a dataset as a Population of Records, through the same row
    parser and checks as :func:`ingest_csv`."""
    labels = (OutcomeLabel.NEGATIVE, OutcomeLabel.POSITIVE)
    records = [
        Record(record_id, group, score, labels[positive])
        for record_id, group, score, _b, positive in _rows(config)
    ]
    return validate_population(
        records, config.bins, config.action_benefits_subject
    )


def _rows(config: DatasetConfig) -> Iterator[tuple[str, str, float, int, int]]:
    """Yield each data row as (id, group, score, bin index, positive 0/1).

    A leading byte-order mark is ignored and blank lines are skipped. Every
    other row must have as many fields as the header, a finite score inside
    the bins' range, an outcome of 0 or 1, a nonempty group and an id no
    earlier row has. Errors name the row by the file line it ends on.
    """
    path = Path(config.path)
    if not path.is_file():
        raise IngestError(f"no such file: {config.path}")
    bin_of = config.bins.bin_of
    first_row: dict[str, int] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            id_at, group_at, score_at, outcome_at = (
                _column(header, name)
                for name in (config.id_col, config.group_col,
                             config.score_col, config.outcome_col)
            )
            width = len(header)
            for row in reader:
                line = reader.line_num
                if len(row) != width:
                    if not row:
                        continue
                    raise IngestError(
                        f"row {line}: {len(row)} fields, header has {width}"
                    )
                raw_score = row[score_at]
                try:
                    score = float(raw_score)
                except ValueError:
                    raise IngestError(
                        f"row {line}: unparseable score {raw_score!r}"
                    ) from None
                if not math.isfinite(score):
                    raise IngestError(
                        f"row {line}: score must be finite, got {raw_score!r}"
                    )
                raw_outcome = row[outcome_at].strip()
                positive = _OUTCOMES.get(raw_outcome)
                if positive is None:
                    raise IngestError(
                        f"row {line}: outcome must be 0 or 1, "
                        f"got {raw_outcome!r}"
                    )
                record_id = row[id_at]
                first = first_row.setdefault(record_id, line)
                if first != line:
                    raise IngestError(
                        f"row {line}: duplicate id {record_id!r} "
                        f"(first on row {first})"
                    )
                group = row[group_at]
                if not group:
                    raise IngestError(f"row {line}: empty group label")
                try:
                    b = bin_of(score)
                except ValidationError as exc:
                    raise IngestError(f"row {line}: {exc}") from None
                yield record_id, group, score, b, positive
    except UnicodeDecodeError as exc:
        raise IngestError(
            f"{config.path}: row {_undecodable_line(path)}: not UTF-8 "
            f"({exc.reason})"
        ) from None
    except csv.Error as exc:
        raise IngestError(
            f"{config.path}: row {reader.line_num}: {exc}"
        ) from None
    if not first_row:
        raise IngestError(f"{config.path}: no data rows")


def _column(header: list[str], name: str) -> int:
    """Position of a column the audit reads, which the header must name
    exactly once."""
    count = header.count(name)
    if count == 0:
        raise IngestError(f"missing column {name!r}; file has {header}")
    if count > 1:
        raise IngestError(f"header names column {name!r} {count} times")
    return header.index(name)


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

    Scores are written with repr so a round trip through read_population
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
