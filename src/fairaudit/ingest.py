"""CSV ingestion of scored-population datasets.

Input is comma-delimited UTF-8 with a header row; outcomes are encoded 0/1
(1 = the predicted property occurred). Ingest is fail-fast: a row that does
not parse aborts with its row number, because silently dropping rows would
corrupt base rates. One row parser runs every check, and
:func:`ingest_csv` streams its rows into the calibration curve's counts.
"""
from __future__ import annotations

import codecs
import csv
import math
from pathlib import Path
from typing import Iterator, NamedTuple

from .domain import AuditError, BinScheme, ValidationError
from .metrics import CalibrationCurve, curve_from_counts


class IngestError(AuditError):
    """A dataset file is missing, malformed, or fails validation."""


class DatasetConfig(NamedTuple):
    path: str
    bins: BinScheme
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
        for group, b, positive in _rows(config)
    ))


def _rows(config: DatasetConfig) -> Iterator[tuple[str, int, int]]:
    """Yield each data row as (group, bin index, positive 0/1).

    A leading byte-order mark is ignored and blank lines are skipped. Every
    other row must have as many fields as the header, a finite score inside
    the bins' range, an outcome of 0 or 1, a nonempty group and an id no
    earlier row has. Errors name the row by the file line it ends on.
    """
    path = Path(config.path)
    if not path.is_file():
        raise IngestError(f"no such file: {config.path}")
    bin_of = config.bins.bin_of
    # The ids seen so far, as the keys of a dict: below 50,000 entries
    # CPython's set quadruples its table and takes more memory than a
    # dict's compact keys. A row's line is looked up again only on error.
    ids: dict[str, None] = {}
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
                if record_id in ids:
                    raise IngestError(
                        f"row {line}: duplicate id {record_id!r} (first on "
                        f"row {_first_row_with_id(path, id_at, record_id)})"
                    )
                ids[record_id] = None
                group = row[group_at]
                if not group:
                    raise IngestError(f"row {line}: empty group label")
                try:
                    b = bin_of(score)
                except ValidationError as exc:
                    raise IngestError(f"row {line}: {exc}") from None
                yield group, b, positive
    except UnicodeDecodeError as exc:
        raise IngestError(
            f"{config.path}: row {_undecodable_line(path)}: not UTF-8 "
            f"({exc.reason})"
        ) from None
    except csv.Error as exc:
        raise IngestError(
            f"{config.path}: row {reader.line_num}: {exc}"
        ) from None
    if not ids:
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


def _first_row_with_id(path: Path, id_at: int, record_id: str) -> int:
    """File line of the first row whose id is ``record_id``. The duplicate-id
    check keeps ids but not their lines, so its error path reads the file
    again; every row before the duplicate has already passed the checks."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row and row[id_at] == record_id:
                return reader.line_num
    raise IngestError(f"{path}: id {record_id!r} vanished on re-reading")


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
