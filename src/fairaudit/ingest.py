"""CSV ingestion of scored-population datasets.

Input is comma-delimited UTF-8 with a header row; outcomes are encoded 0/1
(1 = the predicted property occurred). Ingest is fail-fast: a row that does
not parse aborts with its row number, because silently dropping rows would
corrupt base rates. One parse loop runs every check and tallies the rows
per group and bin; :func:`ingest_csv` hands those tallies, not the rows, to
the curve constructor, and keeps the cell table it builds in a cache keyed
by the file's content (see :mod:`fairaudit.cellcache`) for the next run on
the same file.
"""
from __future__ import annotations

import math
import os
import stat
import sys
from bisect import bisect_right
from typing import NamedTuple

from .domain import AuditError, BinScheme, ValidationError
from .metrics import CalibrationCurve, Tallies, curve_from_tallies


class IngestError(AuditError):
    """A dataset file is missing, malformed, or fails validation."""


class DatasetConfig(NamedTuple):
    path: str
    bins: BinScheme
    id_col: str = "id"
    group_col: str = "group"
    score_col: str = "score"
    outcome_col: str = "outcome"


#: Which of a group's (positives, negatives) tallies counts each outcome
#: encoding; a lookup here is also the 0/1 check.
_OUTCOME_SLOT = {"1": 0, "0": 1}

#: The digest the duplicate-id check keeps of each id, in an 8-byte slot.
#: Equal ids have equal digests; unequal ids may too, and the check then
#: compares the ids themselves.
_id_hash = hash


def ingest_csv(config: DatasetConfig) -> CalibrationCurve:
    """Stream a dataset into its calibration curve, keeping only the
    per-(group, bin) counts. Raises IngestError naming the file line of the
    first row that fails a check (see :func:`_count_cells`).

    The cell table of an input ingested before with the same settings comes
    from the cache of :mod:`fairaudit.cellcache` instead of a parse; only a
    successful ingest is stored there.

    Each of the four columns must be named for one role only: a score read
    from the outcome column would audit the outcomes against themselves."""
    roles: dict[str, str] = {}
    for role in ("id", "group", "score", "outcome"):
        name = getattr(config, f"{role}_col")
        if name in roles:
            raise IngestError(
                f"column {name!r} is named both as the {roles[name]} column "
                f"and as the {role} column"
            )
        roles[name] = role
    # Here, so that a scenario run never loads it.
    from . import cellcache

    path = config.path
    try:
        # Checked before it is opened: opening a FIFO would block.
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise _unreadable(path)
        key = cellcache.key_of(config)
        table = cellcache.load(key)
        if table is not None:
            return CalibrationCurve(config.bins, table)
        tallies = _count_cells(config)
    except OSError as exc:
        # A stat, open or read in any of the passes over the file.
        raise _unreadable(path, exc) from None
    curve = curve_from_tallies(config.bins, tallies)
    cellcache.store(key, config, curve.by_group)
    return curve


def _count_cells(config: DatasetConfig) -> dict[str, Tallies]:
    """Tally the data rows into group -> (positives_by_bin, negatives_by_bin),
    each a dict of bin index -> rows.

    A leading byte-order mark is ignored and blank lines are skipped. Every
    other row must have as many fields as the header, a finite score inside
    the bins' range, an outcome of 0 or 1, a nonempty group and an id no
    earlier row has. Errors name the row by the file line it ends on. The
    path must name a regular file (:func:`ingest_csv` checks it).
    """
    # Here, so that a scenario run never loads it.
    import csv

    path = config.path
    bins = config.bins
    edges = bins.edges
    # The range test below, clamped to the finite floats: an infinite score
    # fails it even against an infinite edge, and only a score that fails
    # it needs the finiteness test.
    lo = max(edges[0], -sys.float_info.max)
    hi = min(edges[-1], sys.float_info.max)
    top = len(edges) - 1
    # Each group label is kept once, as a key here; a row adds one to a
    # plain int count, with no per-row key tuple and no per-cell list.
    tallies: dict[str, Tallies] = {}
    # The hash of every id so far, 8 bytes a row (a signed int in native
    # byte order), in buckets by its low byte, so that the repeat check's
    # sets stay small; the id strings are freed with their rows. Only a
    # repeated hash sends the file to be read again (see
    # _raise_first_duplicate).
    digest = _id_hash
    order = sys.byteorder
    digests = [bytearray() for _ in range(256)]
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
            try:
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
                        # float() alone reads '0_1' and non-ASCII digits.
                        if "_" in raw_score or not raw_score.isascii():
                            raise ValueError
                        score = float(raw_score)
                    except ValueError:
                        raise IngestError(
                            f"row {reader.line_num}: unparseable score "
                            f"{raw_score!r}"
                        ) from None
                    in_range = lo <= score <= hi
                    if not in_range and not math.isfinite(score):
                        raise IngestError(
                            f"row {reader.line_num}: score must be finite, "
                            f"got {raw_score!r}"
                        )
                    raw_outcome = row[outcome_at].strip()
                    slot = _OUTCOME_SLOT.get(raw_outcome)
                    if slot is None:
                        raise IngestError(
                            f"row {reader.line_num}: outcome must be 0 or 1, "
                            f"got {raw_outcome!r}"
                        )
                    h = digest(row[id_at])
                    digests[h & 255] += h.to_bytes(8, order, signed=True)
                    group = row[group_at]
                    counts = tallies.get(group)
                    if counts is None:
                        if not group:
                            raise IngestError(
                                f"row {reader.line_num}: empty group label"
                            )
                        counts = tallies[group] = ({}, {})
                    if in_range:
                        # BinScheme.bin_of's search, inlined for the row loop.
                        b = bisect_right(edges, score, 0, top) - 1
                    else:
                        try:
                            b = bins.bin_of(score)  # raises the range message
                        except ValidationError as exc:
                            raise IngestError(
                                f"row {reader.line_num}: {exc}"
                            ) from None
                    tally = counts[slot]
                    tally[b] = tally.get(b, 0) + 1
            finally:
                # A repeated id on an earlier row is the first bad row.
                _raise_first_duplicate(path, id_at, digests)
    except UnicodeDecodeError as exc:
        raise IngestError(
            f"{path}: row {_undecodable_line(path)}: not UTF-8 "
            f"({exc.reason})"
        ) from None
    except csv.Error as exc:
        raise IngestError(
            f"{path}: row {reader.line_num}: {exc}"
        ) from None
    if not any(digests):
        raise IngestError(f"{path}: no data rows")
    return tallies


def _unreadable(path: str, exc: OSError | None = None) -> IngestError:
    """The error for a dataset path that is not a regular file (``exc`` is
    None), or whose stat, open or read raised ``exc``."""
    path = os.fspath(path)
    if exc is None:
        return IngestError(f"not a regular file: {path}")
    if isinstance(exc, FileNotFoundError):
        return IngestError(f"no such file: {path}")
    return IngestError(f"cannot read {path!r}: {exc.strerror or exc}")


def _column(header: list[str], name: str) -> int:
    """Position of a column the audit reads, which the header must name
    exactly once."""
    count = header.count(name)
    if count == 0:
        raise IngestError(f"missing column {name!r}; file has {header}")
    if count > 1:
        raise IngestError(f"header names column {name!r} {count} times")
    return header.index(name)


def _raise_first_duplicate(
    path: str, id_at: int, digests: list[bytearray]
) -> None:
    """Raise the duplicate-id error of the first row whose id an earlier row
    has, among the rows whose id hashes are in ``digests``.

    Each bucket is checked once for a repeated hash. Only then is the file
    read again, over the same rows, holding just the ids whose hash
    repeated: two ids can share a hash, which is not an error.
    """
    import csv

    repeated = set()
    for bucket in digests:
        # The signed ints the row loop wrote, 8 bytes each.
        hashes = memoryview(bucket).cast("q")
        if len(set(hashes)) != len(hashes):
            seen = set()
            for h in hashes:
                if h in seen:
                    repeated.add(h)
                seen.add(h)
    if not repeated:
        return
    digest = _id_hash
    rows = sum(map(len, digests)) // 8
    first: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            record_id = row[id_at]
            if digest(record_id) in repeated:
                if record_id in first:
                    raise IngestError(
                        f"row {reader.line_num}: duplicate id {record_id!r} "
                        f"(first on row {first[record_id]})"
                    )
                first[record_id] = reader.line_num
            rows -= 1
            if not rows:
                return


def _undecodable_line(path: str) -> int:
    """File line of the first byte that is not UTF-8: the file is read again
    as text, each such byte escaped to a lone surrogate (which UTF-8 never
    decodes to), in lines split at LF, CR and CRLF as the csv reader does."""
    line = 0
    with open(path, encoding="utf-8-sig", errors="surrogateescape",
              newline="") as fh:
        for line, text in enumerate(fh, 1):
            if not text.isascii():
                try:
                    text.encode()
                except UnicodeEncodeError:
                    return line
    # Only a file that changed since its parse has no such byte.
    return line + 1
