"""Test helpers shared by the suite and by ``tests/test_golden.py`` run as a
script: the per-record view of declared counts, which the tests' oracles
walk, and the one writer of CSV input.

Counts are declared as (group, score, positives, negatives) entries, the
shape of ``ScenarioSpec.cells``; a record is a (group, score, positive)
tuple.
"""
import csv


def records(entries):
    """The records the entries declare: each entry's positives, then its
    negatives, in entry order."""
    return [
        (group, score, positive)
        for group, score, positives, negatives in entries
        for positive, n in ((True, positives), (False, negatives))
        for _ in range(n)
    ]


def entries_of(rows):
    """One entry per record."""
    return [(group, score, int(positive), int(not positive))
            for group, score, positive in rows]


def tally(bins, rows):
    """(group, bin) -> (count, positives) of records, each binned on its
    own: the per-record reference a curve's cells are held to."""
    cells = {}
    for group, score, positive in rows:
        key = (group, bins.bin_of(score))
        count, positives = cells.get(key, (0, 0))
        cells[key] = (count + 1, positives + int(positive))
    return cells


def cell_counts(curve):
    """(group, bin) -> (count, positives) of a curve's cells."""
    return {key: (c.count, c.positives) for key, c in curve.cells.items()}


def write_csv(path, entries):
    """Write the entries' records as an id,group,score,outcome CSV and return
    the path as a string.

    The i-th record's id is ``f"{group}-{i}"``, unique because the suffix
    after the last '-' is the record's number. Scores are written with repr,
    so each reads back as the same float.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "group", "score", "outcome"))
        for i, (group, score, positive) in enumerate(records(entries)):
            writer.writerow((f"{group}-{i}", group, repr(score), int(positive)))
    return str(path)
