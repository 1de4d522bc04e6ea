"""Test helpers shared by the suite and by ``tests/test_golden.py`` run as a
script: the per-record view of declared counts, which the tests' oracles
walk, the one writer of CSV input, and a policy's value assessment, a
pair's impossibility verdict and a policy's FPR equalization read off a
curve; and, for every test, a cell-table cache of its own.

Counts are declared as (group, score, positives, negatives) entries, the
shape of ``ScenarioSpec.cells``; a record is a (group, score, positive)
tuple.
"""
import csv

import pytest

from fairaudit import (
    equalize_fpr,
    impossibility_check,
    optimal_threshold,
    policy_expected_disvalue,
)
from fairaudit.metrics import CurveCell


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    """Point the cell-table cache at the test's own empty directory: no test
    reads or fills the user's cache, and the first ingest of each file in a
    test parses it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))


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


def keyed_cells(curve):
    """(group, bin) -> ``CurveCell`` of a curve, in (group, bin) order,
    zipped from the columns of its cell table ``curve.by_group``."""
    return {
        (g, b): CurveCell(b, count, positives)
        for g, cells in curve.by_group.items()
        for b, count, positives in zip(*cells)
    }


def cell_counts(curve):
    """(group, bin) -> (count, positives) of a curve's cells."""
    return {
        key: (c.count, c.positives) for key, c in keyed_cells(curve).items()
    }


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


def assess(curve, policy, values):
    """``policy_expected_disvalue`` of a policy on a curve: each group's
    confusion matrix at its policy threshold and at p*."""
    p_star = optimal_threshold(values)
    return policy_expected_disvalue(
        {g: curve.confusion(g, policy.threshold_for(g)) for g in curve.groups},
        {g: curve.confusion(g, p_star) for g in curve.groups},
        values,
    )


def check_pair(curve, threshold, *pair, **options):
    """``impossibility_check`` of a pair of groups at one uniform threshold:
    each group's confusion matrix there. The pair defaults to the curve's
    groups; ``options`` are the check's keyword arguments, and ``notes``
    defaults to a new list."""
    options.setdefault("notes", [])
    return impossibility_check(
        curve,
        {g: curve.confusion(g, threshold) for g in pair or curve.groups},
        **options,
    )


def equalize(curve, policy, **options):
    """``equalize_fpr`` of a policy on a curve, from each group's confusion
    matrix at its policy threshold; ``options`` are the search's keyword
    arguments, ``tolerance`` defaults to 1e-9 and ``notes`` to a new list."""
    options.setdefault("tolerance", 1e-9)
    options.setdefault("notes", [])
    return equalize_fpr(
        curve,
        policy,
        {g: curve.confusion(g, policy.threshold_for(g)) for g in curve.groups},
        **options,
    )
