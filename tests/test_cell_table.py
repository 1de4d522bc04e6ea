"""Every post-ingest audit quantity is read off the calibration curve's
per-(group, bin) counts. These tests hold that path to a per-record
reference loop and pin that nothing re-bins a record once the curve exists.

The drawn datasets are plain records, (group, score, positive) tuples; the
curve under test is summed from one entry per record, and the references
bin and walk the records themselves.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assess, check_pair, entries_of, equalize, keyed_cells, tally,
)
from fairaudit import (
    SYMMETRIC_VALUES,
    BinScheme,
    ConfusionMatrix,
    OutcomeValues,
    ThresholdPolicy,
    calibration_gap,
    optimal_threshold,
    scenario_curve,
    scenario_spec,
)
from fairaudit.cli import _base_report
from fairaudit.metrics import CalibrationCurve
from fairaudit.parity import LOWER_OTHERS, RAISE_OTHERS
from reference import curve_from_counts


@st.composite
def datasets(draw):
    """(bins, records): 2-4 groups, 2-5 bins of random integer widths,
    scores on a half-unit grid so that records land on bin edges as well as
    inside bins."""
    n_groups = draw(st.integers(min_value=2, max_value=4))
    lo = draw(st.integers(min_value=-3, max_value=3))
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    edges = tuple(float(e) for e in itertools.accumulate([lo] + widths))
    bins = BinScheme(edges=edges)
    steps = int(2 * (edges[-1] - edges[0]))
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, n_groups - 1), st.integers(0, steps), st.booleans()
        ),
        min_size=n_groups,
        max_size=40,
    ))
    return bins, [
        # The first n_groups records name every group at least once.
        (f"g{i if i < n_groups else g}", edges[0] + step / 2, positive)
        for i, (g, step, positive) in enumerate(rows)
    ]


def curve_of(dataset):
    bins, records = dataset
    return scenario_curve(bins, entries_of(records))


def groups_of(dataset):
    return sorted({group for group, _score, _positive in dataset[1]})


@st.composite
def outcome_values(draw, integral):
    """Values with v_tn > v_fp and v_tp > v_fn, integral or not."""
    if integral:
        base, margin = st.integers(-5, 5).map(float), st.integers(1, 5).map(float)
    else:
        base = st.floats(-10, 10, allow_nan=False)
        margin = st.floats(0.05, 10, allow_nan=False)
    v_fp, v_fn = draw(base), draw(base)
    return OutcomeValues(
        v_tp=v_fn + draw(margin), v_fp=v_fp, v_tn=v_fp + draw(margin), v_fn=v_fn
    )


def reference_assessment(dataset, policy, values):
    """Per-group confusion counts and value sums, one record at a time."""
    bins, records = dataset
    cells = tally(*dataset)
    out = {
        g: dict(tp=0, fp=0, tn=0, fn=0, acted=0, expected=0.0, best=0.0, realized=0.0)
        for g in groups_of(dataset)
    }
    for group, score, positive in records:
        count, positives = cells[(group, bins.bin_of(score))]
        p = positives / count
        act = p >= policy.threshold_for(group)
        ev_act = p * values.v_tp + (1 - p) * values.v_fp
        ev_refrain = (1 - p) * values.v_tn + p * values.v_fn
        slot = out[group]
        key = ("t" if act == positive else "f") + ("p" if act else "n")
        slot[key] += 1
        slot["acted"] += int(act)
        slot["expected"] += ev_act if act else ev_refrain
        slot["best"] += max(ev_act, ev_refrain)
        if act:
            slot["realized"] += values.v_tp if positive else values.v_fp
        else:
            slot["realized"] += values.v_fn if positive else values.v_tn
    return out


def reference_gap(dataset):
    """Max |p_score difference| over all G^2 ordered group pairs and the
    bins they share; 0.0 when no pair shares a bin."""
    cells = tally(*dataset)
    p = {key: pos / count for key, (count, pos) in cells.items()}
    groups = groups_of(dataset)
    return max(
        (
            abs(p[(a, b)] - p[(c, b)])
            for a in groups
            for c in groups
            for (g, b) in p
            if g == a and (c, b) in p
        ),
        default=0.0,
    )


def draw_policy(data, dataset, curve):
    """A uniform or per-group policy whose thresholds are either arbitrary
    or exactly some cell's p_score, so ties at the threshold occur."""
    ties = sorted({c.positives / c.count for c in keyed_cells(curve).values()})
    threshold = st.one_of(st.floats(0.0, 1.0), st.sampled_from(ties))
    if data.draw(st.booleans(), label="uniform"):
        return ThresholdPolicy.uniform(data.draw(threshold, label="threshold"))
    return ThresholdPolicy.per_group(
        {g: data.draw(threshold, label=f"threshold {g}") for g in groups_of(dataset)}
    )


@settings(deadline=None)
@given(datasets(), st.booleans(), st.data())
def test_cell_sums_match_the_per_record_reference(dataset, integral, data):
    curve = curve_of(dataset)
    policy = draw_policy(data, dataset, curve)
    values = data.draw(outcome_values(integral), label="values")
    ref = reference_assessment(dataset, policy, values)
    assessment = assess(curve, policy, values)

    for g in groups_of(dataset):
        cm = curve.confusion(g, policy.threshold_for(g))
        r = ref[g]
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (r["tp"], r["fp"], r["tn"], r["fn"])
        a = assessment.per_group[g]
        assert (a.n, a.acted, a.refrained) == (cm.n, r["acted"], cm.n - r["acted"])
        assert a.expected_value == pytest.approx(r["expected"], abs=1e-9)
        assert a.best_expected_value == pytest.approx(r["best"], abs=1e-9)
        assert a.realized_value == pytest.approx(r["realized"], abs=1e-9)
        if integral:
            assert a.expected_value == a.realized_value == r["realized"]
    if integral:
        total = assessment.total
        assert total.expected_value == total.realized_value

    report = _base_report(curve, False, policy, values, False, 1e-9, [])
    assert report.calibration_gap == reference_gap(dataset)


@settings(deadline=None)
@given(datasets())
def test_by_group_holds_each_group_cells_in_ascending_bin_order(dataset):
    curve = curve_of(dataset)
    cells = tally(*dataset)
    assert list(curve.by_group) == list(curve.groups) == groups_of(dataset)
    for g, group_cells in curve.by_group.items():
        # Three int columns of equal length: bins, counts, positives.
        assert type(group_cells) is tuple and len(group_cells) == 3
        bins, counts, positives = group_cells
        assert all(type(column) is tuple for column in group_cells)
        assert len(bins) == len(counts) == len(positives)
        assert all(type(n) is int for column in group_cells for n in column)
        assert all(lo < hi for lo, hi in zip(bins, bins[1:]))
        assert all(0 <= pos <= count and count > 0
                   for count, pos in zip(counts, positives))
        assert {
            (g, b): (count, pos) for b, count, pos in zip(*group_cells)
        } == {key: counts for key, counts in cells.items() if key[0] == g}


@settings(deadline=None)
@given(datasets())
def test_confusion_matches_a_walk_over_the_group_cells(dataset):
    # The sweep keeps cumulative counts and builds a matrix on request; a
    # walk over the group's cells is the reference, at every cut point, at
    # 0 and 1, and between each two cut points.
    curve = curve_of(dataset)
    for g in curve.groups:
        cells = [c for (g2, _b), c in keyed_cells(curve).items() if g2 == g]
        cuts = curve.sweep(g)[0]
        assert list(cuts) == sorted({c.positives / c.count for c in cells})
        between = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]
        for t in sorted({0.0, 1.0, *cuts, *between}):
            tp = fp = tn = fn = 0
            for cell in cells:
                negatives = cell.count - cell.positives
                if cell.positives / cell.count >= t:
                    tp, fp = tp + cell.positives, fp + negatives
                else:
                    fn, tn = fn + cell.positives, tn + negatives
            assert curve.confusion(g, t) == ConfusionMatrix(tp, fp, tn, fn), t


@settings(deadline=None)
@given(datasets())
def test_calibration_gap_of_many_groups_is_the_largest_pairwise_gap(dataset):
    curve = curve_of(dataset)
    for size in range(2, len(curve.groups) + 1):
        for subset in itertools.combinations(curve.groups, size):
            assert calibration_gap(curve, *subset) == max(
                calibration_gap(curve, a, b)
                for a, b in itertools.combinations(subset, 2)
            )


@settings(deadline=None)
@given(datasets(), st.data())
def test_equalization_counts_match_the_per_record_reference(dataset, data):
    curve = curve_of(dataset)
    policy = draw_policy(data, dataset, curve)
    if has_no_negatives(dataset):
        return  # a group without negatives has no FPR to equalize
    cells = tally(*dataset)

    def acted_and_fpr(group, threshold):
        acted = fp = negatives = 0
        for (g, _b), (count, pos) in cells.items():
            if g != group:
                continue
            negatives += count - pos
            if pos / count >= threshold:
                acted += count
                fp += count - pos
        return acted, fp / negatives

    result = equalize(curve, policy, tolerance=1e-9)
    groups = groups_of(dataset)
    for g in groups:
        acted, _ = acted_and_fpr(g, policy.threshold_for(g))
        assert result.acted_baseline[g] == acted
        acted, fpr = acted_and_fpr(g, result.thresholds[g])
        assert (result.acted_equalized[g], result.fprs[g]) == (acted, fpr)
    assert result.residual_gap == max(
        abs(result.fprs[a] - result.fprs[b]) for a in groups for b in groups
    )


@settings(deadline=None)
@given(datasets(), st.sampled_from([LOWER_OTHERS, RAISE_OTHERS]), st.data())
def test_equalization_picks_the_best_candidate_of_each_group(
    dataset, direction, data
):
    # Brute force over the records' own cells: for each group other than the
    # reference, of 0, 1, its baseline threshold and its p_scores, the
    # threshold with the smallest exact FPR gap to the reference, then the
    # one nearest the baseline, then the lowest.
    curve = curve_of(dataset)
    policy = draw_policy(data, dataset, curve)
    if has_no_negatives(dataset):
        return  # a group without negatives has no FPR to equalize
    cells = tally(*dataset)

    def fpr(group, threshold):
        fp = negatives = 0
        for (g, _b), (count, pos) in cells.items():
            if g == group:
                negatives += count - pos
                fp += (count - pos) * (pos / count >= threshold)
        return Fraction(fp, negatives)

    groups = groups_of(dataset)
    baseline = {g: fpr(g, policy.threshold_for(g)) for g in groups}
    pick = max if direction == LOWER_OTHERS else min
    reference = pick(groups, key=lambda g: (baseline[g], g))
    result = equalize(curve, policy, tolerance=1e-9, direction=direction)
    assert result.reference_group == reference
    for g in groups:
        t0 = policy.threshold_for(g)
        if g == reference:
            assert result.thresholds[g] == t0
            continue
        candidates = {0.0, 1.0, t0} | {
            pos / count for (g2, _b), (count, pos) in cells.items() if g2 == g
        }
        best = min(candidates, key=lambda t: (
            abs(fpr(g, t) - baseline[reference]), abs(t - t0), t
        ))
        assert result.thresholds[g] == best


def has_no_negatives(dataset):
    """True when some group is all positives, so its FPR is undefined."""
    cells = tally(*dataset)
    return any(
        all(pos == count for (g2, _b), (count, pos) in cells.items() if g2 == g)
        for g in groups_of(dataset)
    )


@settings(deadline=None)
@given(datasets(), st.booleans(), st.data())
def test_no_uniform_threshold_beats_p_star(dataset, integral, data):
    values = data.draw(outcome_values(integral), label="values")
    curve = curve_of(dataset)

    def reference_value(threshold):
        ref = reference_assessment(
            dataset, ThresholdPolicy.uniform(threshold), values
        )
        return sum(r["realized"] for r in ref.values())

    p_star = optimal_threshold(values)
    at_p_star = reference_value(p_star)
    tol = 0.0 if integral else 1e-9
    candidates = {0.0, 1.0} | {
        c.positives / c.count for c in keyed_cells(curve).values()
    }
    assert max(reference_value(t) for t in candidates) <= at_p_star + tol
    # The best value does not depend on the policy assessed.
    best = assess(
        curve, ThresholdPolicy.uniform(0.5), values
    ).total.best_expected_value
    assert best == pytest.approx(at_p_star, rel=0, abs=tol)


@settings(deadline=None)
@given(datasets(), st.booleans(), st.data())
def test_disvalue_delta_is_the_difference_of_the_two_policies(
    dataset, integral, data
):
    if has_no_negatives(dataset):
        return
    curve = curve_of(dataset)
    policy = draw_policy(data, dataset, curve)
    values = data.draw(outcome_values(integral), label="values")
    result = equalize(curve, policy, tolerance=1e-9, values=values)
    equalized = ThresholdPolicy.per_group(result.thresholds)
    costs = [
        assess(curve, p, values).total.expected_disvalue
        for p in (policy, equalized)
    ]
    if integral:
        assert result.disvalue_delta == costs[1] - costs[0]
    else:
        assert result.disvalue_delta == pytest.approx(costs[1] - costs[0], abs=1e-9)


def test_post_curve_quantities_never_rebin_a_record(monkeypatch):
    spec = scenario_spec("compas_synthetic")
    policy = ThresholdPolicy.uniform(spec.threshold)

    def run(curve):
        return (
            [curve.confusion(g, policy.threshold_for(g)) for g in curve.groups],
            calibration_gap(curve, *curve.groups),
            assess(curve, policy, SYMMETRIC_VALUES),
            equalize(curve, policy, tolerance=1e-9),
            check_pair(curve, spec.threshold),
        )

    expected = run(scenario_curve(spec.bins, spec.cells))
    curve = scenario_curve(spec.bins, spec.cells)

    def no_binning(self, score):
        raise AssertionError("a record was re-binned after the curve was built")

    monkeypatch.setattr(BinScheme, "bin_of", no_binning)
    assert run(curve) == expected


def test_post_curve_work_reads_each_cell_a_few_times(monkeypatch):
    # 16 groups x 50 bins. Each group's cells are read once, into its
    # sweep; the equalization search ranks a group's ~50 candidates on the
    # sweep's integers and builds a confusion matrix only for the threshold
    # it picks. A matrix per candidate would be ~50 per group. The report
    # builds each group's matrix at its threshold once, for every section:
    # at 0.5, which is p* for the symmetric values, that is one matrix per
    # group and one per group the search moves.
    counts = [
        (f"g{g:02d}", b, (3 * g + 7 * b) % 11, (5 * g + 2 * b) % 9 + 1)
        for g in range(16)
        for b in range(50)
        if (g + b) % 7
    ]
    curve = curve_from_counts(BinScheme(edges=tuple(range(51))), counts)
    policy = ThresholdPolicy.uniform(0.5)
    assert optimal_threshold(SYMMETRIC_VALUES) == 0.5
    builds = 0
    confusion = CalibrationCurve.confusion

    def counted(self, group, threshold):
        nonlocal builds
        builds += 1
        return confusion(self, group, threshold)

    monkeypatch.setattr(CalibrationCurve, "confusion", counted)
    report = _base_report(
        curve, False, policy, SYMMETRIC_VALUES, False, 1e-9, [], LOWER_OTHERS
    )
    assert report.equalization is not None
    assert builds <= 2 * len(curve.groups)


def test_report_checks_group_membership_without_scanning_the_groups():
    # A scan of curve.groups per group would make the report or the
    # equalization search quadratic in the number of groups: 2000 groups
    # would compare ~2 million entries.
    counts = [(f"g{g:04d}", b, 1, 1 + (g + b) % 3)
              for g in range(2000) for b in range(2)]
    curve = curve_from_counts(BinScheme(edges=(0.0, 1.0, 2.0)), counts)
    scanned = 0

    class ScanCountingTuple(tuple):
        def __contains__(self, item):
            nonlocal scanned
            for entry in self:
                scanned += 1
                if entry == item:
                    return True
            return False

    curve.__dict__["groups"] = ScanCountingTuple(curve.groups)
    policy = ThresholdPolicy.uniform(0.5)
    _base_report(curve, False, policy, SYMMETRIC_VALUES, False, 1e-9, [])
    equalize(curve, policy, tolerance=1e-9)
    assert scanned <= 2 * len(curve.groups)
