import contextlib
import io
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cell_counts, entries_of, records, tally, write_csv
from fairaudit import (
    SCENARIO_NAMES,
    BinScheme,
    curve_from_counts,
    scenario_curve,
    scenario_spec,
)
from fairaudit.cli import EXIT_INPUT, main, parse_bins
from fairaudit.ingest import DatasetConfig, IngestError, ingest_csv

SAMPLE = """id,group,score,outcome
r1,alpha,2.0,1
r2,alpha,7.5,0
r3,beta,4.0,1
r4,beta,9.0,0
"""


def config_for(path, bins):
    return DatasetConfig(path=str(path), bins=bins)


@pytest.fixture
def ten_bins():
    from fairaudit import BinScheme

    return BinScheme(edges=(0.0, 5.0, 10.0))


class TestIngest:
    def test_smoke(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        f.write_text(SAMPLE)
        curve = ingest_csv(config_for(f, ten_bins))
        assert curve.groups == ("alpha", "beta")
        assert cell_counts(curve) == {
            ("alpha", 0): (1, 1), ("alpha", 1): (1, 0),
            ("beta", 0): (1, 1), ("beta", 1): (1, 0),
        }

    def test_missing_file(self, ten_bins):
        with pytest.raises(IngestError, match="no such file"):
            ingest_csv(config_for("/nonexistent/data.csv", ten_bins))

    def test_missing_column(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        f.write_text("id,group,score\nr1,a,2.0\n")
        with pytest.raises(IngestError, match="missing column 'outcome'"):
            ingest_csv(config_for(f, ten_bins))

    def test_bad_outcome_names_row(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        f.write_text(
            "id,group,score,outcome\n"
            "r1,a,2.0,1\n"
            "r2,b,3.0,2\n"
            "r3,b,4.0,0\n"
        )
        with pytest.raises(IngestError, match="row 3"):
            ingest_csv(config_for(f, ten_bins))

    def test_bad_score_names_row(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        f.write_text("id,group,score,outcome\nr1,a,2.0,1\nr2,b,tall,0\n")
        with pytest.raises(IngestError, match="row 3.*score"):
            ingest_csv(config_for(f, ten_bins))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
    def test_non_finite_score_names_row(self, tmp_path, ten_bins, raw):
        f = tmp_path / "data.csv"
        f.write_text(f"id,group,score,outcome\nr1,a,2.0,1\nr2,b,{raw},0\n")
        with pytest.raises(IngestError, match="row 3: score must be finite"):
            ingest_csv(config_for(f, ten_bins))

    @pytest.mark.parametrize("raw", ["inf", "-inf"])
    def test_infinite_score_is_rejected_by_infinite_edges(self, tmp_path, raw):
        # Edges may be infinite; an infinite score still fails as not
        # finite, rather than landing in an end bin.
        f = tmp_path / "data.csv"
        f.write_text(f"id,group,score,outcome\nr1,a,2.0,1\nr2,b,{raw},0\n")
        bins = BinScheme(edges=(-math.inf, 5.0, math.inf))
        with pytest.raises(IngestError, match="row 3: score must be finite"):
            ingest_csv(config_for(f, bins))

    def test_duplicate_id_names_both_rows(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        for text, message in (
            ("id,group,score,outcome\nr1,a,2.0,1\nr2,b,3.0,0\nr1,b,4.0,0\n",
             r"row 4: duplicate id 'r1' \(first on row 2\)"),
            # The first row is found by reading the file again, which counts
            # a byte-order mark, blank lines and quoted line breaks as the
            # first pass does.
            ('\ufeffid,group,score,outcome\n\nr0,"a\nb",1.0,0\nr1,a,2.0,1\n'
             "\nr1,b,4.0,0\n",
             r"row 7: duplicate id 'r1' \(first on row 5\)"),
        ):
            f.write_text(text, encoding="utf-8")
            with pytest.raises(IngestError, match=message):
                ingest_csv(config_for(f, ten_bins))

    def test_duplicate_id_check_holds_only_the_ids(self, tmp_path, ten_bins):
        # Ingest's memory beyond the cell counts is the ids the duplicate
        # check has seen, as a dict's keys; it keeps no line per id.
        n = 20_000
        f = tmp_path / "data.csv"
        f.write_text("id,group,score,outcome\n" + "".join(
            f"{i},{'ab'[i % 2]},{i % 10},{i % 2}\n" for i in range(n)
        ))
        config = config_for(f, ten_bins)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ingest_csv(config)
            ingest_peak = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            ids = dict.fromkeys(str(i) for i in range(n))
            ids_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(ids) == n
        assert ingest_peak < 1.1 * ids_peak, (ingest_peak, ids_peak)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("r1,a,2.0,1\nr2,b,8.0,1,extra\n", "row 3: 5 fields, header has 4"),
            ("r1,a,2.0,1\nr2,b,8.0\n", "row 3: 3 fields, header has 4"),
            ('r1,a,2.0,1\nr2,b,"8.0,1\nr3,b,3.0,0\n',
             "row 4: 3 fields, header has 4"),
        ],
        ids=["extra", "short", "unterminated_quote"],
    )
    def test_field_count_must_match_header(
        self, tmp_path, ten_bins, rows, message
    ):
        f = tmp_path / "data.csv"
        f.write_text("id,group,score,outcome\n" + rows)
        with pytest.raises(IngestError, match=message):
            ingest_csv(config_for(f, ten_bins))

    def test_blank_lines_skipped_and_rows_numbered_by_file_line(
        self, tmp_path, ten_bins
    ):
        f = tmp_path / "data.csv"
        f.write_text("id,group,score,outcome\n\nr1,a,2.0,1\n\nr2,b,7.0,0\n\n")
        assert cell_counts(ingest_csv(config_for(f, ten_bins))) == {
            ("a", 0): (1, 1), ("b", 1): (1, 0),
        }
        f.write_text("id,group,score,outcome\n\nr1,a,2.0,1\n\nr2,b,tall,0\n")
        with pytest.raises(IngestError, match="row 5: unparseable score"):
            ingest_csv(config_for(f, ten_bins))

    def test_byte_order_mark_is_ignored(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        f.write_bytes(b"\xef\xbb\xbf" + SAMPLE.encode())
        assert ingest_csv(config_for(f, ten_bins)).groups == ("alpha", "beta")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"r1,a,2.0,1\r\nr2,\xe9,7.0,0\r\n", "row 3: not UTF-8"),
            (b"r1,a,2.0,1\nr2,b," + b"x" * 140_000 + b",0\n",
             "row 3: field larger than field limit"),
        ],
        ids=["not_utf8", "oversized_field"],
    )
    def test_unreadable_row_names_file_and_row(
        self, tmp_path, ten_bins, data, message
    ):
        f = tmp_path / "data.csv"
        f.write_bytes(b"id,group,score,outcome\n" + data)
        with pytest.raises(IngestError, match=f"data.csv: {message}"):
            ingest_csv(config_for(f, ten_bins))

    def test_score_out_of_range_names_row(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        f.write_text(
            "id,group,score,outcome\nr1,a,2.0,1\nr2,b,7.0,0\nr3,b,11,0\n"
        )
        with pytest.raises(
            IngestError,
            match=r"^row 4: score 11\.0 outside declared range \[0\.0, 10\.0\]$",
        ):
            ingest_csv(config_for(f, ten_bins))

    def test_empty_group_names_row(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        f.write_text("id,group,score,outcome\nr1,a,2.0,1\nr2,,7.0,0\n")
        with pytest.raises(IngestError, match="^row 3: empty group label$"):
            ingest_csv(config_for(f, ten_bins))

    def test_empty_file(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        f.write_text("id,group,score,outcome\n")
        with pytest.raises(IngestError, match="no data rows"):
            ingest_csv(config_for(f, ten_bins))

    def test_custom_column_names(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        f.write_text("pid,race,decile,recid\nr1,a,2.0,1\nr2,b,7.0,0\n")
        cfg = DatasetConfig(
            path=str(f),
            bins=ten_bins,
            id_col="pid",
            group_col="race",
            score_col="decile",
            outcome_col="recid",
        )
        assert ingest_csv(cfg).groups == ("a", "b")


class TestRoundTrip:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_metrics_survive_export_and_reingest(self, tmp_path, name):
        spec = scenario_spec(name)
        path = write_csv(tmp_path / f"{name}.csv", spec.cells)
        back = ingest_csv(DatasetConfig(path=path, bins=spec.bins))
        assert back == scenario_curve(spec.bins, spec.cells)

    def test_metrics_invariant_under_row_permutation(self, tmp_path):
        spec = scenario_spec("compas_synthetic")
        shuffled = records(spec.cells)
        random.Random(13).shuffle(shuffled)
        path = write_csv(tmp_path / "shuffled.csv", entries_of(shuffled))
        back = ingest_csv(DatasetConfig(path=path, bins=spec.bins))
        assert back == scenario_curve(spec.bins, spec.cells)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_export_then_ingest_is_the_identity(self, data):
        # Groups, and so ids, that csv must quote: commas, quotes, line
        # breaks and non-ASCII text. NUL is left out: Python 3.10's csv
        # rejects it.
        text = st.text(
            st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\x00")
            | st.sampled_from(',"\r\n\ufeff'),
            max_size=6,
        )
        groups = data.draw(
            st.lists(text.filter(bool), min_size=2, max_size=3, unique=True)
        )
        rows = data.draw(st.lists(
            st.tuples(st.sampled_from(groups), st.floats(0.0, 10.0),
                      st.booleans()),
            min_size=2, max_size=12,
        ).filter(lambda rows: len({row[0] for row in rows}) >= 2))
        bins = BinScheme(edges=(0.0, 5.0, 10.0))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "rows.csv", entries_of(rows))
            curve = ingest_csv(DatasetConfig(path=path, bins=bins))
        assert curve.groups == tuple(sorted({row[0] for row in rows}))
        assert cell_counts(curve) == tally(bins, rows)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ingest_builds_the_curve_of_its_rows(self, data):
        # Few groups and scores, on and between the bin edges, so that rows
        # repeat cells; the reference also gets entries with no records, in
        # cells and in a group of their own, which the curve drops.
        scores = (0.0, 1.0, 2.5, 3.0, 7.4, 7.5, 10.0)
        rows = data.draw(st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from(scores),
                      st.booleans()),
            min_size=2, max_size=30,
        ).filter(lambda rows: len({row[0] for row in rows}) >= 2))
        bins = BinScheme(edges=(0.0, 2.5, 5.0, 7.5, 10.0))
        empty = data.draw(st.lists(
            st.tuples(st.sampled_from("abcz"), st.integers(0, 3)),
            max_size=4,
        ))
        entries = [
            (group, bins.bin_of(score), int(positive), int(not positive))
            for group, score, positive in rows
        ] + [(group, b, 0, 0) for group, b in empty]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "rows.csv", entries_of(rows))
            curve = ingest_csv(DatasetConfig(path=path, bins=bins))
        expected = curve_from_counts(bins, entries)
        assert curve.groups == expected.groups
        assert curve.by_group == expected.by_group
        assert list(curve.cells.items()) == list(expected.cells.items())
        assert curve == expected


#: Bin schemes of 2-6 bins, with edges of either sign, written to a bin spec
#: by repr.
_EDGES = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=3, max_size=7, unique=True,
).map(sorted)


@settings(max_examples=60, deadline=None)
@given(_EDGES, st.data())
def test_binning_at_and_around_every_edge_matches_bin_of(edges, data):
    # Every edge, and the floats just below and just above it: a score on
    # an interior edge opens the bin above it, the top edge closes the last
    # bin, and the neighbours of the range's ends fall outside it.
    bins = BinScheme(edges=tuple(edges))
    near = sorted({
        s for e in edges
        for s in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))
    })
    inside = [s for s in near if bins.lo <= s <= bins.hi]
    rows = [
        (group, score, data.draw(st.booleans()))
        for score in inside for group in ("a", "b")
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp) / "edges.csv", entries_of(rows))
        curve = ingest_csv(DatasetConfig(path=path, bins=bins))
        assert cell_counts(curve) == tally(bins, rows)

        # One score just outside the range, anywhere in the file, exits 2
        # naming its row and the range.
        bad = data.draw(st.sampled_from(
            [math.nextafter(bins.lo, -math.inf),
             math.nextafter(bins.hi, math.inf)]
        ))
        at = data.draw(st.integers(0, len(rows)))
        rows.insert(at, ("b", bad, False))
        path = write_csv(Path(tmp) / "outside.csv", entries_of(rows))
        spec = ",".join(f"{lo!r}-{hi!r}" for lo, hi in zip(edges, edges[1:]))
        assert parse_bins(spec).edges == bins.edges
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["audit", "--input", path, f"--bins={spec}"])
    assert code == EXIT_INPUT
    assert err.getvalue() == (
        f"error: row {at + 2}: score {bad!r} outside declared range "
        f"[{bins.lo}, {bins.hi}]\n"
    )
