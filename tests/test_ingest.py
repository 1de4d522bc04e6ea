import codecs
import contextlib
import csv
import io
import math
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cell_counts, entries_of, records, tally, write_csv
from fairaudit import (
    SCENARIO_NAMES,
    BinScheme,
    ValidationError,
    curve_from_counts,
    scenario_curve,
    scenario_spec,
)
from fairaudit import ingest
from fairaudit.cli import EXIT_INPUT, main, parse_bins
from fairaudit.ingest import DatasetConfig, IngestError, ingest_csv

SAMPLE = """id,group,score,outcome
r1,alpha,2.0,1
r2,alpha,7.5,0
r3,beta,4.0,1
r4,beta,9.0,0
"""


#: LF blank lines after the 23-byte header and a 12-byte row that put the
#: next byte at the end of ingest's first read chunk.
_PAD = ingest._CHUNK_BYTES - 1 - 23 - 12


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

    def test_ingest_holds_under_16_bytes_a_row(self, tmp_path, ten_bins):
        # Past the cell counts it returns, ingest holds an 8-byte hash of
        # each id for the duplicate check, not the id: these 40-character
        # ids would take over 100 bytes a row as strings in a dict.
        n = 20_000
        f = tmp_path / "data.csv"
        f.write_text("id,group,score,outcome\n" + "".join(
            f"{i:040d},{'ab'[i % 2]},{i % 10},{i % 2}\n" for i in range(n)
        ))
        config = config_for(f, ten_bins)
        tracemalloc.start()
        try:
            curve = ingest_csv(config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert curve.groups == ("a", "b")
        assert peak - held < 16 * n, f"{(peak - held) / n:.1f} bytes a row"

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
            # Blank lines up to a CRLF whose CR ends the first chunk the
            # line search reads: it is one line break, not two.
            (b"r1,a,2.0,1\r\n" + b"\n" * _PAD + b"\r\nr2,\xe9,7.0,0\r\n",
             f"row {_PAD + 4}: not UTF-8"),
        ],
        ids=["not_utf8", "oversized_field", "crlf_across_chunks"],
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


def _reference_count_cells(path, bins):
    """The reference row loop: it keeps every id string, as a dict's keys,
    for the duplicate check, and decodes the whole file to find the line of
    a byte that is not UTF-8. Ingest must give its tallies or its error."""
    tallies, ids = {}, {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            id_at, group_at, score_at, outcome_at = (
                ingest._column(header, name)
                for name in ("id", "group", "score", "outcome")
            )
            for row in reader:
                line = reader.line_num
                if len(row) != len(header):
                    if not row:
                        continue
                    raise IngestError(
                        f"row {line}: {len(row)} fields, header has "
                        f"{len(header)}"
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
                if raw_outcome not in ("0", "1"):
                    raise IngestError(
                        f"row {line}: outcome must be 0 or 1, got "
                        f"{raw_outcome!r}"
                    )
                record_id = row[id_at]
                if record_id in ids:
                    raise IngestError(
                        f"row {line}: duplicate id {record_id!r} (first on "
                        f"row {ids[record_id]})"
                    )
                ids[record_id] = line
                group = row[group_at]
                if not group:
                    raise IngestError(f"row {line}: empty group label")
                try:
                    b = bins.bin_of(score)
                except ValidationError as exc:
                    raise IngestError(f"row {line}: {exc}") from None
                counts = tallies.setdefault(group, ({}, {}))
                tally = counts[raw_outcome == "0"]
                tally[b] = tally.get(b, 0) + 1
    except UnicodeDecodeError as exc:
        data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            data = data[:whole.start]
        line = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
        raise IngestError(
            f"{path}: row {line + 1}: not UTF-8 ({exc.reason})"
        ) from None
    except csv.Error as exc:
        raise IngestError(f"{path}: row {reader.line_num}: {exc}") from None
    if not ids:
        raise IngestError(f"{path}: no data rows")
    return tallies


#: Stands for a byte that is not UTF-8 until the CSV text is encoded.
_BAD_BYTE = "\ue000"

_FAULTS = {
    "bad_score": lambda row, other: row.__setitem__(2, "tall"),
    "bad_outcome": lambda row, other: row.__setitem__(3, "2"),
    "empty_group": lambda row, other: row.__setitem__(1, ""),
    "extra_field": lambda row, other: row.append("x"),
    "short_row": lambda row, other: row.pop(),
    "out_of_range": lambda row, other: row.__setitem__(2, "11"),
    "repeated_id": lambda row, other: row.__setitem__(0, other[0]),
    "undecodable": lambda row, other: row.__setitem__(1, _BAD_BYTE),
}


@st.composite
def _faulty_csv(draw):
    """CSV bytes in every line ending, with blank lines, quoted line breaks
    in ids and groups, maybe a byte-order mark, and 0-3 faulty rows."""
    n = draw(st.integers(1, 12))
    rows = [
        [draw(st.sampled_from(("r", "id\n", "\u00e9", "a,b"))) + str(i),
         draw(st.sampled_from(("a", "b", "c\nd", 'e"f'))),
         repr(draw(st.floats(0.0, 10.0))),
         draw(st.sampled_from("01"))]
        for i in range(n)
    ]
    # Repeated ids are drawn most, as the check they test keeps least.
    faults = draw(st.lists(
        st.sampled_from(sorted(_FAULTS) + ["repeated_id"] * 4), max_size=3
    ))
    # Field-count faults last, so that the others find the fields they set.
    for fault in sorted(faults, key=("extra_field", "short_row").__contains__):
        row, other = (rows[draw(st.integers(0, n - 1))] for _ in range(2))
        _FAULTS[fault](row, other)
    ending = draw(st.sampled_from(("\n", "\r\n", "\r")))
    out = io.StringIO()
    # Minimal quoting leaves an LF unquoted under CR line endings, which
    # splits its row: one more kind of malformed input.
    writer = csv.writer(out, lineterminator=ending, quoting=draw(
        st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL))
    ))
    writer.writerow(("id", "group", "score", "outcome"))
    for row in rows:
        out.write(ending * draw(st.integers(0, 2)))
        writer.writerow(row)
    text = "\ufeff" * draw(st.booleans()) + out.getvalue()
    return text.encode().replace(_BAD_BYTE.encode(), b"\xff")


@settings(max_examples=300, deadline=None)
@given(_faulty_csv(), st.sampled_from((None, 0, 3)))
def test_ingest_matches_the_reference_loop(data, mask):
    # mask: None hashes ids as ingest does; 0 makes every id collide, and 3
    # leaves four hash values, so that equal hashes of unequal ids are common.
    bins = BinScheme(edges=(0.0, 5.0, 10.0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        path.write_bytes(data)
        try:
            expected = _reference_count_cells(str(path), bins)
        except IngestError as exc:
            expected = str(exc)
        id_hash = ingest._id_hash if mask is None else (
            lambda record_id: hash(record_id) & mask
        )
        with mock.patch.object(ingest, "_id_hash", id_hash):
            try:
                got = ingest._count_cells(DatasetConfig(str(path), bins))
            except IngestError as exc:
                got = str(exc)
    assert got == expected


def test_colliding_hashes_are_not_duplicate_ids(tmp_path, ten_bins):
    # Every id hashes alike, so every row sends the check to the ids
    # themselves: distinct ids pass, and a repeated one still names both
    # rows, ahead of a later row's error.
    f = tmp_path / "data.csv"
    with mock.patch.object(ingest, "_id_hash", lambda record_id: -2):
        f.write_text("id,group,score,outcome\nr1,a,2.0,1\nr2,b,3.0,0\n"
                     "r3,b,7.0,1\n")
        assert cell_counts(ingest_csv(config_for(f, ten_bins))) == {
            ("a", 0): (1, 1), ("b", 0): (1, 0), ("b", 1): (1, 1),
        }
        f.write_text("id,group,score,outcome\nr1,a,2.0,1\nr2,b,3.0,0\n"
                     "r1,b,7.0,1\nr4,b,tall,0\n")
        with pytest.raises(
            IngestError,
            match=r"^row 4: duplicate id 'r1' \(first on row 2\)$",
        ):
            ingest_csv(config_for(f, ten_bins))


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
