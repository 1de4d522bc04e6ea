import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fairaudit import (
    SCENARIO_NAMES,
    BinScheme,
    OutcomeLabel,
    Record,
    build_scenario,
    calibration_curve,
    ThresholdPolicy,
    validate_population,
)
from fairaudit.ingest import (
    DatasetConfig,
    IngestError,
    export_csv,
    ingest_csv,
    read_population,
)

SAMPLE = """id,group,score,outcome
r1,alpha,2.0,1
r2,alpha,7.5,0
r3,beta,4.0,1
r4,beta,9.0,0
"""


def config_for(path, bins):
    return DatasetConfig(
        path=str(path), bins=bins, action_benefits_subject=False
    )


@pytest.fixture
def ten_bins():
    from fairaudit import BinScheme

    return BinScheme(edges=(0.0, 5.0, 10.0))


class TestIngest:
    def test_smoke(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        f.write_text(SAMPLE)
        pop = read_population(config_for(f, ten_bins))
        assert pop.groups == ("alpha", "beta")
        assert len(pop.records) == 4
        assert pop.records[0].outcome.is_positive

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

    def test_duplicate_id_names_both_rows(self, tmp_path, ten_bins):
        f = tmp_path / "data.csv"
        f.write_text(
            "id,group,score,outcome\nr1,a,2.0,1\nr2,b,3.0,0\nr1,b,4.0,0\n"
        )
        with pytest.raises(
            IngestError, match=r"row 4: duplicate id 'r1' \(first on row 2\)"
        ):
            ingest_csv(config_for(f, ten_bins))

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
        assert len(read_population(config_for(f, ten_bins)).records) == 2
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
            action_benefits_subject=False,
            id_col="pid",
            group_col="race",
            score_col="decile",
            outcome_col="recid",
        )
        pop = ingest_csv(cfg)
        assert pop.groups == ("a", "b")


class TestRoundTrip:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_metrics_survive_export_and_reingest(self, tmp_path, name):
        pop, spec = build_scenario(name)
        path = tmp_path / f"{name}.csv"
        export_csv(pop, str(path))
        back = read_population(
            DatasetConfig(
                path=str(path),
                bins=pop.bins,
                action_benefits_subject=pop.action_benefits_subject,
            )
        )
        assert back.records == pop.records
        policy = ThresholdPolicy.uniform(spec.threshold)
        for g in pop.groups:
            t = policy.threshold_for(g)
            before = calibration_curve(pop).confusion(g, t)
            after = calibration_curve(back).confusion(g, t)
            assert before == after

    def test_metrics_invariant_under_row_permutation(self, tmp_path):
        pop, spec = build_scenario("compas_synthetic")
        shuffled = list(pop.records)
        random.Random(13).shuffle(shuffled)
        reordered = validate_population(
            shuffled, pop.bins, pop.action_benefits_subject
        )
        policy = ThresholdPolicy.uniform(spec.threshold)
        for g in pop.groups:
            t = policy.threshold_for(g)
            before = calibration_curve(pop).confusion(g, t)
            after = calibration_curve(reordered).confusion(g, t)
            assert before == after

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_export_then_ingest_is_the_identity(self, data):
        # Ids and groups that csv must quote: commas, quotes, line breaks
        # and non-ASCII text. NUL is left out: Python 3.10's csv rejects it.
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
            st.tuples(
                text,
                st.sampled_from(groups),
                st.floats(0.0, 10.0),
                st.sampled_from(list(OutcomeLabel)),
            ),
            min_size=2, max_size=12, unique_by=lambda row: row[0],
        ).filter(lambda rows: len({row[1] for row in rows}) >= 2))
        bins = BinScheme(edges=(0.0, 5.0, 10.0))
        pop = validate_population([Record(*row) for row in rows], bins, False)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "pop.csv")
            export_csv(pop, path)
            config = DatasetConfig(
                path=path, bins=bins, action_benefits_subject=False
            )
            back = read_population(config)
            curve = ingest_csv(config)
        assert back == pop
        # The streaming sink counts exactly the rows the Record sink keeps.
        assert curve == calibration_curve(back)

    def test_export_rejects_empty_path(self):
        pop, _ = build_scenario("stride_height")
        with pytest.raises(IngestError):
            export_csv(pop, "")
