import random

import pytest

from fairaudit import (
    SCENARIO_NAMES,
    build_scenario,
    calibration_curve,
    group_metrics,
    ThresholdPolicy,
    validate_population,
)
from fairaudit.ingest import DatasetConfig, IngestError, export_csv, ingest_csv

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
        pop = ingest_csv(config_for(f, ten_bins))
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
        back = ingest_csv(
            DatasetConfig(
                path=str(path),
                bins=pop.bins,
                action_benefits_subject=pop.action_benefits_subject,
            )
        )
        assert back.records == pop.records
        policy = ThresholdPolicy.uniform(spec.threshold)
        for g in pop.groups:
            before = group_metrics(pop, g, policy, calibration_curve(pop))
            after = group_metrics(back, g, policy, calibration_curve(back))
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
            assert group_metrics(
                pop, g, policy, calibration_curve(pop)
            ) == group_metrics(reordered, g, policy, calibration_curve(reordered))

    def test_export_rejects_empty_path(self):
        pop, _ = build_scenario("stride_height")
        with pytest.raises(IngestError):
            export_csv(pop, "")
