"""Tests for the parallel survey subsystem (scenarios, runner, store, CLI)."""

import json
import math
import os

import pytest

from repro.cli import main
from repro.runtime import ConstructionCache, use_context
from repro.runtime.cache import OptimizerState
from repro.survey import (
    Scenario,
    SurveyOptions,
    SurveyRecord,
    all_pairs,
    merge_shards,
    read_csv,
    read_json,
    read_records,
    run_survey,
    scenarios_for_suite,
    shapes_up_to,
    suite_names,
    write_csv,
    write_json,
    write_records,
)
from repro.survey.runner import evaluate_scenario


class TestScenarios:
    def test_shapes_up_to_is_deterministic_and_bounded(self):
        shapes = shapes_up_to(24)
        assert shapes == shapes_up_to(24)
        assert all(4 <= math.prod(shape) <= 24 for shape in shapes)
        assert all(all(length >= 2 for length in shape) for shape in shapes)
        assert (2, 2, 3) in shapes and (12,) in shapes

    def test_all_pairs_same_size_and_unique(self):
        scenarios = all_pairs(16)
        assert len(scenarios) == len(set(scenarios))
        for scenario in scenarios:
            assert math.prod(scenario.guest_shape) == math.prod(scenario.host_shape)
        # Identical (kind, shape) pairs are excluded by default.
        assert all(
            (s.guest_kind, s.guest_shape) != (s.host_kind, s.host_shape)
            for s in scenarios
        )

    def test_all_pairs_reaches_survey_scale(self):
        assert len(all_pairs(48)) >= 200  # the acceptance-criteria sweep size

    def test_scenario_id_round_trip(self):
        scenario = Scenario("torus", (4, 6), "mesh", (2, 2, 2, 3))
        assert scenario.scenario_id == "torus:4,6->mesh:2,2,2,3"
        assert Scenario.from_id(scenario.scenario_id) == scenario

    def test_suites_exist_and_are_nonempty(self):
        for name in suite_names():
            assert scenarios_for_suite(name, max_nodes=24)

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError):
            scenarios_for_suite("nope")


class TestRunner:
    def test_evaluate_scenario_measures_paper_pair(self):
        record = evaluate_scenario(
            Scenario("torus", (4, 6), "mesh", (2, 2, 2, 3)), SurveyOptions()
        )
        assert record.status == "ok"
        assert record.dilation == record.predicted_dilation == 1
        assert record.matches_prediction
        assert record.nodes == 24

    def test_evaluate_scenario_flags_unsupported(self):
        record = evaluate_scenario(
            Scenario("torus", (2, 3, 5), "torus", (5, 6)), SurveyOptions()
        )
        assert record.status in ("ok", "unsupported")
        if record.status == "unsupported":
            assert record.dilation is None and record.error

    def test_run_survey_sequential_is_deterministic(self):
        scenarios = scenarios_for_suite("smoke")
        first = run_survey(scenarios, SurveyOptions(workers=1))
        second = run_survey(scenarios, SurveyOptions(workers=1))
        strip = lambda r: {**r.as_dict(), "elapsed_seconds": None}
        assert [strip(r) for r in first.records] == [strip(r) for r in second.records]
        assert [r.scenario_id for r in first.records] == [
            s.scenario_id for s in scenarios
        ]

    def test_run_survey_parallel_matches_sequential(self):
        scenarios = all_pairs(12)
        sequential = run_survey(scenarios, SurveyOptions(workers=1))
        parallel = run_survey(scenarios, SurveyOptions(workers=2, shard_size=4))
        strip = lambda r: {**r.as_dict(), "elapsed_seconds": None}
        assert [strip(r) for r in sequential.records] == [
            strip(r) for r in parallel.records
        ]
        assert not sequential.failed

    def test_pooled_survey_folds_worker_cache_deltas_into_the_parent(self):
        scenarios = scenarios_for_suite("expansion")
        pooled = SurveyOptions(workers=2, shard_size=2)
        strip = lambda r: {**r.as_dict(), "elapsed_seconds": None}
        inline = ConstructionCache()
        with use_context(cache=inline):
            run_survey(scenarios, SurveyOptions(workers=1))
        cache = ConstructionCache()
        with use_context(cache=cache):
            cold = run_survey(scenarios, pooled)
        assert cold.workers == 2
        assert set(cache.data) == set(inline.data)
        assert cold.cache_entries == cache.construction_count
        hits, misses = cache.hits, cache.misses
        with use_context(cache=cache):
            warm = run_survey(scenarios, pooled)
        assert cache.misses - misses == 0
        assert cache.hits - hits == len(scenarios)
        assert [strip(r) for r in warm.records] == [strip(r) for r in cold.records]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_survey_keeps_the_optima_its_shards_improve(self, workers):
        # The search beats a planted optimum and replaces it in place: a
        # pooled worker must ship the replaced entry, and the parent must
        # keep the better of the optima it merges, as an inline run does.
        scenario = Scenario("torus", (4, 4), "mesh", (4, 4), strategy="optimize")
        guest, host = scenario.guest_graph(), scenario.host_graph()
        planted = OptimizerState(
            tuple(range(16)), 10**9, "combined", 99, 99, 0, "planted"
        )
        cache = ConstructionCache()
        cache.store_optimum("combined", guest, host, planted)
        with use_context(cache=cache):
            report = run_survey(
                [scenario, scenario], SurveyOptions(workers=workers, shard_size=1)
            )
        assert report.workers == workers
        found = min(record.search_objective for record in report.records)
        assert cache.fetch_optimum("combined", guest, host).objective == found
        assert found < 10**9

    def test_unset_shard_size_means_64_scenarios_per_shard(self, tmp_path):
        scenarios = all_pairs(12)[:100]
        run_survey(scenarios, SurveyOptions(workers=1, shard_dir=str(tmp_path)))
        assert len(list(tmp_path.glob("shard-*.json"))) == 2

    def test_unset_workers_means_one_per_cpu(self):
        scenarios = scenarios_for_suite("smoke")[:3]
        report = run_survey(scenarios, SurveyOptions(workers=None, shard_size=1))
        assert report.workers == min(os.cpu_count() or 1, 3)
        assert [record.status for record in report.records] == ["ok"] * 3

    def test_run_survey_writes_and_merges_shards(self, tmp_path):
        scenarios = all_pairs(12)
        report = run_survey(
            scenarios,
            SurveyOptions(workers=2, shard_size=5, shard_dir=str(tmp_path)),
        )
        assert len(report.shard_paths) == math.ceil(len(scenarios) / 5)
        merged = merge_shards(report.shard_paths)
        assert sorted(r.scenario_id for r in merged) == sorted(
            r.scenario_id for r in report.records
        )
        # Merging a shard twice must not duplicate records.
        assert len(merge_shards(report.shard_paths + report.shard_paths[:1])) == len(
            merged
        )

    def test_summary_rows_cover_measured_strategies(self):
        report = run_survey(scenarios_for_suite("smoke"), SurveyOptions(workers=1))
        rows = report.summary_rows()
        assert sum(row["pairs"] for row in rows) == len(report.ok)

    def test_run_survey_resumes_from_finished_shards(self, tmp_path):
        scenarios = all_pairs(12)
        options = SurveyOptions(workers=1, shard_size=5, shard_dir=str(tmp_path))
        shards = [scenarios[start : start + 5] for start in range(0, len(scenarios), 5)]
        # Pre-seed shard 0 with a finished shard file whose records carry an
        # impossible sentinel dilation: if the runner recomputed the shard it
        # would overwrite the sentinel, so seeing it in the merged report
        # proves the file was reused, not rebuilt.
        sentinel = [
            SurveyRecord(
                scenario_id=s.scenario_id,
                guest=repr(s.guest_graph()),
                host=repr(s.host_graph()),
                nodes=s.guest_graph().size,
                guest_edges=s.guest_graph().num_edges(),
                status="ok",
                strategy="pre-seeded",
                dilation=999,
                average_dilation=999.0,
            )
            for s in shards[0]
        ]
        write_json(sentinel, tmp_path / "shard-0000.json")
        report = run_survey(scenarios, options)
        assert report.reused_shard_indices == [0]
        assert report.records[: len(sentinel)] == sentinel
        # The remaining shards were computed normally.
        assert all(r.strategy != "pre-seeded" for r in report.records[len(sentinel) :])
        # A full rerun over the now-complete shard_dir recomputes nothing.
        rerun = run_survey(scenarios, options)
        assert rerun.reused_shard_indices == list(range(len(shards)))
        strip = lambda r: {**r.as_dict(), "elapsed_seconds": None}
        assert [strip(r) for r in rerun.records] == [strip(r) for r in report.records]

    def test_run_survey_resume_rejects_mismatched_shards(self, tmp_path):
        scenarios = all_pairs(12)
        # A shard file from a different sweep (wrong scenario ids) is ignored.
        stranger = SurveyRecord(
            scenario_id="torus:9,9->mesh:81",
            guest="Torus((9, 9))",
            host="Mesh((81,))",
            nodes=81,
            guest_edges=162,
            status="ok",
            strategy="pre-seeded",
            dilation=999,
        )
        write_json([stranger], tmp_path / "shard-0000.json")
        report = run_survey(
            scenarios, SurveyOptions(workers=1, shard_size=5, shard_dir=str(tmp_path))
        )
        assert report.reused_shard_indices == []
        assert all(r.strategy != "pre-seeded" for r in report.records)

    def test_run_survey_resume_rejects_option_mismatch(self, tmp_path):
        # A shard written without congestion must not satisfy a rerun that
        # requests it (the reused records would carry congestion=None).
        scenarios = all_pairs(12)[:5]
        run_survey(
            scenarios, SurveyOptions(workers=1, shard_size=5, shard_dir=str(tmp_path))
        )
        with_congestion = run_survey(
            scenarios,
            SurveyOptions(
                workers=1, shard_size=5, shard_dir=str(tmp_path), with_congestion=True
            ),
        )
        assert with_congestion.reused_shard_indices == []
        assert all(r.congestion is not None for r in with_congestion.ok)
        # ... and the congestion-bearing shard now on disk is reusable.
        again = run_survey(
            scenarios,
            SurveyOptions(
                workers=1, shard_size=5, shard_dir=str(tmp_path), with_congestion=True
            ),
        )
        assert again.reused_shard_indices == [0]

    def test_run_survey_resume_can_be_disabled(self, tmp_path):
        scenarios = all_pairs(12)[:5]
        options = SurveyOptions(workers=1, shard_size=5, shard_dir=str(tmp_path))
        run_survey(scenarios, options)
        fresh = run_survey(
            scenarios,
            SurveyOptions(
                workers=1, shard_size=5, shard_dir=str(tmp_path), resume=False
            ),
        )
        assert fresh.reused_shard_indices == []


class TestStore:
    def _records(self):
        report = run_survey(scenarios_for_suite("smoke"), SurveyOptions(workers=1))
        assert report.records
        return report.records

    def test_json_round_trip(self, tmp_path):
        records = self._records()
        path = write_json(records, tmp_path / "out.json")
        assert read_json(path) == records
        payload = json.loads(path.read_text())
        assert payload["count"] == len(records)

    def test_csv_round_trip(self, tmp_path):
        records = self._records()
        path = write_csv(records, tmp_path / "out.csv")
        assert read_csv(path) == records

    def test_write_records_dispatches_on_extension(self, tmp_path):
        records = self._records()
        assert read_records(write_records(records, tmp_path / "a.csv")) == records
        assert read_records(write_records(records, tmp_path / "a.json")) == records

    def test_none_fields_survive_csv(self, tmp_path):
        record = SurveyRecord(
            scenario_id="torus:2,3->torus:6",
            guest="Torus((2, 3))",
            host="Torus((6,))",
            nodes=6,
            guest_edges=9,
            status="unsupported",
            error="no construction",
        )
        path = write_csv([record], tmp_path / "none.csv")
        assert read_csv(path) == [record]


class TestCli:
    def test_survey_smoke_writes_results_file(self, tmp_path, capsys):
        output = tmp_path / "smoke.json"
        assert main(["survey", "--smoke", "--output", str(output)]) == 0
        records = read_records(output)
        assert len(records) == len(scenarios_for_suite("smoke"))
        assert all(record.status == "ok" for record in records)
        assert "measured" in capsys.readouterr().out

    def test_survey_limit_and_csv(self, tmp_path, capsys):
        output = tmp_path / "mini.csv"
        code = main(
            [
                "survey",
                "--suite",
                "exhaustive",
                "--max-nodes",
                "12",
                "--workers",
                "1",
                "--limit",
                "10",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert len(read_records(output)) == 10
