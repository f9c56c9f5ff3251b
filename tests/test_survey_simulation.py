"""Tests for the `simulation` survey suite (scenarios, runner, store, CLI)."""

import pytest

from repro.cli import main
from repro.survey import (
    Scenario,
    SurveyOptions,
    read_records,
    run_survey,
    scenarios_for_suite,
    suite_names,
    write_json,
)
from repro.runtime import strategy_names, use_context
from repro.survey.runner import evaluate_scenario
from repro.survey.scenarios import SIMULATION_STRATEGIES, SIMULATION_TRAFFIC


class TestSimulationScenarios:
    def test_suite_is_registered_and_deterministic(self):
        assert "simulation" in suite_names()
        scenarios = scenarios_for_suite("simulation", max_nodes=48)
        assert scenarios == scenarios_for_suite("simulation", max_nodes=48)
        assert scenarios
        # Every strategy and every traffic pattern appears.
        assert {s.strategy for s in scenarios} == set(SIMULATION_STRATEGIES)
        assert {s.traffic for s in scenarios} == set(SIMULATION_TRAFFIC)
        assert all(s.nodes <= 48 for s in scenarios)

    def test_larger_budget_adds_task_mapping_pairs(self):
        small = scenarios_for_suite("simulation", max_nodes=24)
        large = scenarios_for_suite("simulation", max_nodes=64)
        assert len(large) > len(small)

    def test_simulation_scenario_id_round_trip(self):
        scenario = Scenario(
            "torus", (4, 6), "mesh", (2, 2, 2, 3), strategy="bfs", traffic="transpose"
        )
        assert scenario.scenario_id == "torus:4,6->mesh:2,2,2,3|bfs|transpose"
        assert Scenario.from_id(scenario.scenario_id) == scenario

    def test_embedding_scenario_id_unchanged(self):
        scenario = Scenario("torus", (4, 6), "mesh", (2, 2, 2, 3))
        assert scenario.scenario_id == "torus:4,6->mesh:2,2,2,3"
        assert Scenario.from_id(scenario.scenario_id) == scenario

    def test_strategy_builders_cover_suite_strategies(self):
        assert set(SIMULATION_STRATEGIES) <= set(strategy_names())


class TestSimulationRunner:
    def test_evaluate_simulation_scenario(self):
        record = evaluate_scenario(
            Scenario(
                "torus",
                (4, 6),
                "mesh",
                (2, 2, 2, 3),
                strategy="paper",
                traffic="neighbor-exchange",
            ),
            SurveyOptions(),
        )
        assert record.status == "ok"
        assert record.strategy == "paper"
        assert record.traffic == "neighbor-exchange"
        assert record.messages == 2 * 2 * 24  # two directed messages per edge
        assert record.max_hops == record.dilation == 1
        assert record.makespan is not None and record.makespan > 0
        assert record.estimated_time is not None
        assert record.estimated_time <= record.makespan + 1e-9

    def test_backends_agree_on_simulation_records(self):
        scenario = Scenario(
            "torus", (4, 4), "mesh", (2, 2, 2, 2), strategy="random", traffic="transpose"
        )
        with use_context(backend="array"):
            array = evaluate_scenario(scenario, SurveyOptions())
        with use_context(backend="loop"):
            loop = evaluate_scenario(scenario, SurveyOptions())
        strip = lambda r: {**r.as_dict(), "elapsed_seconds": None}
        assert strip(array) == strip(loop)

    def test_options_take_the_backend_from_the_context(self):
        scenario = Scenario(
            "torus", (4, 4), "mesh", (2, 2, 2, 2), strategy="paper", traffic="transpose"
        )
        with pytest.raises(TypeError):
            SurveyOptions(method="loop")
        with use_context(backend="loop"):
            record = evaluate_scenario(scenario, SurveyOptions())
        assert record.status == "ok"
        assert record.makespan == evaluate_scenario(scenario, SurveyOptions()).makespan

    def test_paper_beats_baselines_across_the_suite(self):
        report = run_survey(
            scenarios_for_suite("simulation", max_nodes=24), SurveyOptions(workers=1)
        )
        assert not report.failed and not report.unsupported
        by_key = {}
        for record in report.ok:
            base = record.scenario_id.split("|")[0]
            by_key.setdefault((base, record.traffic), {})[record.strategy] = record
        for (base, traffic), strategies in by_key.items():
            paper = strategies["paper"]
            if traffic == "neighbor-exchange":
                for record in strategies.values():
                    assert paper.max_hops <= record.max_hops
                    assert paper.makespan <= record.makespan + 1e-9

    def test_summary_rows_grow_makespan_column(self):
        report = run_survey(
            scenarios_for_suite("simulation", max_nodes=24), SurveyOptions(workers=1)
        )
        rows = report.summary_rows()
        assert rows and all("mean makespan" in row for row in rows)

    def test_simulation_shards_resume(self, tmp_path):
        scenarios = scenarios_for_suite("simulation", max_nodes=24)[:6]
        options = SurveyOptions(workers=1, shard_size=3, shard_dir=str(tmp_path))
        first = run_survey(scenarios, options)
        assert first.reused_shard_indices == []
        rerun = run_survey(scenarios, options)
        assert rerun.reused_shard_indices == [0, 1]
        strip = lambda r: {**r.as_dict(), "elapsed_seconds": None}
        assert [strip(r) for r in rerun.records] == [strip(r) for r in first.records]

    def test_unknown_strategy_is_an_error_record(self):
        record = evaluate_scenario(
            Scenario(
                "torus", (4, 6), "mesh", (2, 2, 2, 3), strategy="psychic", traffic="transpose"
            ),
            SurveyOptions(),
        )
        assert record.status == "error"
        assert "KeyError" in record.error


class TestSimulationStore:
    def test_simulation_records_round_trip(self, tmp_path):
        report = run_survey(
            scenarios_for_suite("simulation", max_nodes=24)[:8], SurveyOptions(workers=1)
        )
        json_path = write_json(report.records, tmp_path / "sim.json")
        assert read_records(json_path) == report.records
        from repro.survey import write_csv

        csv_path = write_csv(report.records, tmp_path / "sim.csv")
        assert read_records(csv_path) == report.records

    def test_legacy_records_read_with_empty_simulation_block(self, tmp_path):
        # Records written before the simulation columns existed still load.
        import json

        legacy_row = {
            "scenario_id": "torus:4,6->mesh:2,2,2,3",
            "guest": "Torus((4, 6))",
            "host": "Mesh((2, 2, 2, 3))",
            "nodes": 24,
            "guest_edges": 48,
            "status": "ok",
            "strategy": "increasing:H_V",
            "predicted_dilation": 1,
            "dilation": 1,
            "average_dilation": 1.0,
            "congestion": None,
            "matches_prediction": True,
            "elapsed_seconds": 0.1,
            "error": None,
        }
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"format": "repro-survey/1", "count": 1, "records": [legacy_row]}))
        (record,) = read_records(path)
        assert record.traffic is None and record.makespan is None
        assert record.dilation == 1


class TestSimulationCli:
    def test_survey_suite_simulation_smoke(self, tmp_path, capsys):
        output = tmp_path / "sim.json"
        code = main(
            ["survey", "--suite", "simulation", "--smoke", "--output", str(output)]
        )
        assert code == 0
        records = read_records(output)
        assert records and all(record.status == "ok" for record in records)
        assert {record.traffic for record in records} == set(SIMULATION_TRAFFIC)
        out = capsys.readouterr().out
        assert "mean makespan" in out

    def test_plain_smoke_still_runs_smoke_suite(self, tmp_path):
        output = tmp_path / "smoke.json"
        assert main(["survey", "--smoke", "--output", str(output)]) == 0
        records = read_records(output)
        assert all(record.traffic is None for record in records)

    def test_simulate_command_traffic_and_method(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--guest",
                    "torus:4,4",
                    "--host",
                    "mesh:2,2,2,2",
                    "--traffic",
                    "all-to-all-groups",
                    "--method",
                    "array",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "all-to-all-groups" in out and "makespan" in out

    @pytest.mark.parametrize("traffic", sorted(SIMULATION_TRAFFIC))
    def test_simulate_command_each_pattern(self, traffic, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--guest",
                    "torus:3,4",
                    "--host",
                    "mesh:3,4",
                    "--traffic",
                    traffic,
                ]
            )
            == 0
        )
        assert "paper" in capsys.readouterr().out
