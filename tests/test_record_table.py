"""The survey's column table and the report built on it.

A shard evaluates into a :class:`~repro.survey.store.RecordTable`, the runner
concatenates the shards' tables into :attr:`SurveyReport.records`, and the
writers read its columns; a :class:`~repro.survey.store.SurveyRecord` is
built only for a row a caller reads.  These tests pin the sequence contract
callers rely on (lengths, indices, slices as lists, iteration, equality with
plain record lists, pickling as columns), the scenario order of a report
assembled from fresh, resumed and quarantined shards, the report's
column-wise summaries against their record-wise definitions, and that
running, writing and summarizing an all-``ok`` survey builds no record.
"""

import pickle
from dataclasses import replace

import pytest

from repro.survey import (
    RecordTable,
    SurveyOptions,
    SurveyRecord,
    all_pairs,
    run_survey,
    scenarios_for_suite,
    write_csv,
    write_json,
)
from repro.survey import runner
from repro.utils.backoff import BackoffPolicy

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def table():
    """A real sweep's table: measured and unsupported rows alike."""
    table = run_survey(all_pairs(12), SurveyOptions(workers=1)).records
    assert isinstance(table, RecordTable)
    assert {"ok", "unsupported"} <= set(table.columns["status"])
    return table


def strip(record):
    return {**record.as_dict(), "elapsed_seconds": None}


class TestSequenceContract:
    def test_length_indices_and_iteration(self, table):
        records = list(table)
        assert len(records) == len(table) > 2
        assert all(type(record) is SurveyRecord for record in records)
        for index in (0, 1, len(table) - 1, -1, -2, -len(table)):
            assert table[index] == records[index]
        for index in (len(table), -len(table) - 1):
            with pytest.raises(IndexError):
                table[index]
        assert [record.scenario_id for record in table] == table.columns["scenario_id"]

    def test_slices_are_lists(self, table):
        records = list(table)
        for part in (slice(1, None), slice(None, 3), slice(None, None, -2), slice(5, 5)):
            assert type(table[part]) is list
            assert table[part] == records[part]
        flipped = replace(records[0], dilation=-1)
        assert [flipped] + table[1:] == [flipped, *records[1:]]

    def test_equals_record_sequences_in_both_orders(self, table):
        records = list(table)
        assert table == records and records == table
        assert table == tuple(records) and tuple(records) == table
        assert table == RecordTable.from_records(records)
        assert not table != records
        assert table != records[:-1] and records[:-1] != table
        changed = [*records[:-1], replace(records[-1], dilation=-1)]
        assert table != changed and changed != table
        assert table != "not records" and table != 0

    def test_pickles_as_its_columns(self, table):
        payload = pickle.dumps(table)
        assert b"SurveyRecord" not in payload
        back = pickle.loads(payload)
        assert isinstance(back, RecordTable)
        assert back.columns == table.columns
        assert back == table

    def test_builders_keep_row_order(self, table):
        records = list(table)
        parts = [
            RecordTable.from_records(records[:3]),
            RecordTable.blank(0),
            RecordTable.from_records(records[3:]),
        ]
        assert RecordTable.concat(parts) == records
        assert len(RecordTable.from_records([])) == 0
        assert RecordTable.from_records(table) is table

    def test_columns_must_have_one_cell_per_row(self, table):
        columns = {**table.columns, "dilation": table.columns["dilation"][:-1]}
        with pytest.raises(ValueError, match="one cell per row"):
            RecordTable(columns)


def test_fresh_resumed_and_quarantined_shards_keep_scenario_order(
    tmp_path, monkeypatch
):
    scenarios = scenarios_for_suite("smoke")
    options = SurveyOptions(
        workers=1,
        shard_size=2,
        shard_dir=str(tmp_path),
        retry=BackoffPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02),
    )
    reference = run_survey(scenarios, options).records
    # Shards 0 and 2 resume from their files; shard 1 is recomputed but
    # fails every attempt, so it is quarantined; shard 3 is recomputed.
    (tmp_path / "shard-0001.json").unlink()
    (tmp_path / "shard-0003.json").unlink()
    poisoned = scenarios[2].scenario_id
    evaluate_shard = runner.evaluate_shard

    def failing_shard(shard, options):
        if any(scenario.scenario_id == poisoned for scenario in shard):
            raise RuntimeError("poisoned shard")
        return evaluate_shard(shard, options)

    monkeypatch.setattr(runner, "evaluate_shard", failing_shard)
    report = run_survey(scenarios, options)
    assert report.reused_shard_indices == [0, 2]
    assert (report.retries, report.quarantined) == (1, 1)
    assert isinstance(report.records, RecordTable)
    assert report.records.columns["scenario_id"] == [s.scenario_id for s in scenarios]
    assert report.records.columns["status"] == ["ok"] * 2 + ["failed"] * 2 + ["ok"] * 4
    kept = [0, 1, 4, 5, 6, 7]
    assert [strip(report.records[row]) for row in kept] == [
        strip(reference[row]) for row in kept
    ]
    assert [record.scenario_id for record in report.failed] == [
        s.scenario_id for s in scenarios[2:4]
    ]


def legacy_summary_rows(records):
    """``SurveyReport.summary_rows`` as it was defined over record objects."""
    ok = [r for r in records if r.status == "ok"]
    histogram = {}
    for record in ok:
        histogram[record.strategy or "?"] = histogram.get(record.strategy or "?", 0) + 1
    with_makespan = any(r.makespan is not None for r in ok)
    rows = []
    for strategy, count in sorted(histogram.items()):
        group = [r for r in ok if r.strategy == strategy]
        row = {
            "strategy": strategy,
            "pairs": count,
            "max dilation": max(r.dilation for r in group),
            "mean avg-dilation": round(sum(r.average_dilation for r in group) / count, 3),
            "prediction holds": sum(1 for r in group if r.matches_prediction),
        }
        if with_makespan:
            simulated = [r.makespan for r in group if r.makespan is not None]
            row["mean makespan"] = (
                round(sum(simulated) / len(simulated), 1) if simulated else "-"
            )
        rows.append(row)
    return rows, dict(sorted(histogram.items()))


@pytest.mark.parametrize(
    "scenarios",
    [
        pytest.param(all_pairs(16), id="exhaustive"),
        pytest.param(scenarios_for_suite("simulation", max_nodes=24), id="simulation"),
        pytest.param(scenarios_for_suite("expansion"), id="expansion"),
    ],
)
def test_summaries_read_from_columns_match_their_record_definitions(scenarios):
    report = run_survey(scenarios, SurveyOptions(workers=1))
    rows, histogram = legacy_summary_rows(list(report.records))
    assert report.summary_rows() == rows
    assert report.strategy_histogram() == histogram
    for name, statuses in (
        ("ok", {"ok"}),
        ("unsupported", {"unsupported"}),
        ("failed", {"error", "failed"}),
    ):
        assert getattr(report, name) == [r for r in report.records if r.status in statuses]


def test_an_all_ok_survey_is_run_written_and_summarized_without_records(
    tmp_path, monkeypatch
):
    built = []
    init = SurveyRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SurveyRecord, "__init__", counting_init)
    report = run_survey(scenarios_for_suite("smoke"), SurveyOptions(workers=1))
    write_json(report.records, tmp_path / "records.json")
    write_csv(report.records, tmp_path / "records.csv")
    assert len(report.records) == 8
    assert report.failed == [] and report.unsupported == []
    assert sum(report.strategy_histogram().values()) == 8
    assert sum(row["pairs"] for row in report.summary_rows()) == 8
    assert built == []
    # A caller that reads rows pays for exactly those rows.
    assert len(report.ok) == 8 and len(built) == 8
