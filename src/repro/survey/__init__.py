"""Parallel embedding surveys — the scale-out layer of the reproduction.

The paper's tables cover a handful of hand-picked shape pairs; the survey
subsystem turns that into a batch workload: enumerate every guest/host shape
pair up to a node budget (or a named suite mirroring the paper's tables),
embed each pair with the dispatcher, measure the vectorized costs, and
persist the results.

``scenarios``
    :class:`~repro.survey.scenarios.Scenario` and the deterministic
    generators (:func:`~repro.survey.scenarios.shapes_up_to`,
    :func:`~repro.survey.scenarios.all_pairs`, named suites).
``runner``
    The :func:`~repro.survey.runner.run_survey` engine —
    ``concurrent.futures`` workers over scenario shards, with optional
    per-shard JSON spills for crash-safe long sweeps.
``batch``
    The batched shard evaluator — scenarios grouped by signature, stacked
    host-index matrices through fused metric kernels and one vectorized
    event loop per shard, filling the shard's record table in place.  The
    default path (``use_context(batch=False)`` forces the per-scenario
    reference).
``store``
    :class:`~repro.survey.store.SurveyRecord`, the column table
    :class:`~repro.survey.store.RecordTable` that shards evaluate into and
    :attr:`~repro.survey.runner.SurveyReport.records` holds (a record is
    built only for a row a caller reads), and the JSON/CSV result store,
    which writes a table column by column (round-trippable,
    shard-mergeable).

The ``repro survey`` CLI subcommand (:mod:`repro.cli`) fronts the engine.
"""

from .batch import evaluate_shard_batched
from .scenarios import Scenario, all_pairs, scenarios_for_suite, shapes_up_to, suite_names
from .runner import SurveyOptions, SurveyReport, run_survey
from .store import (
    RecordTable,
    SurveyRecord,
    merge_shards,
    read_csv,
    read_json,
    read_records,
    write_csv,
    write_json,
    write_records,
)

__all__ = [
    "Scenario",
    "shapes_up_to",
    "all_pairs",
    "scenarios_for_suite",
    "suite_names",
    "SurveyOptions",
    "SurveyReport",
    "run_survey",
    "evaluate_shard_batched",
    "SurveyRecord",
    "RecordTable",
    "write_json",
    "read_json",
    "write_csv",
    "read_csv",
    "write_records",
    "read_records",
    "merge_shards",
]
