"""Tests of the benchmark's own machinery: seeded inputs, correctness checks
and the span tracer.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _smoke_records():
    from repro.survey import SurveyOptions, run_survey
    from repro.survey.scenarios import scenarios_for_suite

    scenarios = scenarios_for_suite("smoke")
    records = run_survey(scenarios, SurveyOptions(workers=1)).records
    return [s.scenario_id for s in scenarios], records


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def test_inputs_repeat_per_seed_and_differ_across_seeds():
    for name, generate in inputs.INPUTS.items():
        assert generate(3) == generate(3), name
        assert generate(3) != generate(4), name


def test_input_shapes_do_not_depend_on_the_seed():
    for seed in (inputs.DEFAULT_SEED, inputs.HELD_OUT_SEED):
        assert len(inputs.sweep_inputs(seed)["scenarios"]) == 3977
        assert len(inputs.simulate_inputs(seed)["scenarios"]) == 8 * 24
        serve = inputs.serve_inputs(seed)
        assert len(serve["round"]) == inputs.SERVE_ROUND
        assert sum(r["op"] == "simulate" for r in serve["round"]) == 25


# --------------------------------------------------------------------------- #
# Correctness checks
# --------------------------------------------------------------------------- #
def test_reference_check_passes_and_catches_a_tampered_record():
    ids, records = _smoke_records()
    sample = list(range(len(ids)))
    assert checks.check_survey_records(records, ids, sample) == []

    measured = next(i for i, r in enumerate(records) if r.status == "ok")
    tampered = list(records)
    tampered[measured] = dataclasses.replace(
        records[measured], dilation=records[measured].dilation + 1
    )
    problems = checks.check_survey_records(tampered, ids, sample)
    assert len(problems) == 1 and "dilation" in problems[0]


def test_reference_check_catches_missing_or_reordered_records():
    ids, records = _smoke_records()
    assert checks.check_survey_records(records[:-1], ids, []) != []
    assert checks.check_survey_records(records[::-1], ids, []) != []


def test_digest_ignores_timings_but_not_measurements():
    _, records = _smoke_records()
    baseline = checks.records_digest(records)
    retimed = [dataclasses.replace(r, elapsed_seconds=r.elapsed_seconds + 1) for r in records]
    assert checks.records_digest(retimed) == baseline
    flipped = [dataclasses.replace(records[0], matches_prediction=not records[0].matches_prediction)]
    assert checks.records_digest(flipped + records[1:]) != baseline


def test_pinned_digest_applies_to_the_default_seed_only():
    pinned = {"seed": 1, "digests": {"sweep": "a" * 64}}
    assert checks.check_pinned("sweep", 1, "a" * 64, pinned) == []
    assert checks.check_pinned("sweep", 1, "b" * 64, pinned) != []
    assert checks.check_pinned("sweep", 2, "b" * 64, pinned) == []


def test_service_check_catches_a_tampered_or_inconsistent_response():
    from repro.service.protocol import ServiceRequest
    from repro.survey import SurveyOptions
    from repro.survey.runner import evaluate_scenario  # noqa: TID251 - the reference

    request = {"op": "embed", "guest": "torus:4,6", "host": "mesh:2,2,2,3", "congestion": True}
    key = inputs.request_key(request)
    record = evaluate_scenario(
        ServiceRequest.from_dict(request).scenario(), SurveyOptions(with_congestion=True)
    ).as_dict()
    requests = {key: request}
    assert checks.check_service_responses({key: [record, record]}, requests, [key]) == []

    tampered = dict(record, congestion=record["congestion"] + 1)
    assert checks.check_service_responses({key: [tampered]}, requests, [key]) != []
    assert checks.check_service_responses({key: [record, tampered]}, requests, []) != []


def test_optimize_check_catches_a_worse_or_irreproducible_result():
    summary = {"objective": 10, "row_sha256": "x"}
    assert checks.check_optimize([summary, dict(summary)], 10) == []
    assert checks.check_optimize([summary], 9) != []
    assert checks.check_optimize([summary, dict(summary, row_sha256="y")], 10) != []


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
def test_self_times_add_up_to_the_root_span():
    tracer = spans.Tracer()
    with tracer.span("run"):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(1000))
        with tracer.span("b"):
            sum(range(1000))
    assert spans.check_spans(tracer.spans) == []
    layers = spans.aggregate(tracer.spans)
    root = layers["run"]["time"]
    assert abs(sum(entry["self"] for entry in layers.values()) - root) < 1e-9
    assert layers["b"]["calls"] == 2
    assert layers["a"]["self"] <= layers["a"]["time"]


def test_check_spans_flags_a_child_outside_its_parent():
    overlapping = [("child", 0.5, 1.5, 1), ("parent", 0.0, 1.0, -1)]
    assert spans.check_spans(overlapping) != []
    assert spans.check_spans([("child", 0.2, 0.8, 1), ("parent", 0.0, 1.0, -1)]) == []


def test_install_wraps_only_the_named_callers():
    def layer_function(value):
        return value * 2

    owner = types.ModuleType("repro._perfbench_owner")
    caller = types.ModuleType("repro._perfbench_caller")
    other = types.ModuleType("repro._perfbench_other")
    for module in (owner, caller, other):
        module.layer_function = layer_function
        sys.modules[module.__name__] = module
    try:
        tracer = spans.Tracer()
        replaced = spans.install(
            tracer, owner, "layer_function", "probe", counter="probe.calls", modules=[caller]
        )
        assert replaced == 1
        assert other.layer_function is layer_function
        assert caller.layer_function(3) == 6
        assert tracer.counters == {"probe.calls": 1}
        assert spans.aggregate(tracer.spans)["probe"]["calls"] == 1
    finally:
        for module in (owner, caller, other):
            del sys.modules[module.__name__]


def test_speed_gauge_scales_a_run_by_the_readings_around_it():
    gauge = calibrate.SpeedGauge()
    gauge.readings = [calibrate.NOMINAL_S, 2 * calibrate.NOMINAL_S, 2 * calibrate.NOMINAL_S]
    assert gauge.scale() == 0.5
    gauge.readings.append(calibrate.NOMINAL_S)
    assert abs(gauge.scale() - 1 / 1.5) < 1e-12
    gauge.read()
    assert len(gauge.readings) == 5 and gauge.readings[-1] > 0


def test_one_cpu_pins_and_restores_the_affinity():
    import os

    if not hasattr(os, "sched_getaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    with calibrate.one_cpu():
        assert os.sched_getaffinity(0) == {min(allowed)}
    assert os.sched_getaffinity(0) == allowed


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.resolvable(0.95, 600) == 0.95
    assert run.resolvable(0.95, 100) == 0.9
    assert run.resolvable(0.95, 12) == 0.5
    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.percentile(list(range(1, 101)), 0.95) == 95


def test_metric_names_and_units_match_benchmark_json():
    import json

    from layers import PER_LAYER

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
