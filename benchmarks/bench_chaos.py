"""BENCH-CHAOS: survey throughput under fault injection, and the no-op cost.

PR 10's tentpole: the chaos plane (:mod:`repro.runtime.chaos`) plus the
survey runner's retry/backoff/quarantine recovery.  Two claims gate here:

* **Recovery is cheap.**  A pooled survey sweep under a 2% ``worker_crash``
  schedule — real ``os._exit(1)`` worker deaths, pool respawns, shard
  retries — sustains at least ``CHAOS_THROUGHPUT_FLOOR``x the fault-free
  records/sec, and the healthy records stay byte-identical
  (``elapsed_seconds`` aside).
* **Disabled injection is free.**  With no plan on the context, one
  :func:`~repro.runtime.chaos.inject` call costs at most
  ``DISABLED_OVERHEAD_CEILING`` of one per-record evaluation — the
  instrumented hot paths (one ``inject`` per shard attempt, one per
  artifact write) pay well under 1% overhead.

The ``pytest-benchmark`` entries snapshot the two sweep regimes (committed
as ``BENCH_chaos.json``, the sixth regression-gate pair);
``benchmarks/check_bench_regression.py`` fails CI when either median slows
by more than 2x.  Refresh with::

    pytest benchmarks/bench_chaos.py --benchmark-json=BENCH_chaos.json
"""

import time
import timeit

from repro.runtime import inject, use_context
from repro.survey import SurveyOptions, run_survey, scenarios_for_suite
from repro.utils.backoff import BackoffPolicy

#: Records/sec under 2% worker-crash injection must stay >= this fraction
#: of the fault-free sweep (the respawn + backoff tax, bounded).
CHAOS_THROUGHPUT_FLOOR = 0.5

#: One disabled inject() call must cost <= this fraction of evaluating one
#: record — "no plan" means "no overhead".
DISABLED_OVERHEAD_CEILING = 0.01

#: Seed 12 at p=0.02 over the 17 squares-suite shards: exactly one worker
#: crash (shard 15, attempt 0) and clean retry draws — deterministic
#: recovery, nothing quarantined (same construction as tests/test_chaos.py).
CHAOS_SPEC = "worker_crash:0.02,seed=12"

RETRY = BackoffPolicy(max_attempts=3, base_delay=0.02, max_delay=0.1, factor=4.0)


def _sweep(chaos=None):
    scenarios = scenarios_for_suite("squares")
    options = SurveyOptions(workers=2, shard_size=8, retry=RETRY)
    with use_context(chaos=chaos):
        started = time.perf_counter()
        report = run_survey(scenarios, options)
        elapsed = time.perf_counter() - started
    return report, len(report.records) / elapsed


def _strip(record):
    document = record.as_dict()
    document.pop("elapsed_seconds", None)
    return document


def test_chaos_throughput_floor_and_identical_healthy_records():
    baseline, fault_free_rps = _sweep()
    report, chaos_rps = _sweep(chaos=CHAOS_SPEC)

    assert all(record.status == "ok" for record in baseline.records)
    assert report.crash_recoveries >= 1, "the seeded crash never fired"
    assert report.quarantined == 0
    expected = {record.scenario_id: _strip(record) for record in baseline.records}
    for record in report.records:
        assert record.status == "ok"
        assert _strip(record) == expected[record.scenario_id]

    ratio = chaos_rps / fault_free_rps
    print(
        f"\nsurvey sweep: fault-free {fault_free_rps:.1f} rec/s, "
        f"2% worker-crash {chaos_rps:.1f} rec/s ({ratio:.2f}x, "
        f"{report.crash_recoveries} crash recoveries, "
        f"{report.retries} retries)"
    )
    assert ratio >= CHAOS_THROUGHPUT_FLOOR, (
        f"chaos sweep only {ratio:.2f}x the fault-free throughput "
        f"(floor {CHAOS_THROUGHPUT_FLOOR}x)"
    )


def test_disabled_injection_is_effectively_free():
    # The no-op path: one contextvar read, one `is None` test.
    calls = 100_000
    noop_seconds = (
        timeit.timeit(
            lambda: inject("survey.shard", key=("shard", 0, 0)), number=calls
        )
        / calls
    )

    # One record through the (sequential, in-process) survey evaluator.
    scenarios = scenarios_for_suite("squares")
    started = time.perf_counter()
    report = run_survey(scenarios, SurveyOptions(workers=1, retry=RETRY))
    per_record = (time.perf_counter() - started) / len(report.records)

    overhead = noop_seconds / per_record
    print(
        f"\ndisabled inject(): {noop_seconds * 1e9:.0f}ns/call, "
        f"evaluation {per_record * 1e6:.0f}us/record "
        f"({overhead * 100:.4f}% overhead/record)"
    )
    assert overhead <= DISABLED_OVERHEAD_CEILING, (
        f"disabled injection costs {overhead * 100:.2f}% of one record "
        f"evaluation (ceiling {DISABLED_OVERHEAD_CEILING * 100:.0f}%)"
    )


def test_benchmark_survey_fault_free(benchmark):
    report = benchmark(lambda: _sweep()[0])
    assert all(record.status == "ok" for record in report.records)


def test_benchmark_survey_under_chaos(benchmark):
    report = benchmark(lambda: _sweep(chaos=CHAOS_SPEC)[0])
    assert all(record.status == "ok" for record in report.records)
    assert report.crash_recoveries >= 1
