"""Chaos-plane tests: deterministic injection, recovery, quarantine, serving.

The contract under test is the PR-10 failure model (``docs/ARCHITECTURE.md``,
"Failure model"): a seeded :class:`~repro.runtime.chaos.ChaosPlan` replays
the identical fault schedule; the survey runner retries, recovers crashed
pools and quarantines poison shards while healthy scenarios stay
byte-identical to a fault-free run; the serving tier sheds, times out,
restarts a dead coalescer and drains gracefully.
"""

import threading
import time
from concurrent.futures import Future

import pytest

from repro.runtime import (
    ChaosPlan,
    ConstructionCache,
    ExecutionContext,
    InjectedFault,
    chaos_counters,
    inject,
    reset_chaos_counters,
    use_context,
)
from repro.service import (
    CoalescerClosed,
    ReproService,
    RequestCoalescer,
    ServiceClient,
    ServiceOverloadedError,
    ServiceRequest,
    ServiceTimeoutError,
    serve,
)
from repro.survey import SurveyOptions, run_survey, scenarios_for_suite
from repro.utils import atomic_write
from repro.utils.backoff import BackoffPolicy, CircuitBreaker, CircuitOpenError

pytestmark = pytest.mark.smoke

FAST_RETRY = BackoffPolicy(
    max_attempts=3, base_delay=0.01, max_delay=0.02, factor=2.0, jitter=0.5
)
TWO_ATTEMPTS = BackoffPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02)


def strip(record_dict):
    return {
        key: value for key, value in record_dict.items() if key != "elapsed_seconds"
    }


@pytest.fixture(autouse=True)
def _clean_counters():
    reset_chaos_counters()
    yield
    reset_chaos_counters()


class TestChaosSpec:
    def test_parse_round_trips_through_token(self):
        spec = "worker_crash:0.02,slow_io:0.05x200ms,torn_write:0.01,seed=7"
        plan = ChaosPlan.parse(spec)
        assert plan.token == spec
        assert ChaosPlan.parse(plan.token) == plan
        assert plan.seed == 7

    def test_parse_accepts_second_delays(self):
        plan = ChaosPlan.parse("slow_io:1x0.2s")
        assert plan.rules[0].delay == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "seed=7",  # no fault rules
            "meteor_strike:0.5",  # unknown kind
            "worker_crash",  # no probability
            "worker_crash:2.0",  # out of range
            "worker_crash:x",  # non-numeric
            "slow_io:0.5xfast",  # bad delay
            "worker_crash:0.1,seed=soon",  # bad seed
        ],
    )
    def test_parse_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            ChaosPlan.parse(bad)

    def test_context_coerces_spec_strings(self):
        context = ExecutionContext(chaos="worker_crash:0.5,seed=3")
        assert isinstance(context.chaos, ChaosPlan)
        assert context.chaos.seed == 3

    def test_decisions_are_pure_functions_of_seed_site_and_key(self):
        plan = ChaosPlan.parse("worker_crash:0.5,seed=11")
        rule = plan.rules[0]
        draws = [plan.decides(rule, "survey.shard", ("shard", i, 0)) for i in range(64)]
        again = [plan.decides(rule, "survey.shard", ("shard", i, 0)) for i in range(64)]
        assert draws == again  # replayable
        assert any(draws) and not all(draws)  # a real Bernoulli schedule
        other = ChaosPlan.parse("worker_crash:0.5,seed=12")
        assert draws != [
            other.decides(other.rules[0], "survey.shard", ("shard", i, 0))
            for i in range(64)
        ]

    def test_probability_extremes_shortcut(self):
        always = ChaosPlan.parse("worker_crash:1.0")
        never = ChaosPlan.parse("worker_crash:0.0")
        assert always.decides(always.rules[0], "s", "k")
        assert not never.decides(never.rules[0], "s", "k")


class TestInjectionPoint:
    def test_inject_is_a_noop_without_a_plan(self):
        assert inject("survey.shard") is None
        assert chaos_counters() == {}

    def test_inject_counts_and_returns_error_faults(self):
        with use_context(chaos="torn_write:1.0,seed=1"):
            fault = inject("store.write", kinds=("torn_write",))
        assert fault is not None and fault.kind == "torn_write"
        assert chaos_counters() == {"store.write:torn_write": 1}

    def test_kinds_filter_restricts_what_a_site_honours(self):
        with use_context(chaos="worker_crash:1.0,seed=1"):
            assert inject("store.write", kinds=("torn_write", "slow_io")) is None

    def test_slow_io_sleeps_in_place_and_composes(self):
        with use_context(chaos="slow_io:1.0x30ms,torn_write:1.0,seed=1"):
            started = time.perf_counter()
            fault = inject("store.write", kinds=("torn_write", "slow_io"))
        assert time.perf_counter() - started >= 0.025
        assert fault is not None and fault.kind == "torn_write"
        counters = chaos_counters()
        assert counters["store.write:slow_io"] == 1
        assert counters["store.write:torn_write"] == 1

    def test_injected_fault_survives_pickling(self):
        import pickle

        fault = InjectedFault("worker_crash", "survey.shard")
        clone = pickle.loads(pickle.dumps(fault))
        assert (clone.kind, clone.site) == ("worker_crash", "survey.shard")
        assert "worker_crash" in str(clone)


class TestAtomicWriteChaos:
    def test_torn_write_aborts_before_rename_and_preserves_destination(
        self, tmp_path
    ):
        target = tmp_path / "artifact.json"
        target.write_text("previous")
        with use_context(chaos="torn_write:1.0,seed=1"):
            with pytest.raises(InjectedFault, match="torn_write"):
                with atomic_write(target) as handle:
                    handle.write("half-finished")
        assert target.read_text() == "previous"
        assert list(tmp_path.glob("*.tmp")) == []  # temp file cleaned up

    def test_disabled_plan_writes_normally(self, tmp_path):
        target = tmp_path / "artifact.json"
        with atomic_write(target) as handle:
            handle.write("payload")
        assert target.read_text() == "payload"


class TestSurveyRecovery:
    def test_inline_transient_fault_is_retried(self, tmp_path):
        # Seed 0: shard 0 fires at attempt 0 but not attempt 1, so one
        # retry recovers the whole (sequential) survey.
        scenarios = scenarios_for_suite("smoke")[:2]
        options = SurveyOptions(workers=1, shard_size=2, retry=FAST_RETRY)
        with use_context(chaos="worker_crash:0.5,seed=0"):
            report = run_survey(scenarios, options)
        assert report.retries >= 1
        assert report.quarantined == 0
        assert [record.status for record in report.records] == ["ok", "ok"]
        assert report.chaos_faults.get("survey.shard:worker_crash", 0) >= 1

    def test_inline_poison_shard_is_quarantined_not_fatal(self):
        scenarios = scenarios_for_suite("smoke")[:3]
        options = SurveyOptions(workers=1, shard_size=2, retry=FAST_RETRY)
        with use_context(chaos="worker_crash:1.0,seed=0"):
            report = run_survey(scenarios, options)
        assert report.quarantined == 2  # both shards, after max_attempts each
        assert all(record.status == "failed" for record in report.records)
        assert all("quarantined" in (record.error or "") for record in report.records)
        assert len(report.records) == 3  # every scenario still accounted for

    def test_pooled_worker_crash_recovers_and_matches_fault_free_run(self):
        # Seed 8 at p=0.02: exactly one shard (7) crashes on its first
        # attempt and every retry draw is clean — one pool respawn, full
        # recovery, nothing quarantined.  The crash path goes through a
        # real os._exit(1) in the worker, i.e. BrokenProcessPool recovery.
        scenarios = scenarios_for_suite("smoke")
        options = SurveyOptions(workers=2, shard_size=1, retry=FAST_RETRY)
        baseline = run_survey(scenarios, options)
        with use_context(chaos="worker_crash:0.02,seed=8"):
            report = run_survey(scenarios, options)
        assert report.crash_recoveries >= 1
        assert report.retries >= 1
        assert report.quarantined == 0
        expected = {record.scenario_id: record for record in baseline.records}
        assert len(report.records) == len(baseline.records)
        for record in report.records:
            assert record.status == "ok"
            assert strip(record.as_dict()) == strip(
                expected[record.scenario_id].as_dict()
            )

    def test_pooled_crash_retries_only_the_shards_it_charged(self):
        # Seed 68 at p=0.1 fires only on shard 0's first attempt.  At most
        # two shards are in flight when the pool breaks; they are the only
        # retries, not the six shards still waiting to start.
        scenarios = scenarios_for_suite("smoke")
        options = SurveyOptions(workers=2, shard_size=1, retry=FAST_RETRY)
        with use_context(chaos="worker_crash:0.1,seed=68"):
            report = run_survey(scenarios, options)
        assert report.crash_recoveries == 1
        assert 1 <= report.retries <= 2
        assert report.quarantined == 0
        assert len(report.records) == len(scenarios) == 8
        assert all(record.status == "ok" for record in report.records)

    def test_pooled_poison_shards_quarantine_and_sweep_completes(self):
        scenarios = scenarios_for_suite("smoke")[:2]
        options = SurveyOptions(workers=2, shard_size=1, retry=TWO_ATTEMPTS)
        with use_context(chaos="worker_crash:1.0,seed=1"):
            report = run_survey(scenarios, options)
        assert report.quarantined == 2
        assert report.crash_recoveries >= 1
        assert all(record.status == "failed" for record in report.records)

    def test_pooled_plain_failures_retry_on_their_timers_then_quarantine(
        self, tmp_path
    ):
        # A torn write fails the shard without breaking the pool: each shard
        # waits out its backoff timer, retries once and quarantines, and no
        # torn shard file is left behind.
        scenarios = scenarios_for_suite("smoke")[:4]
        options = SurveyOptions(
            workers=2, shard_size=1, shard_dir=str(tmp_path), retry=TWO_ATTEMPTS
        )
        with use_context(chaos="torn_write:1.0,seed=1"):
            report = run_survey(scenarios, options)
        assert report.retries == 4
        assert report.quarantined == 4
        assert report.crash_recoveries == 0
        assert all(record.status == "failed" for record in report.records)
        assert list(tmp_path.glob("shard-*.json")) == []
        report = run_survey(scenarios, options)
        assert [record.status for record in report.records] == ["ok"] * 4
        assert len(list(tmp_path.glob("shard-*.json"))) == 4

    # Four single-scenario shards: with a shard dir, each shard's write tears
    # on both of its attempts (8 faults); without one, each shard sleeps
    # once and succeeds (4).  A pool worker must ship the same tally.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "spec, with_shard_dir, expected",
        [
            ("torn_write:1.0,seed=1", True, {"store.write:torn_write": 8}),
            ("slow_io:1.0x10ms,seed=1", False, {"survey.shard:slow_io": 4}),
        ],
    )
    def test_pooled_and_inline_runs_tally_the_same_faults(
        self, tmp_path, workers, spec, with_shard_dir, expected
    ):
        options = SurveyOptions(
            workers=workers,
            shard_size=1,
            shard_dir=str(tmp_path) if with_shard_dir else None,
            retry=TWO_ATTEMPTS,
        )
        with use_context(chaos=spec):
            report = run_survey(scenarios_for_suite("smoke")[:4], options)
        assert report.workers == workers
        assert report.chaos_faults == expected

    # The same four torn shards under a fresh construction cache: each
    # attempt looks its scenario's construction up once (8 lookups), and
    # the 4 constructions built must reach the parent's cache although
    # every shard failed.  A retry may land on a pool worker that never
    # built the shard, so only the sum of hits and misses is fixed.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_shards_keep_their_cache_journal_and_counters(
        self, tmp_path, workers
    ):
        cache = ConstructionCache()
        options = SurveyOptions(
            workers=workers,
            shard_size=1,
            shard_dir=str(tmp_path),
            retry=TWO_ATTEMPTS,
        )
        with use_context(cache=cache, chaos="torn_write:1.0,seed=1"):
            report = run_survey(scenarios_for_suite("smoke")[:4], options)
        assert report.workers == workers
        assert report.quarantined == 4
        assert len(cache) == 4
        assert cache.hits + cache.misses == 8

    def test_quarantined_shards_are_not_persisted_so_reruns_retry_them(
        self, tmp_path
    ):
        scenarios = scenarios_for_suite("smoke")[:2]
        shard_dir = tmp_path / "shards"
        options = SurveyOptions(
            workers=1, shard_size=1, shard_dir=str(shard_dir), retry=FAST_RETRY
        )
        with use_context(chaos="worker_crash:1.0,seed=0"):
            report = run_survey(scenarios, options)
        assert report.quarantined == 2
        assert list(shard_dir.glob("shard-*.json")) == []
        # Fault-free rerun over the same shard dir recomputes everything.
        report = run_survey(scenarios, options)
        assert [record.status for record in report.records] == ["ok", "ok"]


class EndThread(BaseException):
    """Gets past the coalescer's ``except Exception`` and ends its thread."""


def end_the_thread(batch):
    raise EndThread("the evaluator ended the coalescer thread")


class TestCoalescerHardening:
    def test_close_fails_pending_requests_when_evaluator_is_wedged(self):
        release = threading.Event()

        def wedged(batch):
            release.wait(30)
            return list(batch)

        coalescer = RequestCoalescer(wedged, window=0.01)
        future = coalescer.submit("request")
        time.sleep(0.05)  # let the batch reach the evaluator
        started = time.perf_counter()
        coalescer.close(timeout=0.2)
        assert time.perf_counter() - started < 5
        with pytest.raises(CoalescerClosed, match="wedged"):
            future.result(timeout=1)
        release.set()

    # max_batch=1: the queued request makes a full batch without reading
    # the stop, and still must not evaluate after close().
    @pytest.mark.parametrize("max_batch", [1, 256])
    def test_close_finishes_the_in_flight_batch_and_fails_the_queue(self, max_batch):
        busy, release = threading.Event(), threading.Event()

        def held(batch):
            busy.set()
            release.wait(10)
            return [request.upper() for request in batch]

        coalescer = RequestCoalescer(held, window=0.01, max_batch=max_batch)
        in_flight = coalescer.submit("a")
        assert busy.wait(10)
        queued = coalescer.submit("b")
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            coalescer.close(timeout=5)
        finally:
            timer.cancel()
        assert in_flight.result(timeout=1) == "A"
        with pytest.raises(CoalescerClosed) as excinfo:
            queued.result(timeout=1)
        assert "wedged" not in str(excinfo.value)
        assert coalescer.pending_count() == 0

    def test_pending_count_tracks_outstanding_requests(self):
        release = threading.Event()

        def wait_then_echo(batch):
            release.wait(10)
            return list(batch)

        with RequestCoalescer(wait_then_echo, window=0.01) as coalescer:
            assert coalescer.pending_count() == 0
            future = coalescer.submit("request")
            assert coalescer.pending_count() == 1
            release.set()
            future.result(timeout=10)
            assert coalescer.pending_count() == 0

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_is_alive_reflects_collector_health(self):
        coalescer = RequestCoalescer(end_the_thread, window=0.01)
        assert coalescer.is_alive()
        stranded = coalescer.submit("request")
        deadline = time.monotonic() + 5
        while coalescer.is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not coalescer.is_alive()
        with pytest.raises(CoalescerClosed, match="thread is gone"):
            coalescer.submit("late")  # fails fast, not on an unread queue
        coalescer.close()
        with pytest.raises(CoalescerClosed, match="closed before"):
            stranded.result(timeout=1)


EMBED = ServiceRequest(op="embed", guest="torus:4,6", host="mesh:2,2,2,3")


class TestServiceRecovery:
    def test_admission_queue_sheds_beyond_max_pending(self):
        release = threading.Event()
        with ReproService(window=10.0, max_pending=1, watchdog_interval=0) as service:
            # Park one request inside a long collection window so the
            # admission queue is provably full when the second arrives.
            first = service.submit(EMBED)
            with pytest.raises(ServiceOverloadedError, match="admission queue"):
                service.submit(EMBED)
            assert service.stats.shed == 1
            assert service.stats_snapshot()["recovery"]["shed"] == 1
            release.set()
            assert isinstance(first, Future)

    def test_request_deadline_miss_raises_timeout(self):
        with ReproService(window=0.001, watchdog_interval=0) as service:
            service.coalescer._evaluate_batch = lambda batch: (
                time.sleep(5),
                [(None, 1)] * len(batch),
            )[1]
            with pytest.raises(ServiceTimeoutError, match="deadline"):
                service.handle(EMBED, timeout=0.1)
            assert service.stats.timeouts == 1

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_watchdog_restarts_a_dead_coalescer(self):
        with ReproService(window=0.001, watchdog_interval=0.05) as service:
            dead = service.coalescer
            dead._evaluate_batch = end_the_thread
            stranded = service.submit(EMBED)
            deadline = time.monotonic() + 10
            while service.coalescer_restarts == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert service.coalescer_restarts >= 1
            assert service.coalescer is not dead
            with pytest.raises(CoalescerClosed):
                stranded.result(timeout=5)
            record, _ = service.handle(EMBED)  # the replacement serves
            assert record.status == "ok"
            assert (
                service.stats_snapshot()["recovery"]["coalescer_restarts"] >= 1
            )

    def test_request_error_chaos_fails_requests_and_is_counted(self):
        with ReproService(
            window=0.001, chaos="request_error:1.0,seed=5", watchdog_interval=0
        ) as service:
            with pytest.raises(InjectedFault, match="request_error"):
                service.handle(EMBED)
            recovery = service.stats_snapshot()["recovery"]
            assert recovery["chaos_faults"]["service.handle:request_error"] == 1
            assert recovery["chaos"] == "request_error:1,seed=5"

    def test_drain_refuses_new_work(self):
        with ReproService(window=0.001, watchdog_interval=0) as service:
            service.begin_drain()
            with pytest.raises(ServiceOverloadedError, match="draining"):
                service.submit(EMBED)


class TestServiceHTTPRecovery:
    def test_shed_maps_to_503_with_retry_after_and_drain_healthcheck(self):
        with ReproService(window=0.001, watchdog_interval=0) as service:
            server = serve(service, "127.0.0.1", 0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            try:
                client = ServiceClient(
                    f"http://{host}:{port}",
                    timeout=10.0,
                    retry=BackoffPolicy(max_attempts=1, base_delay=0.01),
                )
                assert client.health()["status"] == "serving"
                service.begin_drain()
                with pytest.raises(Exception) as excinfo:
                    client.embed("torus:4,6", "mesh:2,2,2,3")
                assert getattr(excinfo.value, "status", None) == 503
                assert excinfo.value.payload.get("retry_after") == "1"
                with pytest.raises(Exception) as excinfo:
                    client.health()
                assert getattr(excinfo.value, "status", None) == 503
            finally:
                server.shutdown()
                server.server_close()


class TestClientBackoff:
    def test_transport_retries_are_paced_and_counted(self):
        with ReproService(window=0.001, watchdog_interval=0) as service:
            server = serve(service, "127.0.0.1", 0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            try:
                client = ServiceClient(
                    f"http://{host}:{port}", timeout=10.0, retry=FAST_RETRY
                )
                assert client.embed("torus:4,6", "mesh:2,2,2,3")["ok"]
                # A dead keep-alive connection is retried transparently.
                client._connection.close()
                assert client.embed("torus:4,6", "mesh:2,2,2,3")["ok"]
            finally:
                server.shutdown()
                server.server_close()

    def test_connection_refused_exhausts_retries_then_raises(self):
        client = ServiceClient(
            "http://127.0.0.1:9", timeout=0.2, retry=FAST_RETRY
        )
        with pytest.raises(OSError):
            client.invoke({"op": "embed", "guest": "torus:4,6", "host": "mesh:4,6"})
        assert client.retries == FAST_RETRY.max_attempts - 1

    def test_circuit_breaker_opens_after_repeated_failures(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        client = ServiceClient(
            "http://127.0.0.1:9",
            timeout=0.2,
            retry=BackoffPolicy(max_attempts=1, base_delay=0.01),
            breaker=breaker,
        )
        for _ in range(2):
            with pytest.raises(OSError):
                client.stats()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client.stats()

    def test_wait_until_ready_honours_one_overall_deadline(self):
        client = ServiceClient(
            "http://127.0.0.1:9", timeout=5.0, retry=FAST_RETRY
        )
        started = time.perf_counter()
        with pytest.raises(OSError):
            client.wait_until_ready(timeout=0.3)
        assert time.perf_counter() - started < 3.0


class TestBackoffPolicy:
    def test_delays_are_capped_and_jittered_within_bounds(self):
        policy = BackoffPolicy(
            max_attempts=5, base_delay=0.1, max_delay=0.4, factor=2.0, jitter=0.5
        )
        from repro.utils.rng import SplitMix64

        rng = SplitMix64(3)
        for attempt in range(8):
            rung = min(0.4, 0.1 * 2.0**attempt)
            delay = policy.delay(attempt, rng)
            assert rung * 0.5 <= delay <= rung

    def test_midpoint_without_rng_and_validation(self):
        policy = BackoffPolicy(base_delay=0.1, max_delay=10.0, jitter=0.5)
        assert policy.delay(0) == pytest.approx(0.075)
        with pytest.raises(ValueError):
            BackoffPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)

    def test_circuit_breaker_half_open_probe_closes_on_success(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=lambda: clock[0]
        )
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_call()
        clock[0] = 11.0
        assert breaker.state == "half-open"
        breaker.before_call()  # the probe is let through
        breaker.record_success()
        assert breaker.state == "closed"
