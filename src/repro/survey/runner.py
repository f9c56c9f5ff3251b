"""The parallel survey engine.

:func:`run_survey` evaluates a list of scenarios — embed with the paper's
dispatcher (array-first construction), measure the vectorized costs — across
a pool of worker processes.  The scenario list is split into contiguous
*shards*; each worker evaluates one shard at a time and (optionally) spills
it to a JSON shard file.  On the next run over the same scenario list with
the same ``shard_dir``, finished shard files are loaded instead of
recomputed (crash resume); the result merge is deterministic regardless of
scheduling order either way.

The scheduling policy — worker count, shard size, retries, resume — is
:class:`SurveyOptions` alone.  Everything else comes from the ambient
execution context (:mod:`repro.runtime.context`): the backend, the batching
switch, the chaos plan and — when it carries a
:class:`~repro.runtime.cache.ConstructionCache` — the construction memo.
The whole context (cache included, as the warm start) is installed once in
every worker process, whose cache then journals its stores; each finished
shard ships every entry the worker stored since its last shard, new or
replaced (an optimum the search improved), and the parent merges them —
keeping the better of two optima — so its cache keeps growing across
shards and invocations.

``workers <= 1`` (or a single shard) runs inline in the calling process —
the mode used by tests and ``repro survey --smoke`` — where shards write
the parent's own cache and ship nothing.

Both evaluators — the per-scenario reference :func:`evaluate_scenario` and
the batched :mod:`repro.survey.batch` — build every record from the same
column builders (:func:`_record_base`, :func:`_construction_columns`,
:func:`_simulation_columns`, :func:`_failure_columns`); only the measured
values come from different kernels.

**Failure model.**  A shard attempt that raises (a crashed worker, a torn
shard write, an injected chaos fault) is retried with capped exponential
backoff and deterministic jitter (:class:`~repro.utils.backoff.BackoffPolicy`)
up to ``SurveyOptions.retry.max_attempts``; a shard that keeps failing is
*quarantined* — its scenarios are recorded with status ``"failed"`` and the
sweep keeps going.  A worker process dying outright (``os._exit``, OOM,
SIGKILL) breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`;
the runner respawns the pool and resubmits **only the unfinished shards**
(the same frontier crash-resume uses), charging one attempt to each shard
that was in flight when the pool broke.  There is no per-shard deadline: a
wedged worker blocks the sweep.  All recovery traffic — retries, pool
respawns, quarantines, injected faults — is reported on
:class:`SurveyReport`.  The chaos plane (:mod:`repro.runtime.chaos`)
injects ``worker_crash``/``slow_io`` faults at the ``survey.shard`` site,
keyed by ``(shard, attempt)`` so a seeded schedule replays identically and
the retry of a crashed shard draws a fresh decision.  Every pool worker
ships the faults its shard fired, failed shards included, so pooled and
inline runs tally alike — except a ``worker_crash`` in a pool worker, which
kills the process before it can report and shows only in
``crash_recoveries``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.fault_tolerance import fault_dilation_summary, repair_embedding
from ..analysis.metrics import evaluate_embedding
from ..core.dispatch import embed
from ..exceptions import UnsupportedEmbeddingError
from ..netsim import HostNetwork, simulate_phase, traffic_pattern
from ..runtime.chaos import (
    InjectedFault,
    chaos_counters,
    inject,
    merge_chaos_counters,
)
from ..runtime.context import ExecutionContext, current, set_default_context
from ..runtime.registry import build_strategy
from ..utils.backoff import BackoffPolicy
from ..utils.rng import SplitMix64
from .scenarios import Scenario
from .store import SurveyRecord, read_json, write_json

__all__ = [
    "SurveyOptions",
    "SurveyReport",
    "run_survey",
    "evaluate_scenario",
    "evaluate_shard",
]

#: Scenarios per shard when :attr:`SurveyOptions.shard_size` is ``None``.
DEFAULT_SHARD_SIZE = 64

#: Default per-shard retry policy: three attempts, 50ms → 2s capped
#: exponential backoff with half jitter.  One policy instance — the
#: dataclass is frozen — shared by every :class:`SurveyOptions` default.
DEFAULT_SHARD_BACKOFF = BackoffPolicy(
    max_attempts=3, base_delay=0.05, max_delay=2.0, factor=4.0, jitter=0.5
)


@dataclass(frozen=True)
class SurveyOptions:
    """Knobs of a survey run, its scheduling policy included.

    Attributes
    ----------
    workers:
        Worker process count; ``None`` means ``os.cpu_count()``, ``0``/``1``
        runs sequentially in-process.
    shard_size:
        Scenarios per shard (the unit of work handed to a worker); ``None``
        means :data:`DEFAULT_SHARD_SIZE`.
    shard_dir:
        When set, each finished shard is written there as
        ``shard-<k>.json`` before the merged result is assembled.
    with_congestion:
        Also measure edge congestion (vectorized; moderately more work).
    resume:
        When set (the default) and ``shard_dir`` holds a finished shard file
        whose records match the shard's scenario ids and these options
        (congestion measured iff requested), the file is loaded instead of
        recomputing the shard — crash resume for long sweeps.
    retry:
        The per-shard retry policy: ``retry.max_attempts`` total tries per
        shard (the quarantine threshold), with the policy's capped jittered
        exponential backoff between them.
    """

    workers: Optional[int] = None
    shard_size: Optional[int] = None
    shard_dir: Optional[str] = None
    with_congestion: bool = False
    resume: bool = True
    retry: BackoffPolicy = DEFAULT_SHARD_BACKOFF


@dataclass
class SurveyReport:
    """Outcome of :func:`run_survey`: merged records plus run metadata.

    The recovery counters report the run's fault traffic: ``retries`` is
    every shard attempt after the first, ``crash_recoveries`` every pool
    respawn after a broken worker, ``quarantined`` the shards abandoned
    after exhausting their attempts (their scenarios carry status
    ``"failed"``), and ``chaos_faults`` the injected-fault tally
    (``site:kind`` → count) when a chaos plan was active.
    """

    records: List[SurveyRecord]
    elapsed_seconds: float
    workers: int
    shard_paths: List[str] = field(default_factory=list)
    reused_shard_indices: List[int] = field(default_factory=list)
    cache_entries: int = 0  # memoized constructions in the context cache
    retries: int = 0
    crash_recoveries: int = 0
    quarantined: int = 0
    chaos_faults: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> List[SurveyRecord]:
        return [record for record in self.records if record.status == "ok"]

    @property
    def unsupported(self) -> List[SurveyRecord]:
        return [record for record in self.records if record.status == "unsupported"]

    @property
    def failed(self) -> List[SurveyRecord]:
        """Records that did not produce a measurement: unexpected errors
        (status ``"error"``) and quarantined scenarios (status ``"failed"``)."""
        return [record for record in self.records if record.status in ("error", "failed")]

    def strategy_histogram(self) -> Dict[str, int]:
        """Measured-record count per strategy name, alphabetically."""
        histogram: Dict[str, int] = {}
        for record in self.ok:
            histogram[record.strategy or "?"] = histogram.get(record.strategy or "?", 0) + 1
        return dict(sorted(histogram.items()))

    def summary_rows(self) -> List[Dict[str, object]]:
        """Tabular summary used by the CLI (one row per strategy).

        When the report contains simulation records a ``mean makespan``
        column is appended (averaged over each strategy's simulated phases).
        """
        with_makespan = any(r.makespan is not None for r in self.ok)
        rows: List[Dict[str, object]] = []
        for strategy, count in self.strategy_histogram().items():
            group = [r for r in self.ok if r.strategy == strategy]
            row: Dict[str, object] = {
                "strategy": strategy,
                "pairs": count,
                "max dilation": max(r.dilation for r in group),
                "mean avg-dilation": round(
                    sum(r.average_dilation for r in group) / count, 3
                ),
                "prediction holds": sum(1 for r in group if r.matches_prediction),
            }
            if with_makespan:
                simulated = [r.makespan for r in group if r.makespan is not None]
                row["mean makespan"] = (
                    round(sum(simulated) / len(simulated), 1) if simulated else "-"
                )
            rows.append(row)
        return rows


def _graph_columns(graph) -> Tuple[str, int]:
    """A graph's identification columns: its repr and its edge count."""
    return repr(graph), graph.num_edges()


def _record_base(
    scenario: Scenario, guest, host, graph_columns=_graph_columns
) -> Dict[str, object]:
    """The identification columns shared by every record of a scenario.

    One definition for both evaluation paths: the per-scenario reference
    below and the batched shard evaluator (:mod:`repro.survey.batch`), whose
    byte-identity contract would silently break if the two drifted.  The
    batched evaluator passes its shard's memo of :func:`_graph_columns`, so
    each graph's columns are derived once per shard; ``scenario_id`` and
    ``faults`` stay per scenario.
    """
    guest_name, guest_edges = graph_columns(guest)
    host_name, _ = graph_columns(host)
    return dict(
        scenario_id=scenario.scenario_id,
        guest=guest_name,
        host=host_name,
        nodes=host.size,
        guest_edges=guest_edges,
        guest_size=guest.size,
        faults=scenario.faults or None,
    )


def _construction_columns(
    strategy: Optional[str], embedding, dilation, average, congestion
) -> Dict[str, object]:
    """The columns of a measured construction: ``status`` ``"ok"`` through
    ``matches_prediction``, with the theorem's prediction read from
    ``embedding`` and checked against the measured ``dilation``."""
    return dict(
        status="ok",
        strategy=strategy,
        predicted_dilation=embedding.predicted_dilation,
        dilation=dilation,
        average_dilation=average,
        congestion=congestion,
        matches_prediction=embedding.matches_prediction(measured=dilation),
    )


def _simulation_columns(traffic: str, result) -> Dict[str, object]:
    """The columns of a simulated phase: ``traffic`` through ``makespan``."""
    statistics = result.statistics
    return dict(
        traffic=traffic,
        messages=statistics.num_messages,
        max_hops=statistics.max_hops,
        max_link_load=statistics.max_link_load_messages,
        estimated_time=statistics.estimated_completion_time,
        makespan=result.makespan,
    )


def _failure_columns(error: BaseException) -> Dict[str, object]:
    """The columns of a scenario that raised: ``"unsupported"`` with the
    message when the strategy has no construction for the pair, ``"error"``
    with ``Type: message`` for anything else."""
    if isinstance(error, UnsupportedEmbeddingError):
        return dict(status="unsupported", error=str(error))
    return dict(status="error", error=f"{type(error).__name__}: {error}")


def _fault_columns(scenario: Scenario, guest, host) -> Dict[str, object]:
    """Build on the pristine host, degrade, repair, re-measure.

    The named strategy is constructed (and cached) for the *pristine* host;
    the scenario's fault spec then knocks out nodes/links, the embedding is
    repaired around the dead images and the dilation columns report distances
    over the *surviving* links — the paper-construction decay measurement.
    ``congestion`` and ``matches_prediction`` stay ``None``: neither is
    defined on a degraded host.  With ``traffic`` set, the store-and-forward
    simulation runs fault-aware on the repaired embedding.
    """
    embedding = build_strategy(scenario.strategy, guest, host)
    faults = scenario.fault_spec().apply(host)
    repaired = repair_embedding(embedding, faults)
    dilation, average_dilation = fault_dilation_summary(repaired, faults)
    columns = _construction_columns(
        scenario.strategy, embedding, dilation, average_dilation, None
    )
    columns["matches_prediction"] = None
    if scenario.traffic:
        pattern = traffic_pattern(scenario.traffic, guest)
        result = simulate_phase(HostNetwork(host), repaired, pattern, faults=faults)
        columns.update(_simulation_columns(scenario.traffic, result))
    return columns


def _optimize_columns(
    scenario: Scenario, guest, host, guest_edges: int, options: SurveyOptions
) -> Dict[str, object]:
    """Run the embedding search and report what it found.

    The search configuration is the fixed
    :data:`repro.optimize.SUITE_OPTIONS` (pinned by the golden tables); the
    ambient construction cache — when the context carries one — both
    warm-starts the population with the stored optimum and persists the
    search's best, so a prior ``repro optimize`` run is reused here and vice
    versa.  The search makes no prediction, so ``predicted_dilation`` and
    ``matches_prediction`` stay ``None``.  ``search_objective`` is the
    encoded integer objective, ``improved`` whether search beat the
    construction it was seeded from.
    """
    from ..optimize import SUITE_OPTIONS, optimize_embedding

    result = optimize_embedding(guest, host, SUITE_OPTIONS)
    columns = _construction_columns(
        scenario.strategy,
        result.embedding,
        result.dilation,
        result.dilation_total / guest_edges if guest_edges else 0.0,
        result.congestion if options.with_congestion else None,
    )
    columns["matches_prediction"] = None
    columns.update(
        search_objective=result.objective,
        search_steps=result.steps,
        improved=result.improved,
    )
    return columns


def evaluate_scenario(scenario: Scenario, options: SurveyOptions) -> SurveyRecord:
    """Embed and measure one scenario, capturing failures as record status.

    Embedding scenarios measure the vectorized costs; simulation scenarios
    (``scenario.traffic`` set) additionally place the named traffic pattern
    on the host network and run the store-and-forward phase simulation.  The
    backend and the construction memo come from the ambient context.
    """
    guest = scenario.guest_graph()
    host = scenario.host_graph()
    base = _record_base(scenario, guest, host)
    started = time.perf_counter()
    try:
        if scenario.faults:
            columns = _fault_columns(scenario, guest, host)
        elif scenario.strategy == "optimize" and not scenario.traffic:
            columns = _optimize_columns(
                scenario, guest, host, base["guest_edges"], options
            )
        elif scenario.traffic:
            embedding = build_strategy(scenario.strategy, guest, host)
            pattern = traffic_pattern(scenario.traffic, guest)
            result = simulate_phase(HostNetwork(host), embedding, pattern)
            columns = _construction_columns(
                scenario.strategy,
                embedding,
                embedding.dilation(),
                embedding.average_dilation(),
                embedding.edge_congestion() if options.with_congestion else None,
            )
            columns.update(_simulation_columns(scenario.traffic, result))
        else:
            embedding = embed(guest, host)
            report = evaluate_embedding(
                embedding, with_congestion=options.with_congestion
            )
            columns = _construction_columns(
                embedding.strategy,
                embedding,
                report.dilation,
                report.average_dilation,
                report.congestion,
            )
    except Exception as error:  # noqa: BLE001 - one bad pair must not kill a sweep
        columns = _failure_columns(error)
    return SurveyRecord(
        elapsed_seconds=time.perf_counter() - started, **columns, **base
    )


#: True inside a survey pool worker process (set by the pool initializer).
#: An injected ``worker_crash`` kills the *process* there — the real fault,
#: exercising ``BrokenProcessPool`` recovery — but only raises inline.
_IN_POOL_WORKER = False


def _install_worker_context(context: ExecutionContext) -> None:
    """Pool initializer: adopt the parent's context (cache = warm start) and
    journal the cache's stores, which :func:`_run_shard` ships back."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    if context.cache is not None:
        context.cache.start_journal()
    set_default_context(context)


def evaluate_shard(
    scenarios: Sequence[Scenario], options: SurveyOptions
) -> List[SurveyRecord]:
    """Evaluate one shard, batched by default.

    The ambient context routes the shard: ``batch=True`` (the default) with
    an array-capable backend goes through the stacked kernels of
    :mod:`repro.survey.batch`; ``use_context(batch=False)`` — or a resolved
    loop backend — runs the retained per-scenario reference.  Both produce
    identical records (``elapsed_seconds`` aside), which the differential
    suite ``tests/test_survey_batch.py`` pins.

    Public because the service layer (:mod:`repro.service`) answers whole
    coalesced request batches through exactly this routing.
    """
    context = current()
    if context.batch and context.use_array():
        from .batch import evaluate_shard_batched

        return evaluate_shard_batched(scenarios, options)
    return [evaluate_scenario(scenario, options) for scenario in scenarios]


def _chaos_since(before: Dict[str, int]) -> Dict[str, int]:
    """The injected faults fired in this process since ``before``."""
    return {
        label: count - before.get(label, 0)
        for label, count in chaos_counters().items()
        if count != before.get(label, 0)
    }


def _run_shard(
    shard_index: int,
    scenarios: Sequence[Scenario],
    options: SurveyOptions,
    attempt: int = 0,
) -> Tuple[
    int, Union[List[SurveyRecord], Exception], Dict, Tuple[int, int], Dict[str, int]
]:
    """Worker entry point: evaluate one shard under the ambient context.

    Returns the shard's records plus, in a pool worker, the cache entries
    the worker stored since its last shard (its journal: new entries and
    replaced ones, such as an improved optimum), so the parent can merge
    them and keep one growing memo across shards and invocations, and the
    shard's (hits, misses) so pooled runs report true cache traffic; inline,
    the shard wrote the parent's own cache, so both stay empty.  Last comes
    the shard's injected-fault tally, so chaos counters survive the pool.
    A pool worker returns a failed shard's exception in place of its
    records, so its tally reaches the parent too (:func:`_merge_worker_result`
    raises it there); inline, the exception propagates.

    ``attempt`` keys the chaos plane's ``survey.shard`` injection point: a
    seeded plan decides crash-or-not as a pure function of
    ``(shard, attempt)``, so the schedule replays identically whatever the
    pool scheduling, and a retried shard draws a *fresh* decision.
    """
    chaos_before = chaos_counters()
    try:
        fault = inject(
            "survey.shard",
            key=("shard", shard_index, attempt),
            kinds=("worker_crash", "slow_io"),
        )
        if fault is not None:
            if _IN_POOL_WORKER:
                os._exit(1)  # a real crash: no cleanup, no result, broken pool
            raise InjectedFault(fault.kind, "survey.shard")
        cache = current().cache
        if _IN_POOL_WORKER and cache is not None:
            hits, misses = cache.hits, cache.misses
            records = evaluate_shard(scenarios, options)
            delta = cache.take_journal()
            counters = (cache.hits - hits, cache.misses - misses)
        else:
            records = evaluate_shard(scenarios, options)
            delta, counters = {}, (0, 0)
        if options.shard_dir is not None:
            shard_path = Path(options.shard_dir) / f"shard-{shard_index:04d}.json"
            write_json(records, shard_path)
    except Exception as error:  # noqa: BLE001 - the parent decides the retry
        if not _IN_POOL_WORKER:
            raise
        return shard_index, error, {}, (0, 0), _chaos_since(chaos_before)
    return shard_index, records, delta, counters, _chaos_since(chaos_before)


def _shards(scenarios: Sequence[Scenario], shard_size: int) -> List[Sequence[Scenario]]:
    size = max(1, shard_size)
    return [scenarios[start : start + size] for start in range(0, len(scenarios), size)]


def _load_finished_shard(
    path: Path, shard: Sequence[Scenario], options: SurveyOptions
) -> Optional[List[SurveyRecord]]:
    """Records of a previously finished shard file, or ``None``.

    A shard file is only reused when it parses, its record ids match the
    shard's scenario ids one-for-one (same sweep, same sharding) and its
    measured columns match the requested options (a shard written without
    congestion must not satisfy a ``with_congestion`` rerun, and vice
    versa); anything else — missing file, torn write, different scenario
    list or options — recomputes.  The backend is deliberately not
    fingerprinted: array and loop produce identical records by the
    differential contract.
    """
    if not path.is_file():
        return None
    try:
        records = read_json(path)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if [record.scenario_id for record in records] != [
        scenario.scenario_id for scenario in shard
    ]:
        return None
    if any(
        (record.congestion is not None) != options.with_congestion
        for record in records
        if record.status == "ok"
    ):
        return None
    return records


@dataclass
class _Recovery:
    """Mutable recovery tally of one run (folded into the report)."""

    retries: int = 0
    crash_recoveries: int = 0
    quarantined: int = 0


def _quarantine_records(
    shard: Sequence[Scenario], error: BaseException
) -> List[SurveyRecord]:
    """Status-``"failed"`` records for a shard abandoned after N attempts.

    The identification columns are filled from the scenarios themselves
    (building the small graph objects is cheap and cannot crash a worker —
    it runs in the parent); the measurement columns stay ``None``.
    """
    message = f"quarantined after repeated shard failures: {type(error).__name__}: {error}"
    records = []
    for scenario in shard:
        try:
            guest = scenario.guest_graph()
            host = scenario.host_graph()
            base = _record_base(scenario, guest, host)
        except Exception:  # noqa: BLE001 - a poison scenario must still record
            base = dict(
                scenario_id=scenario.scenario_id,
                guest=f"{scenario.guest_kind}:{scenario.guest_shape}",
                host=f"{scenario.host_kind}:{scenario.host_shape}",
                nodes=0,
                guest_edges=0,
                guest_size=0,
                faults=scenario.faults or None,
            )
        records.append(SurveyRecord(status="failed", error=message, **base))
    return records


def _merge_worker_result(result, results, context) -> None:
    """Fold one finished shard into the parent: chaos tally, then records
    and cache — or, for a shard that failed, raise its exception."""
    index, records, delta, (hits, misses), chaos_delta = result
    if chaos_delta:
        merge_chaos_counters(chaos_delta)
    if isinstance(records, Exception):
        raise records
    results[index] = records
    if context.cache is not None:
        # Fold the worker's memo traffic back into the parent: its stored
        # entries keep the cache growing across shards, and the counters
        # keep `--cache` reporting truthful.
        context.cache.merge(delta)
        context.cache.hits += hits
        context.cache.misses += misses


def _run_inline(pending, options, results, recovery, rng) -> None:
    """Sequential path: evaluate shards in-process with the same retry and
    quarantine semantics as the pooled path (injected crashes raise here)."""
    for index, shard in pending:
        attempt = 0
        while True:
            try:
                results[index] = _run_shard(index, shard, options, attempt)[1]
                break
            except Exception as error:  # noqa: BLE001 - retry any shard failure
                attempt += 1
                if attempt >= options.retry.max_attempts:
                    recovery.quarantined += 1
                    results[index] = _quarantine_records(shard, error)
                    break
                recovery.retries += 1
                time.sleep(options.retry.delay(attempt - 1, rng))


def _run_pooled(pending, options, context, workers, results, recovery, rng) -> None:
    """Pooled path: one pool per *round*; a broken pool (crashed worker)
    ends the round, charges an attempt to every shard that was in flight,
    and the next round resubmits only the unfinished frontier on a fresh
    pool.  Shards out of attempts are quarantined between rounds; plain
    (non-crash) shard failures retry within the round after their backoff
    delay.
    """
    queue: Dict[int, Sequence[Scenario]] = dict(pending)
    attempts: Dict[int, int] = {index: 0 for index, _ in pending}
    errors: Dict[int, BaseException] = {}
    casualties: List[int] = []  # shards charged when the round's pool broke

    def _charge(index: int, error: BaseException) -> bool:
        """One failed attempt; True when the shard is out of attempts."""
        errors[index] = error
        attempts[index] += 1
        return attempts[index] >= options.retry.max_attempts

    while queue:
        # Quarantine anything out of attempts before spending a fresh pool.
        for index in [
            i for i in sorted(queue) if attempts[i] >= options.retry.max_attempts
        ]:
            recovery.quarantined += 1
            results[index] = _quarantine_records(queue.pop(index), errors[index])
        if not queue:
            break
        round_broke = False
        pool_workers = min(workers, len(queue))
        with ProcessPoolExecutor(
            max_workers=pool_workers,
            initializer=_install_worker_context,
            initargs=(context,),
        ) as pool:
            # Windowed submission: at most `pool_workers` shards in flight,
            # so every submitted future is (about to be) running — which
            # makes the crash blast radius (who gets charged an attempt)
            # accurate.
            unsubmitted: List[int] = sorted(queue)
            futures: Dict[object, int] = {}
            retry_at: List[Tuple[float, int]] = []  # (due time, shard index)
            try:
                while futures or retry_at or unsubmitted:
                    now = time.monotonic()
                    while retry_at and retry_at[0][0] <= now:
                        unsubmitted.append(retry_at.pop(0)[1])
                    while unsubmitted and len(futures) < pool_workers:
                        index = unsubmitted.pop(0)
                        future = pool.submit(
                            _run_shard, index, queue[index], options, attempts[index]
                        )
                        futures[future] = index
                    # Block until a shard finishes or the earliest retry is due.
                    due = retry_at[0][0] - now if retry_at else None
                    if not futures:
                        time.sleep(due)  # only backoff timers left
                        continue
                    done, _ = wait(futures, timeout=due, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = futures.pop(future)
                        try:
                            _merge_worker_result(future.result(), results, context)
                            queue.pop(index, None)
                        except BrokenProcessPool as error:
                            # Every in-flight shard is a casualty of the same
                            # crash; charge them all (the crasher is among
                            # them, and charging is what guarantees a poison
                            # shard eventually quarantines) and respawn.
                            casualties.extend([index, *futures.values()])
                            for casualty in casualties:
                                _charge(casualty, error)
                            round_broke = True
                            break
                        except Exception as error:  # noqa: BLE001 - shard failure
                            if _charge(index, error):
                                recovery.quarantined += 1
                                results[index] = _quarantine_records(
                                    queue.pop(index), error
                                )
                                continue
                            recovery.retries += 1
                            delay = options.retry.delay(attempts[index] - 1, rng)
                            retry_at.append((time.monotonic() + delay, index))
                            retry_at.sort()
                    if round_broke:
                        recovery.crash_recoveries += 1
                        break
            except KeyboardInterrupt:
                # Ctrl-C mid-sweep: drop the queued shards and stop handing
                # work to the pool, so the interpreter isn't left waiting on
                # workers for scenarios nobody will read.  Finished shard
                # files (if any) make the next run a resume, not a restart.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        if round_broke:
            # Only the charged casualties are retried: shards that never
            # started in the broken round owe no attempt.
            retried = [
                index
                for index in casualties
                if attempts[index] < options.retry.max_attempts
            ]
            casualties.clear()
            if retried:
                recovery.retries += len(retried)
                worst = max(attempts[index] for index in retried)
                time.sleep(options.retry.delay(worst - 1, rng))


def run_survey(
    scenarios: Sequence[Scenario], options: Optional[SurveyOptions] = None
) -> SurveyReport:
    """Evaluate every scenario and return the merged, deterministic report.

    Records are returned in the input scenario order whatever the worker
    scheduling; two runs over the same scenario list produce identical
    records (modulo the ``elapsed_seconds`` timings).  The worker count and
    shard size come from ``options`` alone; worker processes inherit the
    full context — backend, cache warm start and all.
    """
    options = options or SurveyOptions()
    context = current()
    scenarios = list(scenarios)
    workers = options.workers
    if workers is None:
        workers = os.cpu_count() or 1
    shard_size = options.shard_size
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    started = time.perf_counter()
    chaos_before = chaos_counters()
    recovery = _Recovery()
    # Deterministic backoff jitter: seeded by the chaos plan when present so
    # a replayed fault schedule replays its recovery delays too.
    rng = SplitMix64(context.chaos.seed if context.chaos is not None else 0)
    shards = _shards(scenarios, shard_size)
    results: Dict[int, List[SurveyRecord]] = {}
    shard_paths: List[str] = []
    reused: List[int] = []
    if options.shard_dir is not None and options.resume:
        for index, shard in enumerate(shards):
            cached = _load_finished_shard(
                Path(options.shard_dir) / f"shard-{index:04d}.json", shard, options
            )
            if cached is not None:
                results[index] = cached
                reused.append(index)
    pending = [(index, shard) for index, shard in enumerate(shards) if index not in results]
    if workers <= 1 or len(pending) <= 1:
        workers = 1
        _run_inline(pending, options, results, recovery, rng)
    else:
        workers = min(workers, len(pending))
        _run_pooled(pending, options, context, workers, results, recovery, rng)
    if options.shard_dir is not None:
        shard_paths = [
            str(Path(options.shard_dir) / f"shard-{index:04d}.json")
            for index in sorted(results)
        ]
    merged: List[SurveyRecord] = []
    for index in sorted(results):
        merged.extend(results[index])
    return SurveyReport(
        records=merged,
        elapsed_seconds=time.perf_counter() - started,
        workers=workers,
        shard_paths=shard_paths,
        reused_shard_indices=reused,
        cache_entries=(
            context.cache.construction_count if context.cache is not None else 0
        ),
        retries=recovery.retries,
        crash_recoveries=recovery.crash_recoveries,
        quarantined=recovery.quarantined,
        chaos_faults=_chaos_since(chaos_before),
    )
