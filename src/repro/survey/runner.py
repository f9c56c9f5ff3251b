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
shard, failed ones included, ships every entry the worker stored since
its last shard, new or replaced (an optimum the search improved), with its
hit/miss counts, and the parent merges them —
keeping the better of two optima — so its cache keeps growing across
shards and invocations.

``workers <= 1`` (or a single shard) runs inline in the calling process —
the mode used by tests and ``repro survey --smoke`` — where shards write
the parent's own cache and ship nothing.

Both evaluators — the per-scenario reference :func:`evaluate_scenario` and
the batched :mod:`repro.survey.batch` — fill rows of a
:class:`~repro.survey.store.RecordTable` through the same column builders
(:func:`_record_base`, :func:`_construction_columns`,
:func:`_simulation_columns`, :func:`_failure_columns`); only the measured
values come from different kernels.  Every shard result is a table (fresh,
resumed from its file, or quarantined), pool workers ship tables, and
:attr:`SurveyReport.records` is their concatenation in shard order, so a
:class:`~repro.survey.store.SurveyRecord` is built only for a row a caller
reads.

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

import functools
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
from ..graphs.base import make_graph
from ..netsim import HostNetwork, simulate_phase, traffic_pattern
from ..numbering.arrays import _SHAPE_MEMO_SIZE
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
from .store import RecordTable, SurveyRecord, read_json, write_json

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

    ``records`` is the survey's :class:`~repro.survey.store.RecordTable`, in
    scenario order; it builds a :class:`~repro.survey.store.SurveyRecord`
    only for the rows a caller reads, and :attr:`ok`, :attr:`unsupported`,
    :attr:`failed`, :meth:`strategy_histogram` and :meth:`summary_rows` read
    its columns, building records only for the rows they return.

    The recovery counters report the run's fault traffic: ``retries`` is
    every shard attempt after the first, ``crash_recoveries`` every pool
    respawn after a broken worker, ``quarantined`` the shards abandoned
    after exhausting their attempts (their scenarios carry status
    ``"failed"``), and ``chaos_faults`` the injected-fault tally
    (``site:kind`` → count) when a chaos plan was active.
    """

    records: RecordTable
    elapsed_seconds: float
    workers: int
    shard_paths: List[str] = field(default_factory=list)
    reused_shard_indices: List[int] = field(default_factory=list)
    cache_entries: int = 0  # memoized constructions in the context cache
    retries: int = 0
    crash_recoveries: int = 0
    quarantined: int = 0
    chaos_faults: Dict[str, int] = field(default_factory=dict)

    def _with_status(self, *statuses: str) -> List[SurveyRecord]:
        records = self.records
        return [
            records[row]
            for row, status in enumerate(records.columns["status"])
            if status in statuses
        ]

    @property
    def ok(self) -> List[SurveyRecord]:
        return self._with_status("ok")

    @property
    def unsupported(self) -> List[SurveyRecord]:
        return self._with_status("unsupported")

    @property
    def failed(self) -> List[SurveyRecord]:
        """Records that did not produce a measurement: unexpected errors
        (status ``"error"``) and quarantined scenarios (status ``"failed"``)."""
        return self._with_status("error", "failed")

    def _measured_rows(self) -> Dict[str, List[int]]:
        """The rows of the measured records per strategy name, alphabetically
        (one pass over the status and strategy columns)."""
        columns = self.records.columns
        rows: Dict[str, List[int]] = {}
        for row, (status, strategy) in enumerate(
            zip(columns["status"], columns["strategy"])
        ):
            if status == "ok":
                rows.setdefault(strategy or "?", []).append(row)
        return dict(sorted(rows.items()))

    def strategy_histogram(self) -> Dict[str, int]:
        """Measured-record count per strategy name, alphabetically."""
        return {strategy: len(rows) for strategy, rows in self._measured_rows().items()}

    def summary_rows(self) -> List[Dict[str, object]]:
        """Tabular summary used by the CLI (one row per strategy).

        When the report contains simulation records a ``mean makespan``
        column is appended (averaged over each strategy's simulated phases).
        """
        columns = self.records.columns
        dilation = columns["dilation"]
        average = columns["average_dilation"]
        holds = columns["matches_prediction"]
        makespans = columns["makespan"]
        groups = self._measured_rows()
        with_makespan = any(
            makespans[row] is not None for rows in groups.values() for row in rows
        )
        summary: List[Dict[str, object]] = []
        for strategy, rows in groups.items():
            entry: Dict[str, object] = {
                "strategy": strategy,
                "pairs": len(rows),
                "max dilation": max(dilation[row] for row in rows),
                "mean avg-dilation": round(
                    sum(average[row] for row in rows) / len(rows), 3
                ),
                "prediction holds": sum(1 for row in rows if holds[row]),
            }
            if with_makespan:
                simulated = [
                    makespans[row] for row in rows if makespans[row] is not None
                ]
                entry["mean makespan"] = (
                    round(sum(simulated) / len(simulated), 1) if simulated else "-"
                )
            summary.append(entry)
        return summary


def _graph_columns(graph) -> Tuple[str, int, int]:
    """A graph's identification columns: its repr, edge count and size."""
    return _shape_columns(graph.kind_value, graph.shape)


@functools.lru_cache(maxsize=_SHAPE_MEMO_SIZE)
def _shape_columns(kind: str, shape: Tuple[int, ...]) -> Tuple[str, int, int]:
    """:func:`_graph_columns` memoized once per kind and shape, with the
    bound of :func:`~repro.graphs.base.make_graph`'s interning.  Keyed on
    the pair, not the graph, so the memo keeps no graph (nor its derived
    arrays) alive after the interning drops it."""
    graph = make_graph(kind, shape)
    return repr(graph), graph.num_edges(), graph.size


# The column builders below are the one definition of each block of a
# record's columns, for both evaluators: the per-scenario reference
# (:func:`evaluate_scenario`) and the batched shard evaluator
# (:mod:`repro.survey.batch`), whose byte-identity contract would silently
# break if the two drifted.  Each writes its block into one row of a
# :class:`~repro.survey.store.RecordTable` and leaves the other cells alone.


def _record_base(table: RecordTable, row: int, scenario: Scenario, guest, host) -> None:
    """The identification columns shared by every record of a scenario:
    ``scenario_id``, the graph columns and ``faults``."""
    guest_name, guest_edges, guest_size = _graph_columns(guest)
    host_name, _, nodes = _graph_columns(host)
    columns = table.columns
    columns["scenario_id"][row] = scenario.scenario_id
    columns["guest"][row] = guest_name
    columns["host"][row] = host_name
    columns["nodes"][row] = nodes
    columns["guest_edges"][row] = guest_edges
    columns["guest_size"][row] = guest_size
    columns["faults"][row] = scenario.faults or None


def _construction_columns(
    table: RecordTable,
    row: int,
    strategy: Optional[str],
    embedding,
    dilation,
    average,
    congestion,
) -> None:
    """The columns of a measured construction: ``status`` ``"ok"`` through
    ``matches_prediction``, with the theorem's prediction read from
    ``embedding`` and checked against the measured ``dilation``."""
    predicted = embedding.predicted_dilation
    holds = embedding.matches_prediction(measured=dilation)
    columns = table.columns
    columns["status"][row] = "ok"
    columns["strategy"][row] = strategy
    columns["predicted_dilation"][row] = predicted
    columns["dilation"][row] = dilation
    columns["average_dilation"][row] = average
    columns["congestion"][row] = congestion
    columns["matches_prediction"][row] = holds


def _simulation_columns(table: RecordTable, row: int, traffic: str, result) -> None:
    """The columns of a simulated phase: ``traffic`` through ``makespan``."""
    statistics = result.statistics
    columns = table.columns
    columns["traffic"][row] = traffic
    columns["messages"][row] = statistics.num_messages
    columns["max_hops"][row] = statistics.max_hops
    columns["max_link_load"][row] = statistics.max_link_load_messages
    columns["estimated_time"][row] = statistics.estimated_completion_time
    columns["makespan"][row] = result.makespan


def _failure_columns(table: RecordTable, row: int, error: BaseException) -> None:
    """The columns of a scenario that raised: ``"unsupported"`` with the
    message when the strategy has no construction for the pair, ``"error"``
    with ``Type: message`` for anything else."""
    columns = table.columns
    if isinstance(error, UnsupportedEmbeddingError):
        columns["status"][row] = "unsupported"
        columns["error"][row] = str(error)
    else:
        columns["status"][row] = "error"
        columns["error"][row] = f"{type(error).__name__}: {error}"


def _fault_columns(
    table: RecordTable, row: int, scenario: Scenario, guest, host
) -> None:
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
    _construction_columns(
        table, row, scenario.strategy, embedding, dilation, average_dilation, None
    )
    table.columns["matches_prediction"][row] = None
    if scenario.traffic:
        pattern = traffic_pattern(scenario.traffic, guest)
        result = simulate_phase(HostNetwork(host), repaired, pattern, faults=faults)
        _simulation_columns(table, row, scenario.traffic, result)


def _optimize_columns(
    table: RecordTable,
    row: int,
    scenario: Scenario,
    guest,
    host,
    options: SurveyOptions,
) -> None:
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
    guest_edges = _graph_columns(guest)[1]
    _construction_columns(
        table,
        row,
        scenario.strategy,
        result.embedding,
        result.dilation,
        result.dilation_total / guest_edges if guest_edges else 0.0,
        result.congestion if options.with_congestion else None,
    )
    columns = table.columns
    columns["matches_prediction"][row] = None
    columns["search_objective"][row] = result.objective
    columns["search_steps"][row] = result.steps
    columns["improved"][row] = result.improved


def _evaluate_row(
    table: RecordTable, row: int, scenario: Scenario, options: SurveyOptions
) -> None:
    """The per-scenario reference evaluation of ``scenario``, into ``row``.

    Embedding scenarios measure the vectorized costs; simulation scenarios
    (``scenario.traffic`` set) additionally place the named traffic pattern
    on the host network and run the store-and-forward phase simulation.  A
    scenario that raises records the failure in its status columns, and
    the row's ``elapsed_seconds`` is its own evaluation time.
    """
    guest = scenario.guest_graph()
    host = scenario.host_graph()
    started = time.perf_counter()
    try:
        if scenario.faults:
            _fault_columns(table, row, scenario, guest, host)
        elif scenario.strategy == "optimize" and not scenario.traffic:
            _optimize_columns(table, row, scenario, guest, host, options)
        elif scenario.traffic:
            embedding = build_strategy(scenario.strategy, guest, host)
            pattern = traffic_pattern(scenario.traffic, guest)
            result = simulate_phase(HostNetwork(host), embedding, pattern)
            _construction_columns(
                table,
                row,
                scenario.strategy,
                embedding,
                embedding.dilation(),
                embedding.average_dilation(),
                embedding.edge_congestion() if options.with_congestion else None,
            )
            _simulation_columns(table, row, scenario.traffic, result)
        else:
            embedding = embed(guest, host)
            report = evaluate_embedding(
                embedding, with_congestion=options.with_congestion
            )
            _construction_columns(
                table,
                row,
                embedding.strategy,
                embedding,
                report.dilation,
                report.average_dilation,
                report.congestion,
            )
    except Exception as error:  # noqa: BLE001 - one bad pair must not kill a sweep
        table.clear(row)  # drop what a measurement wrote before it raised
        _failure_columns(table, row, error)
    _record_base(table, row, scenario, guest, host)
    table.columns["elapsed_seconds"][row] = time.perf_counter() - started


def evaluate_scenario(scenario: Scenario, options: SurveyOptions) -> SurveyRecord:
    """Embed and measure one scenario, capturing failures as record status.

    The per-scenario reference: one row evaluated into a one-row table
    through the same column builders as the batched evaluator.  The
    backend and the construction memo come from the ambient context.
    """
    table = RecordTable.blank(1)
    _evaluate_row(table, 0, scenario, options)
    return table[0]


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
) -> RecordTable:
    """Evaluate one shard into a record table, batched by default.

    The ambient context routes the shard: ``batch=True`` (the default) with
    an array-capable backend goes through the stacked kernels of
    :mod:`repro.survey.batch`; ``use_context(batch=False)`` — or a resolved
    loop backend — runs the retained per-scenario reference, row by row.
    Both produce identical records (``elapsed_seconds`` aside), which the
    differential suite ``tests/test_survey_batch.py`` pins.

    Public because the service layer (:mod:`repro.service`) answers whole
    coalesced request batches through exactly this routing.
    """
    context = current()
    if context.batch and context.use_array():
        from .batch import evaluate_shard_batched

        return evaluate_shard_batched(scenarios, options)
    table = RecordTable.blank(len(scenarios))
    for row, scenario in enumerate(scenarios):
        _evaluate_row(table, row, scenario, options)
    return table


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
) -> Tuple[int, Union[RecordTable, Exception], Dict, Tuple[int, int], Dict[str, int]]:
    """Worker entry point: evaluate one shard under the ambient context.

    Returns the shard's record table plus, in a pool worker, the cache
    entries the worker stored since its last shard (its journal: new entries
    and replaced ones, such as an improved optimum), so the parent can merge
    them and keep one growing memo across shards and invocations, and the
    shard's (hits, misses) so pooled runs report true cache traffic; inline,
    the shard wrote the parent's own cache, so both stay empty.  Last comes
    the shard's injected-fault tally, so chaos counters survive the pool.
    A pool worker returns a failed shard's exception in place of its table,
    with the same journal, counters and tally, so the constructions it
    built and the faults it fired reach the parent too
    (:func:`_merge_worker_result` merges them, then raises the exception);
    inline, the exception propagates.

    ``attempt`` keys the chaos plane's ``survey.shard`` injection point: a
    seeded plan decides crash-or-not as a pure function of
    ``(shard, attempt)``, so the schedule replays identically whatever the
    pool scheduling, and a retried shard draws a *fresh* decision.
    """
    chaos_before = chaos_counters()
    cache = current().cache if _IN_POOL_WORKER else None
    if cache is not None:
        hits, misses = cache.hits, cache.misses
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
        outcome = evaluate_shard(scenarios, options)
        if options.shard_dir is not None:
            shard_path = Path(options.shard_dir) / f"shard-{shard_index:04d}.json"
            write_json(outcome, shard_path)
    except Exception as error:  # noqa: BLE001 - the parent decides the retry
        if not _IN_POOL_WORKER:
            raise
        outcome = error
    if cache is None:
        return shard_index, outcome, {}, (0, 0), _chaos_since(chaos_before)
    counters = (cache.hits - hits, cache.misses - misses)
    return (
        shard_index,
        outcome,
        cache.take_journal(),
        counters,
        _chaos_since(chaos_before),
    )


def _shards(scenarios: Sequence[Scenario], shard_size: int) -> List[Sequence[Scenario]]:
    size = max(1, shard_size)
    return [scenarios[start : start + size] for start in range(0, len(scenarios), size)]


def _load_finished_shard(
    path: Path, shard: Sequence[Scenario], options: SurveyOptions
) -> Optional[RecordTable]:
    """The records of a previously finished shard file, or ``None``.

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
    return RecordTable.from_records(records)


@dataclass
class _Recovery:
    """Mutable recovery tally of one run (folded into the report)."""

    retries: int = 0
    crash_recoveries: int = 0
    quarantined: int = 0


def _quarantine_records(
    shard: Sequence[Scenario], error: BaseException
) -> RecordTable:
    """Status-``"failed"`` records for a shard abandoned after N attempts.

    The identification columns are filled from the scenarios themselves
    (building the small graph objects is cheap and cannot crash a worker —
    it runs in the parent); the measurement columns stay ``None``.
    """
    message = f"quarantined after repeated shard failures: {type(error).__name__}: {error}"
    table = RecordTable.blank(len(shard))
    for row, scenario in enumerate(shard):
        try:
            guest = scenario.guest_graph()
            host = scenario.host_graph()
            _record_base(table, row, scenario, guest, host)
        except Exception:  # noqa: BLE001 - a poison scenario must still record
            poison = SurveyRecord(
                scenario_id=scenario.scenario_id,
                guest=f"{scenario.guest_kind}:{scenario.guest_shape}",
                host=f"{scenario.host_kind}:{scenario.host_shape}",
                nodes=0,
                guest_edges=0,
                status="failed",
                guest_size=0,
                faults=scenario.faults or None,
            )
            table.put(row, poison)
    columns = table.columns
    columns["status"] = ["failed"] * len(shard)
    columns["error"] = [message] * len(shard)
    columns["elapsed_seconds"] = [0.0] * len(shard)
    return table


def _merge_worker_result(result, results, context) -> None:
    """Fold one finished shard into the parent: chaos tally and cache
    traffic, then its table — or, for a shard that failed, raise its
    exception."""
    index, outcome, delta, (hits, misses), chaos_delta = result
    if chaos_delta:
        merge_chaos_counters(chaos_delta)
    if context.cache is not None:
        # Fold the worker's memo traffic back into the parent, failed
        # shards' included: its stored entries keep the cache growing
        # across shards, and the counters keep `--cache` reporting truthful.
        context.cache.merge(delta)
        context.cache.hits += hits
        context.cache.misses += misses
    if isinstance(outcome, Exception):
        raise outcome
    results[index] = outcome


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
    results: Dict[int, RecordTable] = {}
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
    return SurveyReport(
        records=RecordTable.concat(results[index] for index in sorted(results)),
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
