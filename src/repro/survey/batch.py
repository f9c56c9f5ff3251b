"""Batched survey shard evaluation — no per-scenario Python in the hot loop.

:func:`repro.survey.runner.run_survey` used to pay full Python overhead per
scenario: one ``embed`` call, one ``evaluate_embedding`` call and a fresh
``edge_index_arrays`` derivation per record, plus a per-message traffic
rebuild and one event loop per simulation scenario.  This module evaluates a
whole *shard* at once instead:

* scenarios are grouped by their ``(guest kind+shape, host kind+shape)``
  signature; graphs are interned per ``(kind, shape)`` by
  :func:`~repro.graphs.base.make_graph`, so every signature shares its
  guest's edge-index arrays, derived once per process;
* dilation and average dilation of every row of every signature come from
  one ragged :func:`~repro.analysis.metrics.stacked_dilation_summary` call
  per shard, and congestion (when asked for) from one
  :func:`~repro.analysis.metrics.stacked_congestion` call per signature
  over its ``(batch, size)`` stack — bit-for-bit the per-scenario values;
* simulation scenarios share one memoized traffic pattern per
  ``(pattern, guest signature)`` and one
  :class:`~repro.netsim.network.HostNetwork` per host signature, and all of
  a shard's phases advance together through one round-based vectorized event
  loop (:func:`repro.netsim.simulator.simulate_endpoint_phases`);
* records are assembled column-wise from the stacked results, in scenario
  order, each built once at the end with its share of the shard's time.

The per-scenario path (:func:`repro.survey.runner.evaluate_scenario`) stays
as the cross-checked reference — ``use_context(batch=False)`` forces it, and
the differential suite ``tests/test_survey_batch.py`` pins the two paths'
records byte-identical (``elapsed_seconds`` timings aside).  Any signature
group or simulation phase the batched kernels cannot handle falls back to
the reference path for exactly the affected scenarios (a failed shard-wide
measurement re-runs group by group first), so failure semantics (one bad
pair must not kill a sweep) are preserved record for record.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from ..analysis.metrics import (
    stack_host_index_arrays,
    stacked_congestion,
    stacked_dilation_summary,
)
from ..exceptions import UnsupportedEmbeddingError
from ..graphs.base import CartesianGraph
from ..netsim import (
    HostNetwork,
    simulate_endpoint_phases,
    traffic_pattern,
    traffic_rank_arrays,
)
from ..runtime.registry import build_strategy
from .scenarios import Scenario
from .store import SurveyRecord

__all__ = ["evaluate_shard_batched"]

#: A graph identity: (kind value, shape) — the unit of graph/traffic sharing.
GraphSpec = Tuple[str, Tuple[int, ...]]


class _ShardState:
    """Per-shard memo of networks, traffic patterns and builds."""

    def __init__(self):
        self.networks: Dict[GraphSpec, HostNetwork] = {}
        self.patterns: Dict[Tuple[str, GraphSpec], Tuple[str, object]] = {}
        self.builds: Dict[Tuple[str, GraphSpec, GraphSpec], Tuple[str, object]] = {}

    def network(self, host: CartesianGraph) -> HostNetwork:
        spec = (host.kind.value, host.shape)
        network = self.networks.get(spec)
        if network is None:
            network = HostNetwork(host)
            self.networks[spec] = network
        return network

    def endpoints(self, name: str, guest: CartesianGraph) -> Tuple[str, object]:
        """``("ok", (source_ranks, target_ranks, sizes))`` or ``("error", msg)``.

        Memoized per ``(pattern, guest signature)``.  The three built-in
        patterns come from the vectorized rank generators
        (:func:`repro.netsim.traffic.traffic_rank_arrays` — no ``Message``
        tuples); plugin patterns fall back to building the pattern once and
        converting it, and unknown names memoize the same error message the
        reference path records.
        """
        key = (name, (guest.kind.value, guest.shape))
        entry = self.patterns.get(key)
        if entry is None:
            try:
                arrays = traffic_rank_arrays(name, guest)
                if arrays is None:
                    arrays = traffic_pattern(name, guest).endpoint_rank_arrays(
                        guest.shape
                    )
                entry = ("ok", arrays)
            except Exception as error:  # noqa: BLE001 - mirrored as an error record
                entry = ("error", f"{type(error).__name__}: {error}")
            self.patterns[key] = entry
        return entry

    def embedding(
        self, strategy: str, guest: CartesianGraph, host: CartesianGraph
    ) -> Tuple[str, object]:
        """``("ok", embedding)``, ``("unsupported", msg)`` or ``("error", msg)``.

        Memoized per ``(strategy, guest, host)`` signature; the underlying
        builder already memoizes through the context cache when one is
        installed, so the local dict only removes repeated Python dispatch
        within the shard.
        """
        key = (strategy, (guest.kind.value, guest.shape), (host.kind.value, host.shape))
        entry = self.builds.get(key)
        if entry is None:
            try:
                entry = ("ok", build_strategy(strategy, guest, host))
            except UnsupportedEmbeddingError as error:
                entry = ("unsupported", str(error))
            except Exception as error:  # noqa: BLE001 - mirrored as an error record
                entry = ("error", f"{type(error).__name__}: {error}")
            self.builds[key] = entry
        return entry


def _shard_metrics(groups, with_congestion):
    """Stacked ``(signature, strategy) -> (dilation, average, congestion)``.

    One ragged :func:`stacked_dilation_summary` call measures every row of
    every signature group in ``groups``; congestion, when asked for, runs
    per signature through :func:`stacked_congestion`.  If that raises, the
    same kernels re-run group by group, and only the groups that still
    raise are left out: the caller hands exactly their scenarios to the
    per-scenario reference.
    """
    try:
        return _measure_groups(groups, with_congestion)
    except Exception:  # noqa: BLE001 - isolate the failing group(s)
        metrics = {}
        for signature, group in groups.items():
            try:
                metrics.update(
                    _measure_groups({signature: group}, with_congestion)
                )
            except Exception:  # noqa: BLE001 - group falls back to the reference path
                continue
        return metrics


def _measure_groups(groups, with_congestion):
    """The measurement of :func:`_shard_metrics`; raises on any failure."""
    keys, hosts, edge_us, edge_vs, images = [], [], [], [], []
    for signature, group in groups.items():
        edge_u, edge_v = group["guest"].edge_index_arrays()
        for strategy, embedding in group["rows"].items():
            keys.append((signature, strategy))
            hosts.append(group["host"])
            edge_us.append(edge_u)
            edge_vs.append(edge_v)
            images.append(embedding.host_index_array())
    dilation, average = stacked_dilation_summary(hosts, edge_us, edge_vs, images)
    congestion = [None] * len(keys)
    if with_congestion:
        row = 0
        for group in groups.values():
            host, embeddings = group["host"], list(group["rows"].values())
            column = stacked_congestion(
                host,
                edge_us[row],
                edge_vs[row],
                stack_host_index_arrays(embeddings, host),
            )
            congestion[row : row + len(embeddings)] = column.tolist()
            row += len(embeddings)
    return dict(zip(keys, zip(dilation.tolist(), average.tolist(), congestion)))


def evaluate_shard_batched(
    scenarios: Sequence[Scenario], options
) -> List[SurveyRecord]:
    """Evaluate one shard through the batched kernels (array backend only).

    Returns records in scenario order, byte-identical to
    ``[evaluate_scenario(s, options) for s in scenarios]`` up to the
    ``elapsed_seconds`` timing column (batched records carry the per-record
    share of the shard's wall time).
    """
    from .runner import _record_base, evaluate_scenario  # lazy: runner imports us

    started = time.perf_counter()
    state = _ShardState()
    # Per position: a finished reference-path record (with its own timing)
    # or a batched record's columns, built into a record once at the end.
    records: List[object] = [None] * len(scenarios)

    # ---------------------------------------------------------------- #
    # Pass 1: resolve graphs and constructions, group by signature.
    # ---------------------------------------------------------------- #
    groups: Dict[Tuple[GraphSpec, GraphSpec], Dict] = {}
    sim_jobs: List[Dict] = []
    for position, scenario in enumerate(scenarios):
        if scenario.faults or scenario.strategy == "optimize":
            # Degraded-host scenarios repair around a per-scenario fault
            # mask — nothing to share across the shard — so they take the
            # reference path wholesale (its record, byte for byte).  Search
            # scenarios likewise: the optimizer *is* the batched computation
            # (its population already rides the stacked kernels), so the
            # shard-level grouping has nothing further to fuse.
            records[position] = evaluate_scenario(scenario, options)
            continue
        guest = scenario.guest_graph()
        host = scenario.host_graph()
        base = _record_base(scenario, guest, host)
        # Embedding scenarios always measure the paper dispatcher's
        # construction (the reference path calls `embed`, which is
        # `build_strategy("paper", ...)`); simulation scenarios build the
        # strategy they name.
        strategy = scenario.strategy if scenario.traffic else "paper"
        status, payload = state.embedding(strategy, guest, host)
        if status != "ok":
            records[position] = dict(base, status=status, error=payload)
            continue
        signature = ((guest.kind.value, guest.shape), (host.kind.value, host.shape))
        group = groups.setdefault(
            signature, {"guest": guest, "host": host, "rows": {}, "uses": []}
        )
        group["rows"].setdefault(strategy, payload)
        group["uses"].append((position, strategy, scenario, base))
        if scenario.traffic:
            sim_jobs.append(
                {
                    "position": position,
                    "signature": signature,
                    "strategy": strategy,
                    "scenario": scenario,
                    "base": base,
                    "embedding": payload,
                    "network": state.network(host),
                }
            )

    # ---------------------------------------------------------------- #
    # Pass 2: one ragged measurement pass over every row of the shard.
    # ---------------------------------------------------------------- #
    metrics = _shard_metrics(groups, options.with_congestion)

    # ---------------------------------------------------------------- #
    # Pass 3: all simulation phases through one vectorized event loop.
    # ---------------------------------------------------------------- #
    outcomes: Dict[int, object] = {}  # position -> SimulationResult | Exception
    ready_jobs = []
    for job in sim_jobs:
        if (job["signature"], job["strategy"]) not in metrics:
            # The group's stacked metrics already fell back: pass 4 hands
            # the whole scenario to the reference evaluator, which runs its
            # own simulation — don't advance the phase twice.
            continue
        status, payload = state.endpoints(
            job["scenario"].traffic, groups[job["signature"]]["guest"]
        )
        if status != "ok":
            records[job["position"]] = dict(job["base"], status="error", error=payload)
        else:
            job["endpoints"] = payload
            ready_jobs.append(job)
    if ready_jobs:
        # Fault scenarios took the reference path in pass 1: no faults here.
        phases = [
            (job["network"], job["embedding"], job["endpoints"], None)
            for job in ready_jobs
        ]
        try:
            results = simulate_endpoint_phases(phases)
        except Exception:  # noqa: BLE001 - isolate the failing phase(s)
            results = []
            for phase in phases:
                try:
                    results.append(simulate_endpoint_phases([phase])[0])
                except Exception as error:  # noqa: BLE001
                    results.append(error)
        for job, result in zip(ready_jobs, results):
            outcomes[job["position"]] = result

    # ---------------------------------------------------------------- #
    # Pass 4: assemble records column-wise, in scenario order.
    # ---------------------------------------------------------------- #
    for signature, group in groups.items():
        for position, strategy, scenario, base in group["uses"]:
            if records[position] is not None:
                continue
            values = metrics.get((signature, strategy))
            if values is None:
                # Stacked kernels declined this group: reference path.
                records[position] = evaluate_scenario(scenario, options)
                continue
            dilation, average, congestion = values
            embedding = group["rows"][strategy]
            if not scenario.traffic:
                records[position] = dict(
                    base,
                    status="ok",
                    strategy=embedding.strategy,
                    predicted_dilation=embedding.predicted_dilation,
                    dilation=dilation,
                    average_dilation=average,
                    congestion=congestion,
                    matches_prediction=embedding.matches_prediction(measured=dilation),
                )
                continue
            outcome = outcomes.get(position)
            if outcome is None or isinstance(outcome, Exception):
                if isinstance(outcome, UnsupportedEmbeddingError):
                    records[position] = dict(
                        base, status="unsupported", error=str(outcome)
                    )
                elif isinstance(outcome, Exception):
                    records[position] = dict(
                        base,
                        status="error",
                        error=f"{type(outcome).__name__}: {outcome}",
                    )
                else:  # no outcome recorded at all: reference path
                    records[position] = evaluate_scenario(scenario, options)
                continue
            statistics = outcome.statistics
            records[position] = dict(
                base,
                status="ok",
                strategy=scenario.strategy,
                predicted_dilation=embedding.predicted_dilation,
                dilation=dilation,
                average_dilation=average,
                congestion=congestion,
                matches_prediction=embedding.matches_prediction(measured=dilation),
                traffic=scenario.traffic,
                messages=statistics.num_messages,
                max_hops=statistics.max_hops,
                max_link_load=statistics.max_link_load_messages,
                estimated_time=statistics.estimated_completion_time,
                makespan=outcome.makespan,
            )

    share = (time.perf_counter() - started) / max(len(scenarios), 1)
    return [
        SurveyRecord(elapsed_seconds=share, **record)
        if isinstance(record, dict)
        else record
        for record in records
    ]
