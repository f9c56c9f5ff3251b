"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each entry wraps one public function where its caller looks it up, so a
span measures exactly the calls that layer makes.  The names are the
``per_layer`` metrics of ``BENCHMARK.json``; every workload reports all of
them, with 0 for a layer it leaves idle.
"""

from __future__ import annotations

import importlib
import os
from typing import Dict

from spans import Tracer, aggregate, install

#: Modules whose bindings are wrapped; imported before wrapping so that
#: lazily imported callers see the wrappers too.
MODULES = (
    "repro.api",
    "repro.core.dispatch",
    "repro.numbering.arrays",
    "repro.analysis.metrics",
    "repro.runtime.registry",
    "repro.survey.runner",
    "repro.survey.batch",
    "repro.survey.store",
    "repro.netsim.simulator",
    "repro.optimize.search",
    "repro.service.server",
)

#: ``per_layer`` metric -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "startup.import_s": "s",
    "startup.modules": "count",
    "core.construct_s": "s",
    "core.construct_calls": "count",
    "core.unsupported": "count",
    "numbering.indices_to_digits_calls": "count",
    "numbering.digit_weights_calls": "count",
    "survey.evaluate_s": "s",
    "survey.assemble_s": "s",
    "survey.shards": "count",
    "survey.records": "count",
    "survey.groups": "count",
    "survey.rows_per_group": "rows",
    "analysis.measure_s": "s",
    "analysis.measure_calls": "count",
    "analysis.rows_measured": "rows",
    "analysis.score_s": "s",
    "analysis.score_calls": "count",
    "analysis.rows_scored": "rows",
    "optimize.search_s": "s",
    "optimize.moves_s": "s",
    "optimize.generations": "count",
    "optimize.evaluations": "count",
    "netsim.traffic_s": "s",
    "netsim.expand_s": "s",
    "netsim.drain_s": "s",
    "netsim.loads_s": "s",
    "netsim.phases": "count",
    "netsim.messages": "count",
    "netsim.hops": "count",
    "store.write_s": "s",
    "store.bytes": "bytes",
    "runtime.cache_hits": "count",
    "runtime.cache_misses": "count",
    "service.server_p50_ms": "ms",
    "service.transport_p50_ms": "ms",
    "service.evaluate_s": "s",
    "service.batches": "count",
    "service.batch_size_mean": "requests",
    "service.shed": "count",
    "service.timeouts": "count",
    "trace.overhead_frac": "fraction",
}


def _rows(argument: int, counter: str):
    def observe(tracer, args, kwargs, result):
        tracer.count(counter, len(args[argument]))

    return observe


def _observe_groups(tracer, args, kwargs, result):
    tracer.count("survey.groups")
    tracer.count("analysis.rows_measured", len(args[3]))


def _observe_phases(tracer, args, kwargs, result):
    tracer.count("netsim.phases", len(args[0]))
    tracer.count("netsim.messages", sum(r.statistics.num_messages for r in result))
    tracer.count("netsim.hops", sum(r.statistics.total_hops for r in result))


def _observe_records(tracer, args, kwargs, result):
    tracer.count("survey.records", len(result))


def _observe_search(tracer, args, kwargs, result):
    tracer.count("optimize.generations", result.steps)
    tracer.count("optimize.evaluations", result.evaluations)


def _observe_write(tracer, args, kwargs, result):
    tracer.count("store.bytes", os.path.getsize(result))


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary (call once, after the program's imports)."""
    modules = {name: importlib.import_module(name) for name in MODULES}
    from repro.exceptions import UnsupportedEmbeddingError

    batch = modules["repro.survey.batch"]
    simulator = modules["repro.netsim.simulator"]
    search = modules["repro.optimize.search"]
    server = modules["repro.service.server"]
    # The service's evaluator first, on its own binding, so the survey
    # layer's wrapper below does not also claim the service's calls.
    install(tracer, server, "evaluate_shard", "service.evaluate", modules=[server])
    install(
        tracer, modules["repro.survey.runner"], "evaluate_shard", "survey.evaluate",
        counter="survey.shards", observe=_observe_records,
    )
    for module_name, attribute in (
        ("repro.runtime.registry", "build_strategy"),
        ("repro.core.dispatch", "embed"),
    ):
        install(
            tracer, modules[module_name], attribute, "core.construct",
            counter="core.construct_calls",
            errors=(UnsupportedEmbeddingError, "core.unsupported"),
        )
    install(
        tracer, batch, "stacked_dilation_summary", "analysis.measure",
        counter="analysis.measure_calls", observe=_observe_groups, modules=[batch],
    )
    install(
        tracer, batch, "stacked_congestion", "analysis.measure",
        counter="analysis.measure_calls", modules=[batch],
    )
    install(
        tracer, search, "stacked_objective_components", "analysis.score",
        counter="analysis.score_calls", observe=_rows(3, "analysis.rows_scored"),
        modules=[search],
    )
    install(tracer, search, "optimize_embedding", "optimize.search", observe=_observe_search)
    for attribute in ("traffic_rank_arrays", "traffic_pattern"):
        install(tracer, batch, attribute, "netsim.traffic", modules=[batch])
    install(
        tracer, batch, "simulate_endpoint_phases", "netsim.simulate",
        observe=_observe_phases, modules=[batch],
    )
    install(tracer, simulator, "expand_routes", "netsim.expand", modules=[simulator])
    install(tracer, simulator, "simulate_phases_rounds", "netsim.drain", modules=[simulator])
    install(
        tracer, modules["repro.survey.store"], "write_records", "store.write",
        observe=_observe_write,
    )
    arrays = modules["repro.numbering.arrays"]
    install(tracer, arrays, "indices_to_digits", None, counter="numbering.indices_to_digits_calls")
    install(tracer, arrays, "digit_weights", None, counter="numbering.digit_weights_calls")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The span/counter part of the per-layer metrics (0 where idle)."""
    layers = aggregate(tracer.spans)
    counters = tracer.counters

    def total(name: str) -> float:
        return layers.get(name, {}).get("time", 0.0)

    def self_time(name: str) -> float:
        return layers.get(name, {}).get("self", 0.0)

    groups = counters.get("survey.groups", 0)
    metrics = {
        "core.construct_s": total("core.construct"),
        "survey.evaluate_s": total("survey.evaluate"),
        "survey.assemble_s": self_time("survey.evaluate"),
        "survey.rows_per_group": counters.get("analysis.rows_measured", 0) / groups if groups else 0.0,
        "analysis.measure_s": total("analysis.measure"),
        "analysis.score_s": total("analysis.score"),
        "optimize.search_s": total("optimize.search"),
        "optimize.moves_s": self_time("optimize.search"),
        "netsim.traffic_s": total("netsim.traffic"),
        "netsim.expand_s": total("netsim.expand"),
        "netsim.drain_s": total("netsim.drain"),
        "netsim.loads_s": self_time("netsim.simulate"),
        "store.write_s": total("store.write"),
        "service.evaluate_s": total("service.evaluate"),
    }
    for name in PER_LAYER:
        if name not in metrics and name in counters:
            metrics[name] = counters[name]
    return metrics
