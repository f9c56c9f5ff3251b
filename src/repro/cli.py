"""Command-line interface.

Subcommands:

``embed``
    Build an embedding between two graphs given as ``kind:shape`` strings
    (for example ``torus:4,6``), print its strategy, predicted and measured
    dilation, and optionally the congestion and a picture of the mapping.

``figure``
    Print one of the paper's worked figures (``fig1`` to ``fig4``, ``fig9``
    to ``fig12``) as text: its registered ``FIG-`` experiment from
    :mod:`repro.experiments`.

``simulate``
    Map a guest task graph onto a host network with the paper's embedding
    and with the baselines, and report the simulated communication time of
    one phase of the chosen traffic pattern (neighbour exchange, transpose
    or all-to-all within groups).

``survey``
    Run a parallel embedding survey — every same-size guest/host shape pair
    up to a node budget, or a named suite mirroring the paper's tables, or
    the ``simulation`` suite that sweeps strategy × traffic pairs through
    the store-and-forward simulator — and write the results to JSON/CSV.

``optimize``
    Search for a low-cost embedding of one pair with the population-based
    optimizer (:mod:`repro.optimize`): seeded from the paper's construction
    and the baselines, scored generation-by-generation by the stacked batch
    kernels, persisting the best embedding found through ``--cache``.

``serve``
    Run the long-lived embedding service: one warm construction cache and
    resident graph arrays, answering embed/simulate queries over HTTP with
    async request coalescing (see :mod:`repro.service`).

``invoke``
    Query a running ``repro serve`` daemon — one embed/simulate request, or
    the ``/stats`` counters — through the thin client SDK.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from .analysis.metrics import evaluate_embedding
from .analysis.report import format_table
from .baselines import random_embedding
from .core import embed
from .analysis.fault_tolerance import repair_embedding
from .exceptions import UnsupportedEmbeddingError
from .graphs.base import CartesianGraph, make_graph
from .graphs.faults import FaultSpec
from .netsim import (
    CostModel,
    HostNetwork,
    LinkWeightSpec,
    simulate_phase,
    traffic_pattern,
    traffic_pattern_names,
)
from .runtime import (
    BACKENDS,
    ConstructionCache,
    ExecutionContext,
    build_strategy,
    strategy_names,
    use_context,
)
from .survey import (
    SurveyOptions,
    run_survey,
    scenarios_for_suite,
    suite_names,
    write_records,
)
from .types import GraphKind
from .viz.ascii import render_embedding_grid

__all__ = ["main", "parse_graph"]


def parse_graph(spec: str) -> CartesianGraph:
    """Parse ``kind:shape`` strings such as ``torus:4,6`` or ``mesh:2,2,2,3``.

    The 1-dimensional and hypercube conveniences of the paper are accepted as
    well: ``ring:<n>`` (a 1-D torus), ``line:<n>`` (a 1-D mesh) and
    ``hypercube:<d>`` (shape ``(2, ..., 2)`` with ``d`` dimensions).  The
    parse itself is the service protocol's (one grammar for CLI and wire).
    """
    from .service.protocol import ProtocolError, parse_graph_spec

    try:
        kind, shape = parse_graph_spec(spec)
        return make_graph(GraphKind(kind), shape)
    except Exception as error:
        message = (
            str(error)
            if isinstance(error, ProtocolError)
            else f"could not parse graph spec {spec!r}: expected e.g. 'torus:4,6' ({error})"
        )
        raise argparse.ArgumentTypeError(message) from error


def parse_backend(name: str) -> str:
    """Validate a ``--method`` value exactly as :class:`ExecutionContext` does.

    An unknown name, or ``compiled`` (removed in repro 3.0), is a usage error
    that carries the context's own message.
    """
    try:
        ExecutionContext(backend=name)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return name


def at_least(minimum: float, convert=int):
    """An argparse ``type``: ``convert(text)``, finite and ``>= minimum``.

    Out-of-range numbers are usage errors, not constructor tracebacks.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if not (math.isfinite(value) and value >= minimum):
            raise argparse.ArgumentTypeError(
                f"must be finite and >= {minimum}, got {text!r}"
            )
        return value

    return parse


def _load_cache(args: argparse.Namespace):
    """The construction cache named by ``--cache``, or ``None``."""
    if getattr(args, "cache", None) is None:
        return None
    return ConstructionCache.load(args.cache)


def _save_cache(args: argparse.Namespace, cache) -> None:
    """Persist a ``--cache`` store for the next invocation."""
    if cache is None:
        return
    cache.save(args.cache)
    optima = f", {cache.optimum_count} optima" if cache.optimum_count else ""
    print(
        f"construction cache: {cache.construction_count} constructions"
        f"{optima} ({cache.hits} hits this run) -> {args.cache}"
    )


def _package_version() -> str:
    """The installed distribution's version, or the source tree's fallback.

    ``importlib.metadata`` answers for pip-installed environments; a source
    checkout run via ``PYTHONPATH=src`` has no distribution metadata, so the
    package's own ``__version__`` is the fallback.
    """
    try:
        from importlib.metadata import version

        return version("repro-torus-mesh-embeddings")
    except Exception:
        from . import __version__

        return __version__


def _cmd_embed(args: argparse.Namespace) -> int:
    guest, host = args.guest, args.host
    with use_context(backend=args.method):
        embedding = embed(guest, host)
        report = evaluate_embedding(embedding, with_congestion=args.congestion)
    print(format_table([report.as_row()], title="Embedding report"))
    if args.grid and host.dimension <= 3:
        print()
        print(render_embedding_grid(embedding, title=f"Guest ranks inside {host!r}:"))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    # Imported here, so that other commands import nothing more.
    from .experiments.registry import EXPERIMENTS, _ensure_loaded, run_experiment

    _ensure_loaded()
    figures = {
        f"fig{number}": experiment_id
        for experiment_id in EXPERIMENTS
        if experiment_id.startswith("FIG-")
        for number in experiment_id[len("FIG-") :].split("/")
    }
    name = args.name.lower()
    if name not in figures:
        choices = ", ".join(figures)
        print(f"unknown figure {args.name!r}; choose from {choices}", file=sys.stderr)
        return 2
    print(run_experiment(figures[name]).render())
    return 0


@contextmanager
def _profiled(enabled: bool, output_path: Optional[str] = None):
    """Optionally run the body under cProfile (the ``--profile`` flag).

    On exit the top-20 functions by cumulative time are printed and the raw
    stats are dumped to ``profile.pstats`` — next to ``output_path`` when the
    command writes an output file, in the working directory otherwise — for
    ``snakeviz``/``pstats`` digging.
    """
    if not enabled:
        yield
        return
    import cProfile
    import io
    import os
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(20)
        print(stream.getvalue(), end="")
        if output_path is not None:
            directory = os.path.dirname(os.path.abspath(output_path))
            target = os.path.join(directory, "profile.pstats")
        else:
            target = "profile.pstats"
        stats.dump_stats(target)
        print(f"profile written to {target}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    guest, host = args.guest, args.host
    link_weights = (
        LinkWeightSpec.from_token(args.link_weights) if args.link_weights else None
    )
    faults = FaultSpec.from_token(args.faults).apply(host) if args.faults else None
    network = HostNetwork(
        host,
        CostModel(alpha=args.alpha, bandwidth=args.bandwidth),
        link_weights=link_weights,
    )
    cache = _load_cache(args)
    with _profiled(args.profile), use_context(backend=args.method, cache=cache):
        traffic = traffic_pattern(args.traffic, guest, message_size=args.message_size)
        rows = []
        for name in strategy_names():
            if name == "random" and args.seed != 0:
                # A non-default seed is a one-off variant: build it directly
                # so the memo cache only ever holds the canonical seed-0 entry.
                embedding = random_embedding(guest, host, seed=args.seed)
            else:
                embedding = build_strategy(name, guest, host)
            if faults is not None:
                embedding = repair_embedding(embedding, faults)
            result = simulate_phase(network, embedding, traffic, faults=faults)
            row = {"strategy": name, "dilation": embedding.dilation()}
            row.update(result.as_row())
            rows.append(row)
    title = f"{traffic.name} of {guest!r} on {host!r}"
    if faults is not None:
        title += f" with faults {faults.spec.token}"
    print(format_table(rows, title=title))
    _save_cache(args, cache)
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    if args.smoke:
        # Deterministic sequential CI mode: the tiny `smoke` suite by
        # default, or the explicitly chosen suite run on one worker (e.g.
        # `repro survey --suite simulation --smoke`).
        suite = args.suite if args.suite != "exhaustive" else "smoke"
        workers: Optional[int] = 1
    else:
        suite = args.suite
        workers = args.workers
    scenarios = scenarios_for_suite(suite, max_nodes=args.max_nodes)
    if args.limit is not None:
        scenarios = scenarios[: args.limit]
    if not scenarios:
        print("no scenarios selected (raise --max-nodes?)", file=sys.stderr)
        return 2
    options = SurveyOptions(
        workers=workers,
        shard_size=args.shard_size,
        shard_dir=args.shard_dir,
        with_congestion=args.congestion,
        resume=not args.no_resume,
    )
    cache = _load_cache(args)
    with _profiled(args.profile, args.output), use_context(
        backend=args.method, cache=cache, batch=not args.no_batch, chaos=args.chaos
    ):
        report = run_survey(scenarios, options)
    _save_cache(args, cache)
    if report.reused_shard_indices:
        print(
            f"resumed {len(report.reused_shard_indices)} finished shard(s) "
            f"from {args.shard_dir}"
        )
    if args.output:
        path = write_records(report.records, args.output)
        print(f"wrote {len(report.records)} records to {path}")
    rows = report.summary_rows()
    if rows:
        print(format_table(rows, title=f"Survey '{suite}': measured strategies"))
    print(
        f"{len(report.records)} pairs "
        f"({len(report.ok)} measured, {len(report.unsupported)} unsupported, "
        f"{len(report.failed)} failed) in {report.elapsed_seconds:.2f}s "
        f"on {report.workers} worker(s)"
    )
    if report.cache_entries:
        print(f"construction cache: {report.cache_entries} memoized constructions")
    if report.retries or report.crash_recoveries or report.quarantined:
        print(
            f"recovery: {report.retries} shard retr"
            f"{'y' if report.retries == 1 else 'ies'}, "
            f"{report.crash_recoveries} crash recover"
            f"{'y' if report.crash_recoveries == 1 else 'ies'}, "
            f"{report.quarantined} quarantined shard(s)"
        )
    if report.chaos_faults:
        fired = ", ".join(
            f"{label} x{count}" for label, count in sorted(report.chaos_faults.items())
        )
        print(f"chaos faults fired: {fired}")
    if report.failed:
        for record in report.failed[:5]:
            print(f"  FAILED {record.scenario_id}: {record.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .optimize import OptimizeOptions, optimize_embedding

    guest, host = args.guest, args.host
    options = OptimizeOptions(
        objective=args.objective,
        budget=args.budget,
        population=args.population,
        seed=args.seed,
        schedule=args.schedule,
    )
    cache = _load_cache(args)
    try:
        with use_context(backend=args.method, cache=cache):
            result = optimize_embedding(guest, host, options)
    except UnsupportedEmbeddingError as error:
        print(f"cannot search this pair: {error}", file=sys.stderr)
        return 2
    row = {
        "guest": repr(guest),
        "host": repr(host),
        "objective": args.objective,
        "value": result.objective,
        "dilation": result.dilation,
        "congestion": "-" if result.congestion is None else result.congestion,
        "steps": result.steps,
        "evaluations": result.evaluations,
        "seeded from": result.provenance,
        "improved": "yes" if result.improved else "no",
    }
    print(format_table([row], title="Embedding search"))
    if result.improved:
        print(
            f"search beat its best seed: objective {result.objective} "
            f"< {result.baseline_objective}"
        )
    else:
        print(
            f"search matched its best seed (objective {result.objective}; "
            "the constructions look tight on this pair)"
        )
    _save_cache(args, cache)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .optimize import register_optimized_strategy
    from .service import ReproService, serve

    # Long-lived daemon: let clients request `strategy="optimized"` simulate
    # runs; the searches warm-start from (and persist to) the service cache.
    register_optimized_strategy()
    service = ReproService(
        backend=args.method,
        cache_path=args.cache,
        window=args.window / 1000.0,
        max_batch=args.max_batch,
        snapshot_interval=args.snapshot_interval,
        max_pending=args.max_pending,
        request_timeout=args.request_timeout if args.request_timeout > 0 else None,
        chaos=args.chaos,
    )
    server = serve(service, args.host, args.port)
    bound_host, bound_port = server.server_address[:2]
    chaos_note = ""
    if service.context.chaos is not None:
        chaos_note = f", chaos {service.context.chaos.token}"
    print(
        f"repro service listening on http://{bound_host}:{bound_port} "
        f"(backend {service.context.resolved_backend()}, "
        f"window clock {args.window:g}ms, max batch {args.max_batch}, "
        f"cache {args.cache or 'in-memory'}{chaos_note})",
        flush=True,
    )

    # SIGTERM (supervisors, `kill`) drains gracefully: new requests get 503
    # + Retry-After, in-flight batches finish, the cache snapshots once
    # more.  Daemons launched from non-interactive shells with `&` start
    # with SIGINT *ignored* (POSIX job control), so SIGTERM is the only
    # reliable way to stop them cleanly.
    def _request_shutdown(signum, frame):
        service.begin_drain()
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _request_shutdown)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining: refusing new requests, finishing in-flight batches",
              file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        service.begin_drain()
        server.server_close()
        service.close()
        recovery = service.stats_snapshot()["recovery"]
        print(f"shutdown complete (recovery counters: {recovery})", file=sys.stderr)
    return 0


def _cmd_invoke(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        if args.op == "health":
            print(json.dumps(client.health(), indent=1))
            return 0
        if args.op == "stats":
            print(json.dumps(client.stats(), indent=1))
            return 0
        for name in ("guest", "host"):
            if getattr(args, name) is None:
                print(f"invoke {args.op} requires --{name}", file=sys.stderr)
                return 2
        if args.op == "embed":
            response = client.embed(args.guest, args.host, congestion=args.congestion)
        else:
            response = client.simulate(
                args.guest, args.host, strategy=args.strategy, traffic=args.traffic
            )
    except ServiceError as error:
        print(f"service error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(
            f"could not reach the service at {args.url} ({error}); "
            "is `repro serve` running?",
            file=sys.stderr,
        )
        return 1
    finally:
        client.close()
    if args.json:
        print(json.dumps(response, indent=1))
        return 0
    record = response["record"]
    row = {
        key: value
        for key, value in record.items()
        if value is not None and key not in ("scenario_id", "error")
    }
    meta = response["meta"]
    print(format_table([row], title=f"{args.op}: {record['scenario_id']}"))
    print(
        f"answered in a batch of {meta['batch_size']} "
        f"(coalesced: {meta['coalesced']})"
    )
    return 0 if record["status"] == "ok" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-mesh-embed",
        description="Embeddings among toruses and meshes (Ma & Tao, ICPP 1987) — reproduction CLI",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
        help="print the package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_embed = subparsers.add_parser("embed", help="embed a guest graph in a host graph")
    p_embed.add_argument(
        "--guest", required=True, type=parse_graph, help="guest graph, e.g. torus:4,6"
    )
    p_embed.add_argument(
        "--host", required=True, type=parse_graph, help="host graph, e.g. mesh:2,2,2,3"
    )
    p_embed.add_argument("--congestion", action="store_true", help="also measure edge congestion")
    p_embed.add_argument("--grid", action="store_true", help="print the mapping as a grid")
    p_embed.add_argument(
        "--method",
        default="auto",
        choices=BACKENDS,
        type=parse_backend,
        help="runtime backend (array kernels vs per-node loop reference)",
    )
    p_embed.set_defaults(func=_cmd_embed)

    p_figure = subparsers.add_parser(
        "figure", help="print one of the paper's worked figures (its FIG- experiment)"
    )
    p_figure.add_argument(
        "name", help="fig1, fig2, fig3, fig4, fig9, fig10, fig11 or fig12"
    )
    p_figure.set_defaults(func=_cmd_figure)

    p_sim = subparsers.add_parser("simulate", help="simulate a communication phase")
    p_sim.add_argument(
        "--guest",
        required=True,
        type=parse_graph,
        help="guest task graph, e.g. torus:8,8",
    )
    p_sim.add_argument(
        "--host", required=True, type=parse_graph, help="host network, e.g. mesh:4,4,4"
    )
    p_sim.add_argument(
        "--traffic",
        default="neighbor-exchange",
        choices=traffic_pattern_names(),
        help="traffic pattern of the simulated phase",
    )
    p_sim.add_argument("--alpha", type=float, default=1.0, help="per-hop latency")
    p_sim.add_argument("--bandwidth", type=float, default=1.0, help="link bandwidth")
    p_sim.add_argument("--message-size", type=float, default=1.0, help="message size")
    p_sim.add_argument("--seed", type=int, default=0, help="seed for the random baseline")
    p_sim.add_argument(
        "--faults",
        default=None,
        help="degrade the host before simulating: a fault token like n1l2s5 "
        "(1 dead node, 2 dead links, seed 5); cut routes take BFS detours",
    )
    p_sim.add_argument(
        "--link-weights",
        default=None,
        help="heterogeneous link latencies: kind[:scale[:seed]] with kind "
        "uniform, dimension or random (e.g. random:0.5:3)",
    )
    p_sim.add_argument(
        "--method",
        default="auto",
        choices=BACKENDS,
        type=parse_backend,
        help="runtime backend (array kernels vs per-message loop reference)",
    )
    p_sim.add_argument(
        "--cache",
        default=None,
        help="construction-cache file; loaded before and saved after the run, "
        "so repeated invocations skip re-construction",
    )
    p_sim.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile: print the top-20 cumulative functions and "
        "write profile.pstats",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_survey = subparsers.add_parser(
        "survey", help="run a parallel embedding survey over many shape pairs"
    )
    p_survey.add_argument(
        "--suite",
        default="exhaustive",
        choices=suite_names(),
        help="scenario suite (default: exhaustive same-size sweep)",
    )
    p_survey.add_argument(
        "--max-nodes",
        type=int,
        default=48,
        help="node budget for shape enumeration (default 48)",
    )
    p_survey.add_argument(
        "--workers",
        type=at_least(1),
        default=None,
        help="worker processes (default: cpu count; 1 = sequential)",
    )
    p_survey.add_argument(
        "--shard-size", type=at_least(1), default=64, help="scenarios per worker shard"
    )
    p_survey.add_argument(
        "--shard-dir",
        default=None,
        help="write per-shard JSON files here (finished shards are reused on rerun)",
    )
    p_survey.add_argument(
        "--no-resume",
        action="store_true",
        help="recompute every shard even when --shard-dir holds finished shard files",
    )
    p_survey.add_argument(
        "--output",
        default="survey_results.json",
        help="results file (.json or .csv); empty string disables writing",
    )
    p_survey.add_argument(
        "--limit",
        type=at_least(1),
        default=None,
        help="evaluate only the first N scenarios",
    )
    p_survey.add_argument(
        "--congestion", action="store_true", help="also measure edge congestion"
    )
    p_survey.add_argument(
        "--no-batch",
        action="store_true",
        help="evaluate scenarios one at a time (the cross-checked reference) "
        "instead of the batched stacked-kernel path",
    )
    p_survey.add_argument(
        "--method",
        default="auto",
        choices=BACKENDS,
        type=parse_backend,
        help="runtime backend (vectorized array path vs per-node loop reference)",
    )
    p_survey.add_argument(
        "--cache",
        default=None,
        help="construction-cache file; loaded before and saved after the run, "
        "so repeated surveys skip re-construction",
    )
    p_survey.add_argument(
        "--smoke",
        action="store_true",
        help="tiny deterministic run (suite 'smoke', sequential) for CI",
    )
    p_survey.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile: print the top-20 cumulative functions and "
        "write profile.pstats next to --output",
    )
    p_survey.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, e.g. 'worker_crash:0.02,"
        "slow_io:0.05x200ms,seed=7' (see docs/ARCHITECTURE.md, Failure model)",
    )
    p_survey.set_defaults(func=_cmd_survey)

    p_opt = subparsers.add_parser(
        "optimize",
        help="search for a low-cost embedding with the population optimizer",
    )
    p_opt.add_argument(
        "--guest", required=True, type=parse_graph, help="guest graph, e.g. torus:8x8"
    )
    p_opt.add_argument(
        "--host", required=True, type=parse_graph, help="host graph, e.g. mesh:8x8"
    )
    p_opt.add_argument(
        "--objective",
        default="combined",
        choices=("dilation", "congestion", "combined"),
        help="cost to minimize (default: combined dilation + congestion)",
    )
    p_opt.add_argument(
        "--budget",
        type=at_least(0),
        default=2000,
        help="candidate-evaluation budget (default 2000)",
    )
    p_opt.add_argument(
        "--population",
        type=at_least(1),
        default=16,
        help="target population size (default 16)",
    )
    p_opt.add_argument("--seed", type=int, default=0, help="search RNG seed")
    p_opt.add_argument(
        "--schedule",
        default="anneal",
        choices=("anneal", "greedy"),
        help="acceptance schedule: simulated annealing or greedy hill-climb",
    )
    p_opt.add_argument(
        "--method",
        default="auto",
        choices=BACKENDS,
        type=parse_backend,
        help="runtime backend (stacked-kernel search vs pure-Python reference)",
    )
    p_opt.add_argument(
        "--cache",
        default=None,
        help="construction-cache file; a stored optimum warm-starts the "
        "search and the best embedding found is persisted back",
    )
    p_opt.set_defaults(func=_cmd_optimize)

    p_serve = subparsers.add_parser(
        "serve",
        help="run the long-lived embedding service (HTTP, request coalescing)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (default 8642; 0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--window",
        type=at_least(0, float),
        default=10.0,
        help="request-coalescing clock in milliseconds: a batch leaves on "
        "the next tick with every request queued by then, so a request "
        "waits at most this long (default 10; 0 dispatches at once)",
    )
    p_serve.add_argument(
        "--max-batch",
        type=at_least(1),
        default=256,
        help="hard cap on coalesced batch size (default 256)",
    )
    p_serve.add_argument(
        "--method",
        default="auto",
        choices=BACKENDS,
        type=parse_backend,
        help="runtime backend of the resident execution context",
    )
    p_serve.add_argument(
        "--cache",
        default=None,
        help="construction-cache file; warm-started on boot and snapshotted "
        "atomically while serving",
    )
    p_serve.add_argument(
        "--snapshot-interval",
        type=float,
        default=30.0,
        help="minimum seconds between periodic cache snapshots (default 30)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=at_least(1),
        default=1024,
        help="admission-queue bound; beyond it requests are shed with "
        "503 + Retry-After (default 1024)",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-request deadline in seconds, answered with 504 on a miss "
        "(default 30; 0 disables)",
    )
    p_serve.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, e.g. 'request_error:0.05,"
        "slow_io:0.1x50ms,seed=7' (see docs/ARCHITECTURE.md, Failure model)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_invoke = subparsers.add_parser(
        "invoke", help="query a running `repro serve` daemon"
    )
    p_invoke.add_argument(
        "op",
        choices=("embed", "simulate", "stats", "health"),
        help="request to send",
    )
    p_invoke.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help="service URL (default http://127.0.0.1:8642)",
    )
    p_invoke.add_argument("--guest", default=None, help="guest graph, e.g. torus:4,6")
    p_invoke.add_argument("--host", default=None, help="host graph, e.g. mesh:2,2,2,3")
    p_invoke.add_argument(
        "--strategy",
        default="paper",
        help="embedding strategy for simulate (default: the paper dispatcher)",
    )
    p_invoke.add_argument(
        "--traffic",
        default="neighbor-exchange",
        help="traffic pattern for simulate (default neighbor-exchange)",
    )
    p_invoke.add_argument(
        "--congestion", action="store_true", help="also measure edge congestion"
    )
    p_invoke.add_argument(
        "--timeout", type=float, default=60.0, help="request timeout in seconds"
    )
    p_invoke.add_argument(
        "--json", action="store_true", help="print the raw JSON response"
    )
    p_invoke.set_defaults(func=_cmd_invoke)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Ctrl-C during a sharded survey used to traceback and could leave
        # pool workers running; the runner cancels its queued shards on the
        # way out, and the conventional 128+SIGINT exit code is returned.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
