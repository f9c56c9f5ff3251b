"""One measured run of a workload, in a fresh interpreter.

``python3 perfbench/child.py SPEC.json``: imports the program's public entry
points, loads the generated inputs, prints ``READY`` (the end of set-up),
runs the workload once and writes a result document to ``spec["result"]``.
With ``spec["trace"]`` the layer wrappers are installed after ``READY``, so
the untraced runs carry no tracing code at all.

The ``serve`` workload uses this file only for its traced run: it wraps the
layers, then hands over to ``repro serve`` itself.  SIGUSR1 resets the
trace (the start of the measured window); the trace is written when the
service shuts down on SIGTERM.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """This interpreter's own peak RSS.  ``ru_maxrss`` would also count the
    parent's memory, which a vfork-and-exec child inherits as its high-water
    mark; ``VmHWM`` belongs to the image exec created."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(path: str, document) -> None:
    Path(path).write_text(json.dumps(document))


def _survey(inputs, spec, api, store, SurveyOptions, Scenario):
    scenarios = [Scenario.from_id(scenario_id) for scenario_id in inputs["scenarios"]]
    options = SurveyOptions(workers=1, shard_size=inputs.get("shard_size"))

    def run():
        report = api.run_survey(scenarios, options)
        store.write_records(report.records, spec["output"])
        return len(report.records), len(report.failed)

    return run


def _optimize(inputs, spec, api):
    def run():
        import hashlib

        result = api.optimize(
            inputs["guest"],
            inputs["host"],
            budget=inputs["budget"],
            population=inputs["population"],
            seed=inputs["seed"],
        )
        summary = {
            "objective": result.objective,
            "dilation": result.dilation,
            "dilation_total": result.dilation_total,
            "congestion": result.congestion,
            "baseline_objective": result.baseline_objective,
            "improved": result.improved,
            "steps": result.steps,
            "evaluations": result.evaluations,
            "provenance": result.provenance,
            "row_sha256": hashlib.sha256(
                json.dumps([int(i) for i in result.state.host_indices]).encode()
            ).hexdigest(),
        }
        _write(spec["output"], summary)
        return result.evaluations, 0

    return run


def _serve_traced(spec) -> int:
    import signal

    modules_before = len(sys.modules)
    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    modules = len(sys.modules) - modules_before
    from layers import install_layers, layer_metrics
    from spans import Tracer, check_spans

    tracer = Tracer()
    install_layers(tracer)
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.reset())
    code = repro.cli.main(["serve", "--host", "127.0.0.1", "--port", "0"])
    _write(
        spec["result"],
        {
            "layers": layer_metrics(tracer),
            "hygiene": check_spans(tracer.spans),
            "import_s": import_s,
            "modules": modules,
        },
    )
    return code


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    workload = spec["workload"]
    if workload == "serve":
        return _serve_traced(spec)
    inputs = json.loads(Path(spec["input"]).read_text())

    modules_before = len(sys.modules)
    started = time.perf_counter()
    import repro.api as api
    import repro.survey.store as store
    from repro.survey import SurveyOptions
    from repro.survey.scenarios import Scenario

    import_s = time.perf_counter() - started
    modules = len(sys.modules) - modules_before
    if workload == "optimize":
        run = _optimize(inputs, spec, api)
    else:
        run = _survey(inputs, spec, api, store, SurveyOptions, Scenario)
    print("READY", flush=True)
    if spec["warmup"]:
        return 0

    tracer = None
    if spec["trace"]:
        from layers import install_layers
        from spans import Tracer

        tracer = Tracer()
        install_layers(tracer)

    started = time.perf_counter()
    if tracer is None:
        ops, failed = run()
    else:
        with tracer.span("run"):
            ops, failed = run()
    run_s = time.perf_counter() - started

    result = {
        "run_s": run_s,
        "ops": ops,
        "failed": failed,
        "peak_rss_mb": _peak_rss_mb(),
        "import_s": import_s,
        "modules": modules,
    }
    if tracer is not None:
        from layers import layer_metrics
        from spans import aggregate, check_spans

        result["layers"] = layer_metrics(tracer)
        hygiene = check_spans(tracer.spans)
        # Every span nests under "run", so the layer self times must add
        # up to the run's wall time: a gap means a span leaked or overlapped.
        accounted = sum(entry["self"] for entry in aggregate(tracer.spans).values())
        if abs(accounted - run_s) > 0.01 * run_s + 1e-3:
            hygiene.append(f"self times add up to {accounted:.4f}s of run_s {run_s:.4f}s")
        result["hygiene"] = hygiene
    _write(spec["result"], result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
