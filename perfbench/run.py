"""End-to-end, layer-attributed benchmark of the ``repro`` package.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see ``README.md`` in this directory for the reasons and the
layer -> end-to-end mapping):

* ``sweep``    — a seeded sample of the exhaustive same-size pairs, batched,
  written as JSON;
* ``simulate`` — 1024-node pairs x 4 strategies x 6 traffic patterns,
  written as CSV;
* ``optimize`` — a fixed-budget population search on one 256-node pair;
* ``serve``    — ``repro serve`` under a closed loop of 2 client connections.

Every measured run happens in a fresh interpreter (``child.py``, or the
``repro serve`` process), repeated until ``--seconds`` have passed; the
figures are medians over those runs.  CPU-bound timings are in reference
seconds: scaled by a speed gauge read between the runs (``calibrate.py``).  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced runs (the service:
one untraced, then one traced session, half the time each) and reports the
per-layer metrics, including the tracing overhead.  Outputs are checked outside the timed window, and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: End-to-end metric -> unit (every workload reports every one).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("sweep", "simulate", "optimize", "serve")
MIN_RUNS = 3  # measured child runs per phase, even past --seconds
SERVE_SETUP_SPAWNS = 6  # set-up-only spawns of the service per untraced run
SERVE_CLIENTS = 2  # closed-loop client connections (= nproc of the target box)
CHILD_TIMEOUT = 120.0
RUN_DEADLINE = 175  # whole invocation, seconds
REFERENCE_SAMPLE = {"sweep": 40, "simulate": 2, "serve": 12}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# --------------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------------- #
class Children:
    """Every process this run starts; :meth:`stop_all` ends and reaps them."""

    def __init__(self) -> None:
        self.live: List[subprocess.Popen] = []

    def spawn(self, argv, **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(argv, env=_child_env(), cwd=ROOT, **kwargs)
        self.live.append(process)
        return process

    def reap(self, process: subprocess.Popen, timeout: float) -> int:
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise BenchmarkError(f"child {process.args!r} did not finish in {timeout:g}s")
        finally:
            if process.stdout is not None:
                process.stdout.close()
            if process in self.live:
                self.live.remove(process)
        return code

    def stop_all(self) -> None:
        for process in list(self.live):
            if process.poll() is None:
                process.kill()
            process.wait()
            if process.stdout is not None:
                process.stdout.close()
        self.live.clear()


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Byte-code is cached once, inside the checkout's work directory, the way
    # an installed package starts; no run writes into the source tree.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def _read_line(process: subprocess.Popen, timeout: float) -> str:
    """The child's next stdout line, killing it if none comes in time."""
    timer = threading.Timer(timeout, process.kill)
    timer.start()
    try:
        line = process.stdout.readline().decode("utf-8", "replace")
    finally:
        timer.cancel()
    if not line:
        raise BenchmarkError(f"child {process.args!r} exited before it was ready")
    return line.strip()


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1)."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def resolvable(q: float, count: int) -> float:
    """``q`` capped at the highest percentile that has at least ten samples
    beyond it (never below the median): a tail is only reported where the
    samples can resolve it."""
    return max(0.5, min(q, (count - 10) / count))


def spread(values: List[float]) -> Dict[str, float]:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# --------------------------------------------------------------------------- #
# Batch workloads: sweep, simulate, optimize
# --------------------------------------------------------------------------- #
def _run_child(children: Children, workload: str, tag: str, input_path: Path,
               trace: bool, warmup: bool = False) -> Dict:
    suffix = {"sweep": ".json", "simulate": ".csv", "optimize": ".json"}[workload]
    spec = {
        "workload": workload,
        "input": str(input_path),
        "output": str(WORK / f"{workload}-{tag}-output{suffix}"),
        "result": str(WORK / f"{workload}-{tag}-result.json"),
        "trace": trace,
        "warmup": warmup,
    }
    spec_path = WORK / f"{workload}-{tag}-spec.json"
    spec_path.write_text(json.dumps(spec))
    started = time.perf_counter()
    process = children.spawn(
        [sys.executable, str(HERE / "child.py"), str(spec_path)], stdout=subprocess.PIPE
    )
    line = _read_line(process, CHILD_TIMEOUT)
    setup_s = time.perf_counter() - started
    if line != "READY":
        raise BenchmarkError(f"unexpected child output {line!r}")
    if children.reap(process, CHILD_TIMEOUT) != 0:
        raise BenchmarkError(f"{workload} child run {tag} failed")
    spec_path.unlink()
    if warmup:
        return {}
    result = json.loads(Path(spec["result"]).read_text())
    Path(spec["result"]).unlink()
    result["setup_s"] = setup_s
    result["output"] = spec["output"]
    return result


def _measure(children, workload, input_path, seconds, trace, gauge):
    """Untraced runs until ``seconds`` pass; with ``trace``, traced runs
    alternate with them, so a drift of the machine's speed hits both alike.
    The speed gauge reads before the first run and after every run, which
    gives each run its ``scale`` (see calibrate.py).
    Returns (untraced runs, traced runs)."""
    untraced: List[Dict] = []
    traced: List[Dict] = []

    def measured(tag: str, traced_run: bool) -> Dict:
        run = _run_child(children, workload, tag, input_path, traced_run)
        gauge.read()
        run["scale"] = gauge.scale()
        return run

    gauge.read()
    started = time.perf_counter()
    while len(untraced) < MIN_RUNS or time.perf_counter() - started < seconds:
        untraced.append(measured(f"u{len(untraced)}", False))
        if trace:
            traced.append(measured(f"t{len(traced)}", True))
    return untraced, traced


def _check_batch(workload: str, seed: int, inputs: Dict, runs: List[Dict], pinned: Dict):
    """Checks every run's output; returns (problems, digest)."""
    import checks

    problems: List[str] = []
    digests = []
    first_records = None
    for run in runs:
        path = Path(run["output"])
        if workload == "optimize":
            summary = json.loads(path.read_text())
            digests.append(checks.digest([[json.dumps(summary, sort_keys=True)]]))
            run["summary"] = summary
        else:
            from repro.survey.store import read_records

            records = read_records(path)
            digests.append(checks.records_digest(records))
            if first_records is None:
                first_records = records
        path.unlink()
        problems += [f"trace hygiene: {message}" for message in run.get("hygiene", [])]
    problems += checks.check_same(workload, digests)
    if workload == "optimize":
        problems += checks.check_optimize(
            [run["summary"] for run in runs], checks.best_seed_objective(inputs)
        )
    else:
        ids = inputs["scenarios"]
        sample = checks.sample_indices(len(ids), REFERENCE_SAMPLE[workload], seed)
        problems += checks.check_survey_records(first_records, ids, sample)
    problems += checks.check_pinned(workload, seed, digests[0], pinned)
    return problems, digests[0]


def run_batch(children: Children, workload: str, seed: int, inputs: Dict,
              seconds: float, trace: bool, pinned: Dict) -> Dict:
    from calibrate import SpeedGauge, one_cpu

    input_path = WORK / f"{workload}-input.json"
    input_path.write_text(json.dumps(inputs))
    gauge = SpeedGauge()
    with one_cpu():
        # One untimed start first: byte-code caches fill, files are in page cache.
        _run_child(children, workload, "warmup", input_path, False, warmup=True)
        untraced, traced = _measure(children, workload, input_path, seconds, trace, gauge)
    problems, output_digest = _check_batch(workload, seed, inputs, untraced + traced, pinned)
    input_path.unlink()

    # Timings in reference seconds (see calibrate.py); the wall-clock
    # samples stay in the detail document.
    run_times = [run["scale"] * run["run_s"] for run in untraced]
    samples = {
        "setup_s": [run["scale"] * run["setup_s"] for run in untraced],
        "run_s": run_times,
        "ops_per_s": [run["ops"] / run_s for run, run_s in zip(untraced, run_times)],
        "peak_rss_mb": [run["peak_rss_mb"] for run in untraced],
    }
    metrics = {name: spread(values)["median"] for name, values in samples.items()}
    # In a batch every op is answered when its run ends, so an op's latency
    # is its run's time and the samples are the measured runs — too few to
    # resolve a 95th percentile, which then repeats the median.
    metrics["latency_p50_ms"] = 1e3 * metrics["run_s"]
    tail = resolvable(0.95, len(run_times))
    metrics["latency_p95_ms"] = (
        1e3 * percentile(run_times, tail) if tail > 0.5 else metrics["latency_p50_ms"]
    )
    every = untraced + traced
    document = {
        "metrics": metrics,
        "spreads": {name: spread(values) for name, values in samples.items()},
        "samples": samples,
        "latency_samples": len(run_times),
        "wall_samples": {name: [run[name] for run in untraced] for name in ("setup_s", "run_s")},
        "gauge_readings": gauge.readings,
        "scales": [run["scale"] for run in untraced],
        "attempted": sum(run["ops"] for run in every),
        "failed": sum(run["failed"] for run in every),
        "problems": problems,
        "digest": output_digest,
    }
    if trace:
        for run in traced:
            run["layers"]["startup.import_s"] = run["import_s"]
            run["layers"]["startup.modules"] = run["modules"]
            for name, value in run["layers"].items():
                if name.endswith("_s"):
                    run["layers"][name] = run["scale"] * value
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(run["layers"][name] for run in traced)
        traced_run_s = [run["scale"] * run["run_s"] for run in traced]
        layers["trace.overhead_frac"] = statistics.median(traced_run_s) / metrics["run_s"] - 1.0
        document["layers"] = layers
        document["traced_run_s"] = traced_run_s
    return document


# --------------------------------------------------------------------------- #
# The serve workload
# --------------------------------------------------------------------------- #
class Server:
    """One ``repro serve --port 0`` process (traced: wrapped by child.py)."""

    def __init__(self, children: Children, traced: bool, tag: str):
        self.children = children
        self.result_path = WORK / f"serve-{tag}-result.json"
        if traced:
            spec_path = WORK / f"serve-{tag}-spec.json"
            spec_path.write_text(json.dumps(
                {"workload": "serve", "result": str(self.result_path), "trace": True}
            ))
            argv = [sys.executable, str(HERE / "child.py"), str(spec_path)]
        else:
            argv = [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1", "--port", "0"]
        started = time.perf_counter()
        self.process = children.spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = _read_line(self.process, CHILD_TIMEOUT)
        if "listening on http://" not in line:
            raise BenchmarkError(f"unexpected service output {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        self.url = f"http://{address}"
        self._wait_healthy(started + CHILD_TIMEOUT)
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            connection = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                connection.request("GET", "/health")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            if time.perf_counter() > deadline:
                raise BenchmarkError("the service never answered /health")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchmarkError("no VmHWM in /proc status")

    def stop(self) -> Optional[Dict]:
        """SIGTERM (graceful drain), reap; the traced run's trace document."""
        self.process.send_signal(signal.SIGTERM)
        if self.children.reap(self.process, 30.0) != 0:
            raise BenchmarkError("the service exited with an error")
        if self.result_path.exists():
            document = json.loads(self.result_path.read_text())
            self.result_path.unlink()
            (WORK / self.result_path.name.replace("-result", "-spec")).unlink(missing_ok=True)
            return document
        return None


def _call(client, request: Dict) -> Dict:
    if request["op"] == "embed":
        return client.embed(request["guest"], request["host"], congestion=request["congestion"])
    return client.simulate(
        request["guest"], request["host"], strategy=request["strategy"], traffic=request["traffic"]
    )


def _load(url: str, requests: List[Dict], seconds: float) -> Dict:
    """Closed loop: each client sends its next request when the last one is
    answered.  Rounds of the same request list repeat until ``seconds``."""
    from inputs import request_key
    from repro.service import ServiceClient
    from repro.utils.backoff import BackoffPolicy

    no_retry = BackoffPolicy(max_attempts=1)
    clients = [ServiceClient(url, timeout=60.0, retry=no_retry) for _ in range(SERVE_CLIENTS)]
    latencies: List[float] = []
    failures: List[str] = []
    responses: Dict[str, List[Dict]] = {}
    round_times: List[float] = []
    lock = threading.Lock()

    def worker(client, queue: List[int]) -> None:
        while True:
            with lock:
                if not queue:
                    return
                index = queue.pop()
            request = requests[index]
            started = time.perf_counter()
            try:
                record = _call(client, request)["record"]
            except Exception as error:  # noqa: BLE001 - every failure is counted
                with lock:
                    failures.append(f"{type(error).__name__}: {error}")
                continue
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                responses.setdefault(request_key(request), []).append(record)

    window = time.perf_counter()
    try:
        while not round_times or time.perf_counter() - window < seconds:
            queue = list(range(len(requests)))[::-1]
            started = time.perf_counter()
            threads = [threading.Thread(target=worker, args=(c, queue)) for c in clients]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(CHILD_TIMEOUT)
                if thread.is_alive():
                    raise BenchmarkError("a client thread hung")
            round_times.append(time.perf_counter() - started)
    finally:
        for client in clients:
            client.close()
    return {
        "latencies": latencies,
        "failures": failures,
        "responses": responses,
        "round_times": round_times,
    }


def _stats(url: str) -> Dict:
    from repro.service import ServiceClient

    with ServiceClient(url) as client:
        return client.stats()


def _served(stats: Dict) -> Dict[str, float]:
    histogram = stats["coalescer"]["batch_size_histogram"]
    return {
        "batches": stats["coalescer"]["batches"],
        "requests": sum(int(size) * count for size, count in histogram.items()),
        "hits": stats["cache"]["hits"],
        "misses": stats["cache"]["misses"],
        "shed": stats["shed"],
        "timeouts": stats["timeouts"],
    }


def _serve_session(children, inputs, seconds, traced, tag) -> Dict:
    from inputs import request_key

    server = Server(children, traced, tag)
    try:
        warm = _load(server.url, inputs["warmup"], 0.0)
        if traced:
            server.process.send_signal(signal.SIGUSR1)  # the trace starts here
            time.sleep(0.05)
        before = _served(_stats(server.url))
        load = _load(server.url, inputs["round"], seconds)
        stats = _stats(server.url)
        after = _served(stats)
        peak = server.peak_rss_mb()
    finally:
        trace_document = server.stop()
    for key, records in warm["responses"].items():
        load["responses"].setdefault(key, []).extend(records)
    load.update(
        warmup_attempted=len(inputs["warmup"]),
        warmup_failures=warm["failures"],
        peak_rss_mb=peak,
        delta={name: after[name] - before[name] for name in after},
        server_p50_ms=stats["latency_ms"]["p50"],
        trace=trace_document,
        requests={request_key(r): r for r in inputs["warmup"] + inputs["round"]},
    )
    return load


def run_serve(children: Children, seed: int, inputs: Dict, seconds: float,
              trace: bool, pinned: Dict) -> Dict:
    import checks
    from calibrate import SpeedGauge, one_cpu

    # Set-up is measured on spawns of its own, on one CPU between speed-gauge
    # readings, and reported in reference seconds like the batch workloads'
    # timings.  The request timings stay wall-clock: the session needs both
    # CPUs, and network timers, not the processor, dominate them.
    gauge = SpeedGauge()
    setups, wall_setups = [], []
    if not trace:
        with one_cpu():
            gauge.read()
            for index in range(SERVE_SETUP_SPAWNS):
                wall_setups.append(Server(children, False, f"setup{index}").setup_s)
                children.stop_all()
                gauge.read()
                setups.append(gauge.scale() * wall_setups[-1])
    session = _serve_session(children, inputs, seconds / 2 if trace else seconds, False, "u")
    sessions = [session]
    if trace:
        sessions.append(_serve_session(children, inputs, seconds / 2, True, "t"))

    problems = []
    responses: Dict[str, List[Dict]] = {}
    for each in sessions:
        for key, records in each["responses"].items():
            responses.setdefault(key, []).extend(records)
    keys = sorted(responses)
    sample = [keys[i] for i in checks.sample_indices(len(keys), REFERENCE_SAMPLE["serve"], seed)]
    problems += checks.check_service_responses(responses, session["requests"], sample)
    output_digest = checks.responses_digest(responses)
    problems += checks.check_pinned("serve", seed, output_digest, pinned)

    latencies = session["latencies"]
    metrics = {
        "setup_s": statistics.median(setups) if setups else math.nan,
        "run_s": statistics.median(session["round_times"]),
        "ops_per_s": len(latencies) / sum(session["round_times"]),
        "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
        "latency_p95_ms": 1e3 * percentile(latencies, resolvable(0.95, len(latencies))),
        "peak_rss_mb": session["peak_rss_mb"],
    }
    attempted = sum(
        len(each["latencies"]) + len(each["failures"]) + each["warmup_attempted"]
        for each in sessions
    )
    failed = sum(len(each["failures"]) + len(each["warmup_failures"]) for each in sessions)
    document = {
        "metrics": metrics,
        "spreads": {"run_s": spread(session["round_times"])},
        "latency_samples": len(latencies),
        "wall_samples": {"setup_s": wall_setups},
        "gauge_readings": gauge.readings,
        "attempted": attempted,
        "failed": failed,
        "failure_examples": [
            f for each in sessions for f in each["warmup_failures"] + each["failures"]
        ][:5],
        "problems": problems,
        "digest": output_digest,
    }
    if setups:
        document["spreads"]["setup_s"] = spread(setups)
    if trace:
        traced = sessions[1]
        trace_document = traced["trace"] or {}
        problems += [f"trace hygiene: {m}" for m in trace_document.get("hygiene", [])]
        layers = dict(trace_document.get("layers", {}))
        delta = traced["delta"]
        client_p50 = 1e3 * percentile(traced["latencies"], 0.50)
        layers.update({
            "startup.import_s": trace_document.get("import_s", 0.0),
            "startup.modules": trace_document.get("modules", 0),
            "runtime.cache_hits": delta["hits"],
            "runtime.cache_misses": delta["misses"],
            "service.server_p50_ms": traced["server_p50_ms"],
            "service.transport_p50_ms": client_p50 - traced["server_p50_ms"],
            "service.batches": delta["batches"],
            "service.batch_size_mean": delta["requests"] / delta["batches"] if delta["batches"] else 0.0,
            "service.shed": delta["shed"],
            "service.timeouts": delta["timeouts"],
            "trace.overhead_frac": (
                statistics.median(traced["round_times"]) / metrics["run_s"] - 1.0
            ),
        })
        document["layers"] = layers
    return document


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def _report(workload: str, seed: int, trace: bool, document: Dict, env: Dict) -> Dict:
    from calibrate import NOMINAL_S
    from layers import PER_LAYER

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload}, seed {seed}, trace {int(trace)}")
    attempted, failed = document["attempted"], document["failed"]
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name, unit in END_TO_END.items():
        line = f"  {name} = {document['metrics'][name]:.6g} {unit}"
        summary = document["spreads"].get(name)
        if summary:
            line += f" (median of {summary['n']}; q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g})"
        print(line)
    print(f"  latency samples: {document['latency_samples']}")
    readings = document["gauge_readings"]
    if readings:
        print(f"  speed gauge: {len(readings)} readings, median "
              f"{1e3 * statistics.median(readings):.4g} ms (nominal {1e3 * NOMINAL_S:.4g} ms)")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name} = {document['layers'].get(name, 0):.6g} {unit}")
    for problem in document["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if trace:
        metrics = {name: {"value": document["layers"].get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": document["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "correct": not document["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _alarm(signum, frame):
    raise BenchmarkError(f"the benchmark ran past its {RUN_DEADLINE}s deadline")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the pinned default seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per run phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's output digest as the pinned one "
                        "(default seed only)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs
    from stamp import environment

    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    pinned_path = HERE / "pinned.json"
    pinned = json.loads(pinned_path.read_text())
    WORK.mkdir(exist_ok=True)
    children = Children()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(RUN_DEADLINE)
    try:
        workload_inputs = inputs.INPUTS[args.workload](seed)
        if args.workload == "serve":
            document = run_serve(children, seed, workload_inputs, args.seconds,
                                 bool(args.trace), pinned)
        else:
            document = run_batch(children, args.workload, seed, workload_inputs,
                                 args.seconds, bool(args.trace), pinned)
        signal.alarm(0)
        env = environment(ROOT)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        children.stop_all()

    if args.pin:
        if seed != pinned["seed"]:
            print("perfbench: --pin needs the default seed", file=sys.stderr)
            return 2
        pinned["digests"][args.workload] = document["digest"]
        pinned_path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        document["problems"] = [p for p in document["problems"] if "pinned" not in p]
    result = _report(args.workload, seed, bool(args.trace), document, env)
    (WORK / f"result-{args.workload}-{seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, detail={k: v for k, v in document.items()
                                                 if k != "problems"},
                        problems=document["problems"]), indent=1, default=str)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
