"""BENCH-NETSIM: vectorized simulation kernels vs the per-message loop.

PR 2 made construction array-native; this benchmark guards the final scalar
hot path — the network-simulation layer.  Survey-scale phases (4096-node
hosts, thousands of messages across all three traffic patterns) are
evaluated with both implementations of the analytic phase estimate:

* ``use_context(backend="loop")`` — the retained per-message reference
  (``route_message`` node-tuple paths, dict-keyed link loads);
* ``use_context(backend="array")`` — batched dimension-ordered routing over
  the flat directed-link id space plus ``np.bincount`` load accumulation
  (:mod:`repro.netsim.kernels`).

The two must produce identical statistics (field-for-field, floats
included), and the array path must be at least ``SPEEDUP_FLOOR``x faster
over the whole batch.  Run with ``-s`` to see the measured ratio; run with
``--benchmark-json=BENCH_netsim.json`` to refresh the committed perf
snapshot (the CI workflow uploads the same JSON as a build artifact).
"""

import math
import time

import pytest

from repro.core.dispatch import embed
from repro.graphs.base import Mesh, Torus
from repro.netsim import (
    HostNetwork,
    all_to_all_in_groups_traffic,
    analytic_phase_estimate,
    neighbor_exchange_traffic,
    simulate_phase,
    transpose_traffic,
)
from repro.runtime import use_context

#: Survey-scale phases: (guest, host, traffic builder) per pattern family.
SURVEY_SCALE_PHASES = [
    (Torus((64, 64)), Mesh((8, 8, 8, 8)), neighbor_exchange_traffic),
    (Mesh((64, 64)), Mesh((8, 8, 8, 8)), transpose_traffic),
    (Torus((8, 8, 8)), Mesh((64, 8)), all_to_all_in_groups_traffic),
]

SPEEDUP_FLOOR = 10.0


def _estimate_one_array(network, embedding, traffic):
    with use_context(backend="array"):
        return analytic_phase_estimate(network, embedding, traffic)


def _phases():
    phases = []
    for guest, host, build_traffic in SURVEY_SCALE_PHASES:
        phases.append(
            (HostNetwork(host), embed(guest, host), build_traffic(guest))
        )
    return phases


def _estimate_all(phases, backend):
    with use_context(backend=backend):
        return [
            analytic_phase_estimate(network, embedding, traffic)
            for network, embedding, traffic in phases
        ]


def test_analytic_estimate_array_speedup_over_loop():
    phases = _phases()

    started = time.perf_counter()
    loop_statistics = _estimate_all(phases, "loop")
    loop_seconds = time.perf_counter() - started

    array_seconds = math.inf
    for _ in range(3):  # best-of-3 guards the assertion against CI jitter
        started = time.perf_counter()
        array_statistics = _estimate_all(phases, "array")
        array_seconds = min(array_seconds, time.perf_counter() - started)

    # Identical statistics, field for field (the differential contract).
    assert array_statistics == loop_statistics

    speedup = loop_seconds / array_seconds
    messages = sum(len(traffic) for _, _, traffic in phases)
    print(
        f"\n{len(phases)} survey-scale phases ({messages} messages): "
        f"loop {loop_seconds:.3f}s, array {array_seconds:.3f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized analytic estimate only {speedup:.1f}x faster than the "
        f"loop reference (floor {SPEEDUP_FLOOR}x) over {len(phases)} phases"
    )


def _simulate_one(backend, network, embedding, traffic):
    with use_context(backend=backend):
        return simulate_phase(network, embedding, traffic)


def test_simulate_phase_array_matches_loop_at_scale():
    network, embedding, traffic = _phases()[0]
    # One cold array call reads several times its warm time, and so would
    # the printed ratio: warm both backends, then time the loop once and
    # the array side as its best of 15.
    for backend in ("loop", "array"):
        _simulate_one(backend, network, embedding, traffic)
    started = time.perf_counter()
    loop_result = _simulate_one("loop", network, embedding, traffic)
    loop_seconds = time.perf_counter() - started
    array_seconds = math.inf
    for _ in range(15):
        started = time.perf_counter()
        array_result = _simulate_one("array", network, embedding, traffic)
        array_seconds = min(array_seconds, time.perf_counter() - started)
    assert array_result.makespan == loop_result.makespan
    assert array_result.per_message_completion == loop_result.per_message_completion
    print(
        f"\nsimulate_phase({len(traffic)} messages): "
        f"loop {loop_seconds:.3f}s, array {array_seconds:.3f}s "
        f"({loop_seconds / array_seconds:.1f}x)"
    )


def test_benchmark_analytic_estimate_array_batch(benchmark):
    phases = _phases()
    statistics = benchmark(lambda: _estimate_all(phases, "array"))
    assert len(statistics) == len(SURVEY_SCALE_PHASES)


@pytest.mark.parametrize(
    "index",
    range(len(SURVEY_SCALE_PHASES)),
    ids=["neighbor-exchange-4k", "transpose-4k", "all-to-all-groups-512"],
)
def test_benchmark_single_phase_estimate(benchmark, index):
    network, embedding, traffic = _phases()[index]
    statistics = benchmark(
        lambda: _estimate_one_array(network, embedding, traffic)
    )
    assert statistics.num_messages == len(traffic)


def test_benchmark_simulate_phase_array(benchmark):
    network, embedding, traffic = _phases()[0]
    def run():
        with use_context(backend="array"):
            return simulate_phase(network, embedding, traffic)

    result = benchmark(run)
    assert result.makespan > 0
