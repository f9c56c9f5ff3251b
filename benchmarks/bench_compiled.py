"""BENCH-COMPILED: the C kernel tier vs the array backend on the simulator.

``backend="compiled"`` replaces the simulator's irregular hot loops — the
event-loop drain and CSR route expansion + link-load accumulation — with
C-via-cffi kernels, selected through the ordinary runtime context.  The
array backend stays the reference, and the contract is the usual
differential one:

* results must be **bit-for-bit identical** — makespans and completion
  lists;
* the compiled tier must be at least ``SPEEDUP_FLOOR``x faster than the
  array backend on the headline irregular workload, the 16k-message
  simulator round loop.

The ``pytest-benchmark`` entry snapshots the compiled-path median
(committed as ``BENCH_compiled.json``); CI replays it through
``benchmarks/check_bench_regression.py`` — the sixth gate pair — and fails
on a >2x median slowdown.  Refresh the snapshot with
``--benchmark-json=BENCH_compiled.json``.

The whole module skips cleanly when no kernel toolchain (cffi plus a C
compiler) is present.
"""

import time

import numpy as np
import pytest

from repro.compiled import compiled_tier_available
from repro.graphs.base import Torus
from repro.netsim.kernels import LinkIndexSpace, expand_routes
from repro.netsim.simulator import simulate_phases_rounds
from repro.numbering.arrays import indices_to_digits
from repro.runtime import use_context

pytestmark = pytest.mark.skipif(
    not compiled_tier_available(),
    reason="no kernel toolchain (cffi + C compiler)",
)

SPEEDUP_FLOOR = 2.0

#: Simulator scale: 16k random messages on a 16x16 torus — large enough that
#: the event loop (not route expansion) dominates.
SIM_MESSAGES = 16_384
SIM_HOST_SHAPE = (16, 16)


def _sim_phase():
    """One expanded 16k-message phase (deterministic endpoints/occupancies)."""
    host = Torus(SIM_HOST_SHAPE)
    space = LinkIndexSpace(host)
    rng = np.random.default_rng(42)
    src = rng.integers(0, host.size, SIM_MESSAGES)
    dst = rng.integers(0, host.size, SIM_MESSAGES)
    routes = expand_routes(
        space,
        indices_to_digits(src, host.shape),
        indices_to_digits(dst, host.shape),
    )
    occupancy = rng.uniform(0.5, 2.0, SIM_MESSAGES)
    return (space, routes, occupancy)


def _simulate(backend, phase):
    with use_context(backend=backend, cache=None):
        return simulate_phases_rounds([phase])


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_compiled_simulator_speedup_and_identical_results():
    phase = _sim_phase()
    array_seconds, array_result = _best_of(lambda: _simulate("array", phase), 3)
    compiled_seconds, compiled_result = _best_of(
        lambda: _simulate("compiled", phase), 3
    )

    # Bit-for-bit: identical makespans and per-message completion lists.
    assert compiled_result == array_result

    speedup = array_seconds / compiled_seconds
    print(
        f"\n{SIM_MESSAGES} messages on Torus{SIM_HOST_SHAPE}: "
        f"array {array_seconds * 1e3:.1f}ms, "
        f"compiled {compiled_seconds * 1e3:.1f}ms, speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"compiled drain only {speedup:.1f}x faster than the array round "
        f"loop (floor {SPEEDUP_FLOOR}x)"
    )


def test_benchmark_compiled_simulator_16k(benchmark):
    phase = _sim_phase()
    _simulate("compiled", phase)  # warm the kernel tier outside the timing
    result = benchmark(lambda: _simulate("compiled", phase))
    assert result[0][0] > 0.0
