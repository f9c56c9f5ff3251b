"""BENCH-OPTIMIZE: the stacked-kernel population search vs the loop reference.

``repro.optimize``'s array engine prices the seed population with one fused
:func:`stacked_objective_components` pass, keeps its per-edge distances and
per-link loads, and prices each generation from only the guest edges whose
endpoint images the moves changed.  The pure-Python reference engine walks
every guest edge (and, for congestion-bearing objectives, every
dimension-ordered route) of every candidate.  Both engines share one RNG
stream and one acceptance driver, so the differential contract is exact:

* the searches must return **bit-for-bit identical** results — best row,
  encoded objective, provenance and the persisted ``OptimizerState``;
* the array engine must be at least ``SPEEDUP_FLOOR``x faster on the
  paper-scale 8x8 pair.

The ``pytest-benchmark`` entries snapshot the array-path medians (committed
as ``BENCH_optimize.json``); CI replays them through
``benchmarks/check_bench_regression.py`` and fails the build on a >2x median
slowdown — the same gate that guards the netsim kernels and the batched
survey.  Run with ``-s`` to see the measured ratio; refresh the snapshot with
``--benchmark-json=BENCH_optimize.json``.
"""

import time

from repro.graphs.base import Mesh, Torus
from repro.optimize import OptimizeOptions, optimize_embedding
from repro.runtime import use_context

SPEEDUP_FLOOR = 5.0

#: The paper-scale pair: the T_L folding's home ground, 64 nodes.
PAIR = (Torus((8, 8)), Mesh((8, 8)))

#: Small enough for the loop engine to finish in CI seconds, big enough for
#: the scoring work (not the constant setup) to dominate both engines.
FLOOR_OPTIONS = OptimizeOptions(objective="combined", budget=120, population=6, seed=7)

#: The documented default search, benchmarked on the array path only.
FULL_OPTIONS = OptimizeOptions(objective="combined", budget=2000, population=16, seed=7)


def _search(backend, options):
    guest, host = PAIR
    with use_context(backend=backend, cache=None):
        return optimize_embedding(guest, host, options)


def test_array_speedup_and_identical_results():
    loop_seconds = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        loop = _search("loop", FLOOR_OPTIONS)
        loop_seconds = min(loop_seconds, time.perf_counter() - started)

    array_seconds = float("inf")
    for _ in range(3):  # best-of-3 guards the assertion against CI jitter
        started = time.perf_counter()
        array = _search("array", FLOOR_OPTIONS)
        array_seconds = min(array_seconds, time.perf_counter() - started)

    # The differential contract at benchmark scale: identical everything.
    assert array.state == loop.state
    assert array.objective == loop.objective
    assert array.provenance == loop.provenance
    assert array.embedding.mapping == loop.embedding.mapping

    speedup = loop_seconds / array_seconds
    evaluations = array.evaluations
    print(
        f"\n8x8 search ({evaluations} candidate evaluations): "
        f"loop {loop_seconds:.3f}s, array {array_seconds:.3f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"stacked-kernel search only {speedup:.1f}x faster than the "
        f"pure-Python engine (floor {SPEEDUP_FLOOR}x)"
    )


def test_benchmark_array_search_floor_budget(benchmark):
    result = benchmark(lambda: _search("array", FLOOR_OPTIONS))
    assert result.state == _search("loop", FLOOR_OPTIONS).state


def test_benchmark_array_search_default_budget(benchmark):
    result = benchmark(lambda: _search("array", FULL_OPTIONS))
    assert result.dilation <= 2  # never worse than the paper's T_L folding
