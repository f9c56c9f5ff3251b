"""BENCH-CONSTRUCTION: array-native builders vs the per-node loop reference.

PR 1 vectorized the *cost* side; this benchmark guards the *construction*
side added on top of it.  Every strategy family is built at table scale
(4096–32768 nodes, the sizes of the paper's result tables) with both
construction methods:

* ``use_context(backend="loop")`` — the retained per-node reference
  builders (``Embedding.from_callable`` over a Python dict);
* ``use_context(backend="array")`` — the batch kernels of
  :mod:`repro.numbering.batch` producing the flat host-index array directly.

The two must produce node-for-node identical mappings, and the array path
must be at least ``SPEEDUP_FLOOR``x faster over the whole batch.  Both sides
are timed from empty construction memos (:data:`CONSTRUCTION_MEMOS`): a pass
over warm sequence tables and factor searches would time lookups, not
construction.  Run with ``pytest benchmarks/bench_construction.py -s`` to
see the measured ratio.
"""

import math
import time

import pytest

from repro.core import expansion
from repro.core.dispatch import embed
from repro.graphs.base import Line, Mesh, Ring, Torus
from repro.numbering import arrays, batch
from repro.runtime import use_context
from repro.utils import intmath

#: Table-scale pairs, one per strategy family the dispatcher can select.
TABLE_SCALE_PAIRS = [
    (Torus((16, 16, 16)), Mesh((16, 16, 16))),   # same-shape:T_L, 4096 nodes
    (Mesh((8, 16, 32)), Mesh((32, 16, 8))),      # permute-dimensions, 4096 nodes
    (Line(32768), Torus((32, 32, 32))),          # line:f_L, 32768 nodes
    (Ring(32768), Mesh((32, 32, 32))),           # ring:π∘h_L*, 32768 nodes
    (Torus((64, 64)), Torus((8, 8, 8, 8))),      # increasing:H_V, 4096 nodes
    (Mesh((64, 64)), Mesh((8, 8, 8, 8))),        # increasing:F_V, 4096 nodes
    (Torus((8, 8, 8)), Mesh((64, 8))),           # lowering:U_V∘T∘τ, 512^.. 4096 nodes
    (Mesh((16, 16, 12)), Mesh((48, 64))),        # lowering:β∘F'_S∘α, 3072 nodes
    (Mesh((8, 8, 8, 8)), Line(4096)),            # 1-D host collapse, 4096 nodes
    (Mesh((4,) * 6), Mesh((64, 64))),            # square-lowering chain, 4096 nodes
    (Mesh((64, 64)), Mesh((16, 16, 16))),        # square-increasing chain, 4096 nodes
]

SPEEDUP_FLOOR = 10.0

#: The process-wide memos a construction fills: sequence tables, digit
#: weights, shape tables, factor searches and prime factorizations.
CONSTRUCTION_MEMOS = (
    batch.sequence_table,
    arrays._weights,
    arrays.shape_tables,
    expansion._first_expansion_factor,
    expansion._first_unit_dilation_factor,
    intmath.prime_factorization,
)


def _build_all(backend):
    with use_context(backend=backend):
        return [embed(guest, host) for guest, host in TABLE_SCALE_PAIRS]


def _build_all_cold(backend):
    """``_build_all`` timed from empty memos: ``(embeddings, seconds)``."""
    for memo in CONSTRUCTION_MEMOS:
        memo.cache_clear()
    started = time.perf_counter()
    built = _build_all(backend)
    return built, time.perf_counter() - started


def test_construction_array_speedup_over_loop_builders():
    loop_built, loop_seconds = _build_all_cold("loop")

    array_seconds = math.inf
    for _ in range(3):  # best-of-3 guards the assertion against CI jitter
        array_built, seconds = _build_all_cold("array")
        array_seconds = min(array_seconds, seconds)

    # Identical constructions, node for node (the differential contract).
    for array_embedding, loop_embedding in zip(array_built, loop_built):
        assert array_embedding.strategy == loop_embedding.strategy
        assert (
            array_embedding.host_index_array() == loop_embedding.host_index_array()
        ).all()

    speedup = loop_seconds / array_seconds
    total_nodes = sum(guest.size for guest, _ in TABLE_SCALE_PAIRS)
    print(
        f"\n{len(TABLE_SCALE_PAIRS)} table-scale builds ({total_nodes} nodes): "
        f"loop {loop_seconds:.3f}s, array {array_seconds:.3f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"array construction only {speedup:.1f}x faster than the loop builders "
        f"(floor {SPEEDUP_FLOOR}x) over {len(TABLE_SCALE_PAIRS)} table-scale pairs"
    )


def test_benchmark_array_construction_batch(benchmark):
    built = benchmark(lambda: _build_all("array"))
    assert len(built) == len(TABLE_SCALE_PAIRS)


@pytest.mark.parametrize(
    "guest,host",
    [
        (Line(32768), Torus((32, 32, 32))),
        (Torus((64, 64)), Torus((8, 8, 8, 8))),
        (Torus((8, 8, 8)), Mesh((64, 8))),
    ],
    ids=["line-32k", "increasing-4k", "lowering-4k"],
)
def test_benchmark_single_array_construction(benchmark, guest, host):
    def build():
        with use_context(backend="array"):
            return embed(guest, host)

    embedding = benchmark(build)
    assert embedding.is_valid()
