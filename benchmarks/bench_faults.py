"""BENCH-FAULTS: the degraded-host pipeline at survey scale.

The fault axis adds work the pristine pipeline never pays — surviving-graph
BFS, embedding repair, detour splicing — so it gets its own perf floor.
Three timed probes, each the hot path of one ``--suite faults`` stage:

* the vectorized masked BFS (``bfs_distance_row``) against the pure-Python
  reference, asserted identical on a table-sized degraded torus;
* repair plus degraded-dilation measurement for an expansion pair;
* the fault-aware weighted phase simulation end to end.

Run with ``pytest benchmarks/bench_faults.py`` (add ``--benchmark-only`` to
skip the equivalence assertion).
"""

from repro.analysis.fault_tolerance import fault_dilation_summary, repair_embedding
from repro.core.dispatch import embed
from repro.graphs.base import Mesh, Torus
from repro.graphs.faults import FaultSpec
from repro.netsim.network import HostNetwork
from repro.netsim.simulator import simulate_phase
from repro.netsim.traffic import traffic_pattern
from repro.netsim.weights import LinkWeightSpec

#: Table-sized degraded host: 256 processors, a handful of dead resources.
HOST_SHAPE = (16, 16)
FAULTS = FaultSpec(num_nodes=3, num_links=4, seed=11)


def _degraded_host():
    host = Torus(HOST_SHAPE)
    return host, FAULTS.apply(host)


def test_masked_bfs_row_matches_loop_reference():
    _, faults = _degraded_host()
    for source in faults.surviving_ranks()[:8]:
        loop = faults.bfs_distances(source)
        row = faults.bfs_distance_row(source)
        assert all(loop.get(rank, -1) == int(row[rank]) for rank in range(row.size))


def test_benchmark_masked_bfs_rows(benchmark):
    _, faults = _degraded_host()
    sources = faults.surviving_ranks()[:16]

    def run():
        # Fresh Faults each round: the masked matrix is cached per instance.
        fresh = FAULTS.apply(Torus(HOST_SHAPE))
        return [fresh.bfs_distance_row(source) for source in sources]

    rows = benchmark(run)
    assert len(rows) == len(sources)


def test_benchmark_repair_and_degraded_dilation(benchmark):
    guest = Torus((4, 6))
    host = Mesh((5, 6))
    embedding = embed(guest, host)
    faults = FaultSpec(num_nodes=1, num_links=2, seed=7).apply(host)

    def run():
        repaired = repair_embedding(embedding, faults)
        return fault_dilation_summary(repaired, faults)

    dilation, average = benchmark(run)
    assert dilation >= 1
    assert average >= 1.0


def test_benchmark_faulted_weighted_phase(benchmark):
    guest = host = Torus((8, 8))
    embedding = embed(guest, host)
    faults = FaultSpec(num_links=4, seed=11).apply(host)
    network = HostNetwork(host, link_weights=LinkWeightSpec("dimension", 0.5))
    pattern = traffic_pattern("neighbor-exchange", guest)

    result = benchmark(
        lambda: simulate_phase(network, embedding, pattern, faults=faults)
    )
    assert result.makespan > 0
