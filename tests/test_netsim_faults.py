"""Differential tests for the degraded-host (fault) axis.

Everything fault-aware is pinned loop-vs-array here: the seeded knockout
draw, the surviving-graph BFS distances, detour routing, embedding repair,
degraded dilation and the weighted/faulted phase simulation.  The two
backends must agree *bit for bit* — canonical BFS distances and the
integer-hash link weights make that an invariant, not a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fault_tolerance import fault_dilation_summary, repair_embedding
from repro.core.dispatch import embed
from repro.core.embedding import Embedding
from repro.exceptions import InvalidShapeError, SimulationError
from repro.graphs.base import Mesh, Torus
from repro.graphs.faults import FaultSpec, Faults
from repro.netsim.kernels import LinkIndexSpace, dead_slot_mask, expand_routes
from repro.netsim.network import HostNetwork
from repro.netsim.routing import route_message
from repro.netsim.simulator import simulate_phase
from repro.netsim.traffic import Message, TrafficPattern, neighbor_exchange_traffic
from repro.netsim.weights import LinkWeightSpec, directed_slot_id
from repro.numbering.arrays import indices_to_digits
from repro.runtime import use_context
from repro.types import GraphKind

from .conftest import fault_specs, graph_kinds, link_weight_specs, small_shapes

pytestmark = pytest.mark.smoke


def _graph(kind, shape):
    return Torus(shape) if kind == GraphKind.TORUS else Mesh(shape)


def _routed_link_ids(topology, hops):
    """The ids ``expand_routes`` gives the one-hop routes ``hops`` (rank pairs)."""
    if not hops:
        return []
    space = LinkIndexSpace(topology)
    sources, targets = np.asarray(hops, dtype=np.int64).T
    routes = expand_routes(
        space,
        indices_to_digits(sources, space.shape),
        indices_to_digits(targets, space.shape),
    )
    assert (routes.hops == 1).all()
    return routes.link_ids.tolist()


class TestFaultSpec:
    @given(spec=fault_specs())
    def test_token_round_trip(self, spec):
        assert FaultSpec.from_token(spec.token) == spec

    @pytest.mark.parametrize("token", ["", "n1l2", "x1l2s3", "n1l2s", "n 1l2s3", "l2n1s3"])
    def test_malformed_token_rejected(self, token):
        with pytest.raises(InvalidShapeError):
            FaultSpec.from_token(token)

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidShapeError):
            FaultSpec(num_nodes=-1)
        with pytest.raises(InvalidShapeError):
            FaultSpec(num_links=-2)

    @given(kind=graph_kinds, shape=small_shapes(), spec=fault_specs())
    @settings(max_examples=40, deadline=None)
    def test_apply_is_deterministic_and_well_formed(self, kind, shape, spec):
        graph = _graph(kind, shape)
        faults = spec.apply(graph)
        again = spec.apply(_graph(kind, shape))
        assert faults.dead_nodes == again.dead_nodes
        assert faults.dead_links == again.dead_links
        assert len(faults.dead_nodes) == min(spec.num_nodes, graph.size)
        for u, v in faults.dead_links:
            # Link faults are drawn over surviving endpoints only.
            assert u < v
            assert u not in faults.dead_nodes and v not in faults.dead_nodes
            assert not faults.link_alive(u, v)

    def test_repr_mentions_token_and_counts(self):
        faults = FaultSpec(1, 2, 7).apply(Torus((3, 4)))
        assert "n1l2s7" in repr(faults)


class TestSurvivingGraph:
    @given(kind=graph_kinds, shape=small_shapes(), spec=fault_specs(), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_bfs_distances_loop_equals_array_row(self, kind, shape, spec, seed):
        graph = _graph(kind, shape)
        faults = spec.apply(graph)
        source = seed % graph.size
        loop = faults.bfs_distances(source)
        row = faults.bfs_distance_row(source)
        assert row.shape == (graph.size,)
        for rank in range(graph.size):
            assert loop.get(rank, -1) == int(row[rank])

    @given(kind=graph_kinds, shape=small_shapes(), spec=fault_specs(), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_shortest_detour_is_a_shortest_surviving_path(self, kind, shape, spec, seed):
        graph = _graph(kind, shape)
        faults = spec.apply(graph)
        alive = faults.surviving_ranks()
        if len(alive) < 2:
            return
        source = alive[seed % len(alive)]
        destination = alive[(seed * 7 + 3) % len(alive)]
        path = faults.shortest_detour(source, destination)
        distance = faults.bfs_distances(source).get(destination)
        if distance is None:
            assert path is None
            return
        assert path[0] == source and path[-1] == destination
        assert len(path) == distance + 1
        for u, v in zip(path, path[1:]):
            assert faults.link_alive(u, v)

    def test_dead_source_has_no_distances_or_detours(self):
        graph = Mesh((3, 3))
        faults = Faults(graph, frozenset({4}), frozenset())
        assert faults.bfs_distances(4) == {}
        assert faults.shortest_detour(4, 0) is None
        assert faults.shortest_detour(0, 4) is None
        assert (faults.bfs_distance_row(4) == -1).all()


class TestFaultRouting:
    def test_uncut_route_matches_pristine(self):
        host = Torus((3, 4))
        network = HostNetwork(host)
        faults = Faults(host, frozenset(), frozenset({(0, 1)}))
        source, destination = host.index_node(4), host.index_node(7)
        pristine = route_message(network, source, destination)
        assert route_message(network, source, destination, faults=faults) == pristine

    def test_cut_route_takes_a_surviving_detour(self):
        host = Mesh((4,))
        network = HostNetwork(host)
        source, destination = host.index_node(0), host.index_node(1)
        faults = Faults(host, frozenset(), frozenset({(0, 1)}))
        with pytest.raises(SimulationError):
            # The only path on a line is cut: no surviving detour exists.
            route_message(network, source, destination, faults=faults)
        ring = Torus((4,))
        faults = Faults(ring, frozenset(), frozenset({(0, 1)}))
        links = route_message(
            HostNetwork(ring), ring.index_node(0), ring.index_node(1), faults=faults
        )
        assert len(links) == 3  # the long way round the ring
        for u, v in links:
            assert faults.link_alive(ring.node_index(u), ring.node_index(v))

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_dead_extent_two_link_is_detoured_on_both_backends(self, shape, backward):
        # The dead link joins the two nodes of an extent-2 mesh line; a
        # message across it, either way, must take the 3-hop detour.
        host = Mesh(shape)
        near = (0, 0)
        far = tuple(int(length == 2) for length in shape)
        dead = (host.node_index(near), host.node_index(far))
        faults = Faults(host, frozenset(), frozenset({dead}))
        source, destination = (far, near) if backward else (near, far)
        traffic = TrafficPattern("cut", (Message(source, destination),))
        embedding = Embedding.identity(host, host)
        for backend in ("array", "loop"):
            with use_context(backend=backend):
                result = simulate_phase(
                    HostNetwork(host), embedding, traffic, faults=faults
                )
            assert result.statistics.total_hops == 3, backend
            assert result.makespan == 6.0, backend

    def test_dead_endpoint_raises(self):
        host = Torus((3, 4))
        network = HostNetwork(host)
        faults = Faults(host, frozenset({0}), frozenset())
        with pytest.raises(SimulationError):
            route_message(network, host.index_node(0), host.index_node(5), faults=faults)
        with pytest.raises(SimulationError):
            route_message(network, host.index_node(5), host.index_node(0), faults=faults)


class TestRepairEmbedding:
    def test_link_only_faults_leave_embedding_untouched(self):
        guest, host = Torus((2, 3)), Mesh((2, 3))
        embedding = embed(guest, host)
        faults = FaultSpec(num_links=2, seed=7).apply(host)
        assert repair_embedding(embedding, faults) is embedding

    @given(spec=fault_specs(max_nodes=2, max_links=0), backend=st.sampled_from(["array", "loop"]))
    @settings(max_examples=25, deadline=None)
    def test_repair_is_injective_alive_and_annotated(self, spec, backend):
        guest, host = Torus((2, 3)), Mesh((3, 4))
        with use_context(backend=backend):
            embedding = embed(guest, host)
            faults = spec.apply(host)
            repaired = repair_embedding(embedding, faults)
            images = [host.node_index(repaired.map_index(r)) for r in range(guest.size)]
        assert len(set(images)) == guest.size
        assert not set(images) & faults.dead_nodes
        if spec.num_nodes and any(
            host.node_index(embedding.map_index(r)) in faults.dead_nodes
            for r in range(guest.size)
        ):
            assert repaired.strategy == f"{embedding.strategy}+repair"
            assert repaired.notes["faults"] == spec.token

    @given(spec=fault_specs(max_nodes=2, max_links=0))
    @settings(max_examples=25, deadline=None)
    def test_repair_agrees_across_backends(self, spec):
        guest, host = Mesh((8,)), Mesh((3, 4))
        results = {}
        for backend in ("array", "loop"):
            with use_context(backend=backend):
                repaired = repair_embedding(embed(guest, host), spec.apply(host))
                results[backend] = [
                    host.node_index(repaired.map_index(r)) for r in range(guest.size)
                ]
        assert results["array"] == results["loop"]

    def test_repair_rejects_foreign_faults_and_full_hosts(self):
        guest = host = Torus((2, 3))
        embedding = embed(guest, host)
        other = FaultSpec(1, 0, 3).apply(Torus((3, 2)))
        with pytest.raises(SimulationError):
            repair_embedding(embedding, other)
        # Same-size pair: a node fault leaves nowhere to re-place.
        from repro.exceptions import UnsupportedEmbeddingError

        faults = FaultSpec(num_nodes=1, seed=0).apply(host)
        with pytest.raises(UnsupportedEmbeddingError):
            repair_embedding(embedding, faults)


class TestFaultDilation:
    @given(spec=fault_specs())
    @settings(max_examples=30, deadline=None)
    def test_summary_agrees_across_backends(self, spec):
        guest, host = Torus((2, 3)), Mesh((3, 4))
        results = {}
        for backend in ("array", "loop"):
            with use_context(backend=backend):
                faults = spec.apply(host)
                repaired = repair_embedding(embed(guest, host), faults)
                try:
                    results[backend] = fault_dilation_summary(repaired, faults)
                except SimulationError:
                    results[backend] = "disconnected"
        assert results["array"] == results["loop"]

    def test_pristine_faults_reproduce_the_exact_dilation(self):
        guest, host = Torus((2, 3)), Mesh((3, 4))
        embedding = embed(guest, host)
        faults = Faults(host, frozenset(), frozenset())
        dilation, average = fault_dilation_summary(embedding, faults)
        assert dilation == embedding.dilation()
        assert average == pytest.approx(embedding.average_dilation())

    def test_unrepaired_dead_image_raises(self):
        guest = host = Torus((2, 3))
        embedding = embed(guest, host)
        faults = FaultSpec(num_nodes=1, seed=0).apply(host)
        for backend in ("array", "loop"):
            with use_context(backend=backend), pytest.raises(SimulationError):
                fault_dilation_summary(embedding, faults)


class TestLinkWeights:
    @given(spec=link_weight_specs, kind=graph_kinds, shape=small_shapes())
    @settings(max_examples=40, deadline=None)
    def test_weight_array_matches_scalar_evaluation_bitwise(self, spec, kind, shape):
        topology = _graph(kind, shape)
        space = LinkIndexSpace(topology)
        weights = spec.weight_array(space)
        assert weights.shape == (space.num_slots,)
        for slot in range(space.num_slots):
            assert spec.weight_of_slot(topology, slot) == float(weights[slot])

    @given(kind=graph_kinds, shape=small_shapes())
    @settings(max_examples=25, deadline=None)
    def test_directed_slot_ids_are_unique_per_directed_link(self, kind, shape):
        topology = _graph(kind, shape)
        seen = set()
        hops, slots = [], []
        for a, b in topology.edges():
            for source, target in ((a, b), (b, a)):
                slot = directed_slot_id(topology, source, target)
                assert 0 <= slot < 2 * topology.dimension * topology.size
                assert slot not in seen
                seen.add(slot)
                hops.append((topology.node_index(source), topology.node_index(target)))
                slots.append(slot)
        # Each id is the one route expansion gives the hop, so the loop
        # backend prices and masks the link the array backend routes over.
        assert slots == _routed_link_ids(topology, hops)

    @given(kind=graph_kinds, shape=small_shapes(max_len=4), spec=fault_specs())
    @settings(max_examples=40, deadline=None)
    def test_dead_slot_mask_marks_exactly_the_routed_ids_of_dead_links(
        self, kind, shape, spec
    ):
        topology = _graph(kind, shape)
        faults = spec.apply(topology)
        hops = []
        for a, b in topology.edges():
            u, v = topology.node_index(a), topology.node_index(b)
            if not faults.link_alive(u, v):
                hops.extend([(u, v), (v, u)])
        mask = dead_slot_mask(LinkIndexSpace(topology), faults)
        want = set(_routed_link_ids(topology, hops))
        assert set(np.flatnonzero(mask).tolist()) == want

    def test_non_adjacent_hop_rejected(self):
        topology = Mesh((4, 4))
        with pytest.raises(InvalidShapeError):
            directed_slot_id(topology, (0, 0), (1, 1))

    def test_token_round_trip_and_validation(self):
        spec = LinkWeightSpec("random", 0.5, 3)
        assert LinkWeightSpec.from_token(spec.token) == spec
        assert LinkWeightSpec.from_token("dimension") == LinkWeightSpec("dimension", 0.5, 0)
        with pytest.raises(InvalidShapeError):
            LinkWeightSpec.from_token("triangular:1:2")
        with pytest.raises(InvalidShapeError):
            LinkWeightSpec("uniform", -1.0)


class TestWeightedFaultedSimulation:
    @pytest.mark.parametrize("weights_token", [None, "dimension:0.5:0", "random:0.5:3"])
    @pytest.mark.parametrize("faults_token", [None, "n0l2s7", "n1l1s5"])
    def test_phase_simulation_identical_across_backends(self, weights_token, faults_token):
        guest, host = Torus((2, 3)), Mesh((3, 4))
        weights = LinkWeightSpec.from_token(weights_token) if weights_token else None
        results = {}
        for backend in ("array", "loop"):
            with use_context(backend=backend):
                network = HostNetwork(host, link_weights=weights)
                embedding = embed(guest, host)
                faults = (
                    FaultSpec.from_token(faults_token).apply(host) if faults_token else None
                )
                if faults is not None:
                    embedding = repair_embedding(embedding, faults)
                traffic = neighbor_exchange_traffic(guest)
                result = simulate_phase(network, embedding, traffic, faults=faults)
                results[backend] = (
                    result.makespan,
                    result.statistics.as_row(),
                )
        assert results["array"] == results["loop"]

    def test_uniform_weights_equal_unweighted_makespan(self):
        guest = host = Torus((3, 4))
        embedding = embed(guest, host)
        traffic = neighbor_exchange_traffic(guest)
        plain = simulate_phase(HostNetwork(host), embedding, traffic)
        uniform = simulate_phase(
            HostNetwork(host, link_weights=LinkWeightSpec("uniform")), embedding, traffic
        )
        assert plain.makespan == uniform.makespan
        assert plain.statistics.as_row() == uniform.statistics.as_row()

    def test_weighted_makespan_scales_with_slow_links(self):
        guest = host = Torus((3, 4))
        embedding = embed(guest, host)
        traffic = neighbor_exchange_traffic(guest)
        plain = simulate_phase(HostNetwork(host), embedding, traffic)
        slow = simulate_phase(
            HostNetwork(host, link_weights=LinkWeightSpec("dimension", 2.0)),
            embedding,
            traffic,
        )
        assert slow.makespan > plain.makespan
