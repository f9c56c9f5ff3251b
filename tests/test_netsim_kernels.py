"""Differential tests for the vectorized netsim kernels.

The array path of the simulation layer must reproduce the per-message loop
reference *exactly*: routes node-for-node (same hops, same order, same
torus tie-breaks), analytic phase statistics field-for-field, and the
discrete-event simulation float-for-float.  Message sizes in the property
tests are dyadic rationals (multiples of 1/4 with small magnitudes), for
which IEEE-754 summation is exact in any order — so even the accumulated
float statistics are compared with ``==``, never ``approx``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import random_embedding
from repro.core.dispatch import embed
from repro.exceptions import SimulationError
from repro.graphs.base import Mesh, Torus, make_graph
from repro.netsim import (
    HostNetwork,
    Message,
    TrafficPattern,
    accumulate_link_loads,
    all_to_all_in_groups_traffic,
    analytic_phase_estimate,
    expand_routes,
    neighbor_exchange_traffic,
    route_message,
    simulate_phase,
    traffic_rank_arrays,
    transpose_traffic,
)
from repro.numbering.arrays import indices_to_digits, signed_offset_digits
from repro.runtime import use_context

from .strategies import graph_kinds, same_size_shape_pairs, small_shapes

#: Dyadic message sizes: float sums over these are exact in any order.
DYADIC_SIZES = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.75])


@st.composite
def host_with_endpoints(draw):
    """A host graph plus a batch of (source, target) rank pairs."""
    shape = draw(small_shapes(max_dim=3))
    kind = draw(graph_kinds)
    graph = make_graph(kind, shape)
    count = draw(st.integers(min_value=0, max_value=30))
    ranks = st.integers(min_value=0, max_value=graph.size - 1)
    pairs = draw(st.lists(st.tuples(ranks, ranks), min_size=count, max_size=count))
    return graph, pairs


@st.composite
def placed_phases(draw):
    """A (network, embedding, traffic) triple covering the whole input space."""
    guest_shape, host_shape = draw(same_size_shape_pairs(max_dim=3))
    guest = make_graph(draw(graph_kinds), guest_shape)
    host = make_graph(draw(graph_kinds), host_shape)
    embedding = random_embedding(guest, host, seed=draw(st.integers(0, 5)))
    ranks = st.integers(min_value=0, max_value=guest.size - 1)
    messages = tuple(
        Message(guest.index_node(a), guest.index_node(b), size)
        for a, b, size in draw(
            st.lists(st.tuples(ranks, ranks, DYADIC_SIZES), min_size=0, max_size=25)
        )
    )
    return HostNetwork(host), embedding, TrafficPattern("hypothesis", messages)


class TestRouteExpansion:
    @settings(max_examples=60, deadline=None)
    @given(host_with_endpoints())
    def test_array_routes_match_loop_node_for_node(self, case):
        graph, pairs = case
        network = HostNetwork(graph)
        space = network.link_index_space()
        sources = np.asarray([a for a, _ in pairs], dtype=np.int64)
        targets = np.asarray([b for _, b in pairs], dtype=np.int64)
        routes = expand_routes(
            space,
            indices_to_digits(sources, graph.shape),
            indices_to_digits(targets, graph.shape),
        )
        assert routes.num_messages == len(pairs)
        assert routes.total_hops == int(routes.hops.sum())
        for index, (a, b) in enumerate(pairs):
            reference = route_message(
                network, graph.index_node(a), graph.index_node(b)
            )
            ids = routes.link_ids[routes.starts[index] : routes.starts[index + 1]]
            assert space.link_tuples(ids) == reference

    @settings(max_examples=60, deadline=None)
    @given(host_with_endpoints())
    def test_offset_magnitudes_sum_to_graph_distance(self, case):
        graph, pairs = case
        if not pairs:
            return
        sources = np.asarray([a for a, _ in pairs], dtype=np.int64)
        targets = np.asarray([b for _, b in pairs], dtype=np.int64)
        offsets = signed_offset_digits(
            indices_to_digits(sources, graph.shape),
            indices_to_digits(targets, graph.shape),
            graph.shape,
            torus=graph.is_torus,
        )
        distances = graph.distance_indices(sources, targets)
        assert (np.abs(offsets).sum(axis=1) == distances).all()

    def test_link_ids_are_unique_per_route(self):
        # A shortest path never revisits a link; the flat ids must agree.
        graph = Torus((4, 3, 5))
        network = HostNetwork(graph)
        space = network.link_index_space()
        rng = np.random.default_rng(7)
        sources = rng.integers(0, graph.size, 100)
        targets = rng.integers(0, graph.size, 100)
        routes = expand_routes(
            space,
            indices_to_digits(sources, graph.shape),
            indices_to_digits(targets, graph.shape),
        )
        for index in range(100):
            ids = routes.link_ids[routes.starts[index] : routes.starts[index + 1]]
            assert len(set(ids.tolist())) == len(ids)

    def test_decode_round_trips_link_endpoints(self):
        graph = Mesh((3, 4))
        network = HostNetwork(graph)
        space = network.link_index_space()
        routes = expand_routes(
            space,
            indices_to_digits(np.arange(graph.size), graph.shape),
            indices_to_digits(np.full(graph.size, graph.size - 1), graph.shape),
        )
        sources, targets = space.decode(routes.link_ids)
        for u, v in zip(sources.tolist(), targets.tolist()):
            assert network.link_exists(
                (graph.index_node(u), graph.index_node(v))
            )

    def test_expansion_frees_its_message_by_dimension_temporaries(self):
        # Torus(32,32) -> Mesh(4,4,4,4,4) all-to-all-groups: 31,744 messages
        # over 5 dimensions.  The (m, d) int64 temporaries must not all be
        # alive at once: the traced peak stays within six of them, outputs
        # (the hop and link-id arrays) included.
        guest, host = Torus((32, 32)), Mesh((4, 4, 4, 4, 4))
        images = embed(guest, host).host_index_array()
        sources, targets, _ = traffic_rank_arrays("all-to-all-groups", guest)
        space = HostNetwork(host).link_index_space()
        src_digits = indices_to_digits(images[sources], host.shape)
        dst_digits = indices_to_digits(images[targets], host.shape)
        m, d = src_digits.shape
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            routes = expand_routes(space, src_digits, dst_digits)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (m, d) == (31744, 5)
        distances = host.distance_indices(images[sources], images[targets])
        assert routes.total_hops == int(distances.sum())
        assert peak <= 6 * m * d * 8, peak / (m * d * 8)


class TestAnalyticEstimateDifferential:
    @settings(max_examples=50, deadline=None)
    @given(placed_phases())
    def test_array_equals_loop_exactly(self, case):
        network, embedding, traffic = case
        with use_context(backend="array"):
            array = analytic_phase_estimate(network, embedding, traffic)
        with use_context(backend="loop"):
            loop = analytic_phase_estimate(network, embedding, traffic)
        assert array == loop  # frozen dataclass: field-for-field, floats included

    @pytest.mark.parametrize(
        "guest,host",
        [
            (Torus((4, 6)), Mesh((2, 2, 2, 3))),
            (Mesh((4, 6)), Torus((24,))),
            (Torus((8, 8)), Mesh((4, 4, 4))),
        ],
    )
    def test_paper_traffic_patterns_agree(self, guest, host):
        network = HostNetwork(host)
        embedding = embed(guest, host)
        for traffic in (
            neighbor_exchange_traffic(guest),
            transpose_traffic(guest),
            all_to_all_in_groups_traffic(guest),
        ):
            with use_context(backend="array"):
                array = analytic_phase_estimate(network, embedding, traffic)
            with use_context(backend="loop"):
                loop = analytic_phase_estimate(network, embedding, traffic)
            assert array == loop

    def test_link_loads_match_loop_reference_per_link(self):
        guest, host = Torus((4, 4)), Mesh((2, 2, 2, 2))
        network = HostNetwork(host)
        embedding = embed(guest, host)
        traffic = neighbor_exchange_traffic(guest)
        space = network.link_index_space()
        sources, targets, sizes = traffic.endpoint_rank_arrays(guest.shape)
        images = embedding.host_index_array()
        routes = expand_routes(
            space,
            indices_to_digits(images[sources], host.shape),
            indices_to_digits(images[targets], host.shape),
        )
        occupancy = network.cost_model.alpha + sizes / network.cost_model.bandwidth
        counts, volume, busy = accumulate_link_loads(space, routes, sizes, occupancy)
        reference: dict = {}
        for source, target, size in traffic.placed(embedding):
            for link in route_message(network, source, target):
                reference[link] = reference.get(link, 0) + 1
        loaded = np.flatnonzero(counts)
        assert len(loaded) == len(reference)
        for link_id, tuples in zip(loaded, space.link_tuples(loaded)):
            assert counts[link_id] == reference[tuples]
            assert volume[link_id] == float(reference[tuples])
            assert busy[link_id] == 2.0 * reference[tuples]  # alpha=1, size=1

    def test_empty_traffic(self):
        guest, host = Torus((3, 4)), Mesh((3, 4))
        network = HostNetwork(host)
        embedding = embed(guest, host)
        empty = TrafficPattern("empty", ())
        for backend in ("array", "loop"):
            with use_context(backend=backend):
                statistics = analytic_phase_estimate(network, embedding, empty)
            assert statistics.num_messages == 0
            assert statistics.estimated_completion_time == 0.0

    def test_array_path_validates_topology_and_endpoints(self):
        guest, host = Torus((4, 4)), Mesh((4, 4))
        embedding = embed(guest, host)
        with use_context(backend="array"):
            with pytest.raises(SimulationError):
                analytic_phase_estimate(
                    HostNetwork(Mesh((2, 8))),
                    embedding,
                    neighbor_exchange_traffic(guest),
                )
            bad = TrafficPattern("bad", (Message((9, 9), (0, 0)),))
            with pytest.raises(SimulationError):
                analytic_phase_estimate(HostNetwork(host), embedding, bad)


class TestSimulationDifferential:
    @settings(max_examples=40, deadline=None)
    @given(placed_phases())
    def test_simulate_phase_array_equals_loop_exactly(self, case):
        network, embedding, traffic = case
        with use_context(backend="array"):
            array = simulate_phase(network, embedding, traffic)
        with use_context(backend="loop"):
            loop = simulate_phase(network, embedding, traffic)
        assert array.makespan == loop.makespan
        assert array.per_message_completion == loop.per_message_completion
        assert array.statistics == loop.statistics

    def test_event_limit_matches_loop_semantics(self):
        guest, host = Torus((4, 4)), Mesh((2, 2, 2, 2))
        network = HostNetwork(host)
        embedding = embed(guest, host)
        traffic = neighbor_exchange_traffic(guest)
        for backend in ("array", "loop"):
            with use_context(backend=backend), pytest.raises(SimulationError):
                simulate_phase(network, embedding, traffic, max_events=3)

    def test_cost_model_parameters_thread_through_both_paths(self):
        from repro.netsim import CostModel

        guest, host = Torus((4, 4)), Mesh((4, 4))
        network = HostNetwork(host, CostModel(alpha=0.5, bandwidth=4.0))
        embedding = embed(guest, host)
        traffic = neighbor_exchange_traffic(guest, message_size=2.0)
        with use_context(backend="array"):
            array = simulate_phase(network, embedding, traffic)
        with use_context(backend="loop"):
            loop = simulate_phase(network, embedding, traffic)
        assert array.makespan == loop.makespan
        assert array.statistics == loop.statistics


class TestAllToAllGroupsTraffic:
    def test_message_count_and_grouping(self):
        guest = Torus((4, 6))
        pattern = all_to_all_in_groups_traffic(guest)
        # Default group size: the last dimension (6) -> n * (g - 1) messages.
        assert len(pattern) == guest.size * 5
        # Every message stays within one pencil (equal leading coordinates).
        for message in pattern:
            assert message.source[:-1] == message.destination[:-1]
            assert message.source != message.destination

    def test_explicit_group_size(self):
        guest = Mesh((4, 4))
        pattern = all_to_all_in_groups_traffic(guest, group_size=8)
        assert len(pattern) == 16 * 7

    def test_invalid_group_size_rejected(self):
        guest = Mesh((4, 4))
        with pytest.raises(SimulationError):
            all_to_all_in_groups_traffic(guest, group_size=5)
        with pytest.raises(SimulationError):
            all_to_all_in_groups_traffic(guest, group_size=0)


class TestTrafficRegistry:
    def test_names_resolve(self):
        from repro.netsim import traffic_pattern, traffic_pattern_names

        guest = Torus((3, 4))
        for name in traffic_pattern_names():
            pattern = traffic_pattern(name, guest)
            assert isinstance(pattern, TrafficPattern)

    def test_unknown_name_rejected(self):
        from repro.netsim import traffic_pattern

        with pytest.raises(SimulationError):
            traffic_pattern("carrier-pigeon", Torus((3, 4)))

    def test_endpoint_rank_arrays_round_trip(self):
        guest = Torus((3, 4))
        pattern = neighbor_exchange_traffic(guest)
        sources, targets, sizes = pattern.endpoint_rank_arrays(guest.shape)
        assert len(sources) == len(targets) == len(sizes) == len(pattern)
        for rank_a, rank_b, message in zip(
            sources.tolist(), targets.tolist(), pattern
        ):
            assert guest.index_node(rank_a) == message.source
            assert guest.index_node(rank_b) == message.destination
