"""Tests for the adversarial traffic generators and their vectorized twins.

Every named pattern has two forms — the tuple builder (loop reference) and
the rank generator feeding batched survey shards — which must agree message
for message.  The workload-specific shapes (permutation injectivity, the
hotspot sink, seeded burst fan-in) are pinned here too, along with the
array-vs-loop phase simulation for each new pattern.
"""

import pytest
from hypothesis import given, settings

from repro.core.dispatch import embed
from repro.exceptions import SimulationError
from repro.graphs.base import Mesh, Torus
from repro.netsim.network import HostNetwork
from repro.netsim.simulator import simulate_phase
from repro.netsim.traffic import (
    bursty_traffic,
    hotspot_traffic,
    random_permutation_traffic,
    traffic_pattern,
    traffic_pattern_names,
    traffic_rank_arrays,
)
from repro.runtime import use_context
from repro.types import GraphKind

from .conftest import graph_kinds, small_shapes

pytestmark = pytest.mark.smoke

NEW_PATTERNS = ("random-permutation", "hotspot", "bursty")


def _graph(kind, shape):
    return Torus(shape) if kind == GraphKind.TORUS else Mesh(shape)


class TestRankGeneratorEquivalence:
    @pytest.mark.parametrize("name", sorted(traffic_pattern_names()))
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (6,)])
    def test_rank_arrays_equal_builder_message_for_message(self, name, shape):
        guest = Torus(shape)
        generated = traffic_rank_arrays(name, guest)
        if generated is None:
            pytest.skip(f"{name} has no vectorized generator")
        pattern = traffic_pattern(name, guest)
        built = pattern.endpoint_rank_arrays(guest.shape)
        for got, want in zip(generated, built):
            assert got.dtype == want.dtype
            assert (got == want).all()

    @given(kind=graph_kinds, shape=small_shapes())
    @settings(max_examples=30, deadline=None)
    def test_new_patterns_agree_on_random_guests(self, kind, shape):
        guest = _graph(kind, shape)
        for name in NEW_PATTERNS:
            generated = traffic_rank_arrays(name, guest)
            built = traffic_pattern(name, guest).endpoint_rank_arrays(guest.shape)
            for got, want in zip(generated, built):
                assert (got == want).all()

    def test_message_size_threads_through_both_forms(self):
        guest = Torus((3, 4))
        pattern = random_permutation_traffic(guest, message_size=2.5)
        assert all(message.size == 2.5 for message in pattern.messages)
        _, _, sizes = traffic_rank_arrays("hotspot", guest, message_size=0.5)
        assert (sizes == 0.5).all()

    def test_unknown_pattern_name(self):
        with pytest.raises(SimulationError, match="unknown traffic pattern"):
            traffic_pattern("tsunami", Torus((3, 4)))
        assert traffic_rank_arrays("tsunami", Torus((3, 4))) is None


class TestWorkloadShapes:
    @given(kind=graph_kinds, shape=small_shapes())
    @settings(max_examples=30, deadline=None)
    def test_random_permutation_is_injective_without_fixed_points(self, kind, shape):
        guest = _graph(kind, shape)
        pattern = random_permutation_traffic(guest)
        sources = [guest.node_index(m.source) for m in pattern.messages]
        targets = [guest.node_index(m.destination) for m in pattern.messages]
        assert len(set(sources)) == len(sources)  # each task sends at most once
        assert len(set(targets)) == len(targets)  # ...and receives at most once
        assert all(s != t for s, t in zip(sources, targets))

    def test_random_permutation_seeds_are_independent(self):
        guest = Torus((3, 4))
        base = random_permutation_traffic(guest, seed=0)
        again = random_permutation_traffic(guest, seed=0)
        other = random_permutation_traffic(guest, seed=1)
        assert base.messages == again.messages
        assert base.messages != other.messages
        assert base.name.endswith("/s0") and other.name.endswith("/s1")

    @given(kind=graph_kinds, shape=small_shapes())
    @settings(max_examples=30, deadline=None)
    def test_hotspot_fans_every_task_into_the_sink(self, kind, shape):
        guest = _graph(kind, shape)
        pattern = hotspot_traffic(guest)
        assert len(pattern.messages) == guest.size - 1
        sink = guest.index_node(0)
        assert all(m.destination == sink for m in pattern.messages)
        sources = {guest.node_index(m.source) for m in pattern.messages}
        assert sources == set(range(1, guest.size))

    @given(kind=graph_kinds, shape=small_shapes())
    @settings(max_examples=30, deadline=None)
    def test_bursty_draws_bounded_self_free_bursts(self, kind, shape):
        guest = _graph(kind, shape)
        pattern = bursty_traffic(guest)
        assert 1 <= len(pattern.messages) <= 3 * max(1, guest.size // 4)
        assert all(m.source != m.destination for m in pattern.messages)
        assert bursty_traffic(guest).messages == pattern.messages


class TestWorkloadSimulation:
    @pytest.mark.parametrize("name", NEW_PATTERNS)
    def test_phase_simulation_identical_across_backends(self, name):
        guest, host = Torus((3, 4)), Mesh((3, 4))
        results = {}
        for backend in ("array", "loop"):
            with use_context(backend=backend):
                embedding = embed(guest, host)
                pattern = traffic_pattern(name, guest)
                result = simulate_phase(HostNetwork(host), embedding, pattern)
                results[backend] = (result.makespan, result.statistics.as_row())
        assert results["array"] == results["loop"]

    def test_hotspot_is_contention_dominated(self):
        guest = host = Torus((4, 4))
        embedding = embed(guest, host)
        result = simulate_phase(HostNetwork(host), embedding, hotspot_traffic(guest))
        # The sink's four incident links serialize 15 unit messages.
        assert result.makespan >= (guest.size - 1) / 4
