"""Differential tests for the unequal-size (expansion) embedding axis.

The dispatcher must produce *injective sub-embeddings* for every guest
strictly smaller than its host — loop and array backends node-for-node
identical — and the ``expansion`` survey suite must record the new
``guest_size`` column and degrade gracefully on pairs without a sub-box.
"""

import math

import pytest
from hypothesis import given, settings

from repro.core.dispatch import embed, strategy_for
from repro.core.subshape import find_subshape
from repro.exceptions import ShapeMismatchError, UnsupportedEmbeddingError
from repro.graphs.base import Mesh, Torus, make_graph
from repro.runtime import use_context
from repro.survey.runner import SurveyOptions, evaluate_scenario
from repro.survey.scenarios import Scenario, scenarios_for_suite
from repro.types import GraphKind

from .conftest import graph_kinds, unequal_size_shape_pairs

pytestmark = pytest.mark.smoke


def _graph(kind, shape):
    return Torus(shape) if kind == GraphKind.TORUS else Mesh(shape)


class TestFindSubshape:
    def test_descending_divisor_search_is_greedy(self):
        assert find_subshape(6, (3, 4)) == (3, 2)
        assert find_subshape(12, (3, 4)) == (3, 4)
        assert find_subshape(8, (3, 4)) == (2, 4)
        assert find_subshape(5, (5, 5)) == (5, 1)

    def test_unfactorable_sizes_return_none(self):
        assert find_subshape(7, (3, 4)) is None       # prime above every extent
        assert find_subshape(25, (3, 4)) is None      # larger than the host
        assert find_subshape(0, (3, 4)) is None
        assert find_subshape(-2, (3, 4)) is None

    def test_degenerate_single_node(self):
        assert find_subshape(1, (3, 4)) == (1, 1)

    @given(pair=unequal_size_shape_pairs())
    @settings(max_examples=60, deadline=None)
    def test_found_subshape_is_a_valid_sub_box(self, pair):
        guest_shape, host_shape = pair
        size = math.prod(guest_shape)
        sub = find_subshape(size, host_shape)
        if sub is None:
            return
        assert len(sub) == len(host_shape)
        assert math.prod(sub) == size
        for extent, length in zip(sub, host_shape):
            assert 1 <= extent <= length


class TestExpansionDispatch:
    @given(pair=unequal_size_shape_pairs(), guest_kind=graph_kinds, host_kind=graph_kinds)
    @settings(max_examples=40, deadline=None)
    def test_backends_agree_node_for_node(self, pair, guest_kind, host_kind):
        guest_shape, host_shape = pair
        results = {}
        for backend in ("array", "loop"):
            guest = _graph(guest_kind, guest_shape)
            host = _graph(host_kind, host_shape)
            with use_context(backend=backend):
                try:
                    embedding = embed(guest, host)
                except UnsupportedEmbeddingError:
                    results[backend] = "unsupported"
                    continue
                results[backend] = (
                    embedding.strategy,
                    [host.node_index(embedding.map_index(r)) for r in range(guest.size)],
                )
        assert results["array"] == results["loop"]

    @given(pair=unequal_size_shape_pairs(), guest_kind=graph_kinds, host_kind=graph_kinds)
    @settings(max_examples=40, deadline=None)
    def test_sub_embedding_is_injective_and_bounded(self, pair, guest_kind, host_kind):
        guest_shape, host_shape = pair
        guest = _graph(guest_kind, guest_shape)
        host = _graph(host_kind, host_shape)
        try:
            embedding = embed(guest, host)
        except UnsupportedEmbeddingError:
            assert strategy_for(guest, host) == "unsupported"
            return
        assert strategy_for(guest, host) == "subshape"
        assert embedding.strategy.startswith("subshape:")
        images = [host.node_index(embedding.map_index(r)) for r in range(guest.size)]
        assert len(set(images)) == guest.size  # injective, not surjective
        assert embedding.matches_prediction()

    def test_guest_larger_than_host_rejected(self):
        with pytest.raises(ShapeMismatchError):
            embed(Torus((4, 4)), Mesh((3, 4)))
        with pytest.raises(ShapeMismatchError):
            strategy_for(Torus((4, 4)), Mesh((3, 4)))

    def test_torus_host_dilation_is_an_upper_bound(self):
        embedding = embed(Torus((6,)), Torus((3, 3)))
        assert embedding.notes["dilation_is_upper_bound"] is True
        assert embedding.dilation() <= embedding.predicted_dilation


class TestExpansionSuite:
    def test_suite_pairs_are_strictly_expanding(self):
        scenarios = scenarios_for_suite("expansion")
        assert len(scenarios) >= 8
        for scenario in scenarios:
            assert math.prod(scenario.guest_shape) < math.prod(scenario.host_shape)
            assert scenario.traffic == "" and scenario.faults == ""

    def test_records_carry_guest_size_and_host_nodes(self):
        scenario = Scenario("torus", (2, 3), "mesh", (3, 4))
        record = evaluate_scenario(scenario, SurveyOptions(workers=1))
        assert record.status == "ok"
        assert record.guest_size == 6
        assert record.nodes == 12
        assert record.faults is None
        assert record.strategy.startswith("subshape:")
        assert record.dilation >= 1

    @pytest.mark.parametrize(
        "scenario,reason",
        [
            # (4, 3) is the 12-node sub-box of (4, 4); (2, 6) does not reduce to it.
            (
                Scenario("mesh", (2, 6), "mesh", (4, 4)),
                "(4, 3) is not a reduction of (2, 6)",
            ),
            (
                Scenario("mesh", (24,), "mesh", (5, 5)),
                "no sub-box of host shape (5, 5) has exactly 24 nodes",
            ),
        ],
        ids=["sub-box-not-a-reduction", "no-sub-box"],
    )
    def test_unsupported_suite_pairs_record_their_reason(self, scenario, reason):
        assert scenario in scenarios_for_suite("expansion")
        record = evaluate_scenario(scenario, SurveyOptions(workers=1))
        assert record.status == "unsupported"
        assert reason in record.error
        assert record.guest_size == math.prod(scenario.guest_shape)
        assert record.nodes == math.prod(scenario.host_shape)

    def test_measured_records_match_direct_embedding(self):
        for scenario in scenarios_for_suite("expansion")[:3]:
            record = evaluate_scenario(scenario, SurveyOptions(workers=1))
            guest = make_graph(GraphKind(scenario.guest_kind), scenario.guest_shape)
            host = make_graph(GraphKind(scenario.host_kind), scenario.host_shape)
            embedding = embed(guest, host)
            assert record.dilation == embedding.dilation()
            assert record.average_dilation == pytest.approx(embedding.average_dilation())
