"""Unit tests for functional (non-materialized) embeddings."""

import pytest

from repro.core.dispatch import embed, strategy_for
from repro.core.functional import POINTWISE_FAMILIES, functional_embed
from repro.exceptions import ShapeMismatchError, UnsupportedEmbeddingError
from repro.graphs.base import Hypercube, Line, Mesh, Ring, Torus
from repro.survey.scenarios import all_pairs
from repro.types import GraphKind, ShapedGraphSpec


MATERIALIZABLE_PAIRS = [
    (Line(24), Mesh((4, 2, 3))),
    (Ring(24), Mesh((4, 2, 3))),
    (Ring(45), Mesh((3, 3, 5))),
    (Ring(24), Torus((4, 2, 3))),
    (Torus((3, 4)), Mesh((3, 4))),
    (Mesh((3, 4)), Mesh((4, 3))),
    (Torus((4, 6)), Mesh((2, 2, 2, 3))),
    (Mesh((4, 6)), Torus((2, 2, 2, 3))),
    (Torus((3, 9)), Mesh((3, 3, 3))),
    (Hypercube(6), Mesh((8, 8))),
    (Mesh((4, 2, 3, 3)), Mesh((8, 9))),
    (Torus((4, 4, 3)), Mesh((16, 3))),
]


class TestAgreementWithMaterializedEmbeddings:
    @pytest.mark.parametrize("guest, host", MATERIALIZABLE_PAIRS)
    def test_pointwise_values_match_embed(self, guest, host):
        functional = functional_embed(guest, host)
        materialized = embed(guest, host)
        for node in guest.nodes():
            assert functional(node) == materialized[node]

    @pytest.mark.parametrize("guest, host", MATERIALIZABLE_PAIRS)
    def test_materialize_is_valid_and_within_prediction(self, guest, host):
        functional = functional_embed(guest, host)
        embedding = functional.materialize()
        embedding.validate()
        if functional.predicted_dilation is not None:
            assert embedding.dilation() <= functional.predicted_dilation

    def test_map_index_matches_call(self):
        functional = functional_embed(Ring(24), Mesh((4, 2, 3)))
        for x in range(24):
            assert functional.map_index(x) == functional((x,))


#: Every same-size pair up to 24 nodes (all four kind pairs), by node count.
PAIRS_BY_SIZE = {}
for _scenario in all_pairs(24):
    PAIRS_BY_SIZE.setdefault(_scenario.nodes, []).append(_scenario)


@pytest.mark.parametrize("nodes", sorted(PAIRS_BY_SIZE))
def test_functional_embed_agrees_with_embed_on_every_pair(nodes):
    """The pointwise ``image`` against the array backend's ``ranks()``: same
    strategy, prediction and image of every node; every other pair raises."""
    for scenario in PAIRS_BY_SIZE[nodes]:
        guest, host = scenario.guest_graph(), scenario.host_graph()
        if strategy_for(guest, host) not in POINTWISE_FAMILIES:
            with pytest.raises(UnsupportedEmbeddingError):
                functional_embed(guest, host)
            continue
        functional = functional_embed(guest, host)
        embedding = embed(guest, host)
        assert functional.strategy == embedding.strategy
        assert functional.predicted_dilation == embedding.predicted_dilation
        assert [functional(node) for node in guest.nodes()] == [
            host.index_node(int(rank)) for rank in embedding.host_index_array()
        ]


class TestSampling:
    def test_sample_dilation_is_a_lower_bound(self):
        guest, host = Torus((4, 4, 3)), Mesh((16, 3))
        functional = functional_embed(guest, host)
        exact = embed(guest, host).dilation()
        sampled = functional.sample_dilation(samples=500, seed=3)
        assert 1 <= sampled <= exact

    def test_sample_dilation_finds_the_true_value_on_dense_sampling(self):
        guest, host = Mesh((4, 2, 3, 3)), Mesh((8, 9))
        functional = functional_embed(guest, host)
        assert functional.sample_dilation(samples=2000, seed=0) == embed(guest, host).dilation()


class TestHugeGraphs:
    def test_pointwise_evaluation_on_a_billion_node_torus(self):
        # (1024, 1024, 1024)-torus into a (1048576, 1024)-torus (a simple
        # reduction): the mapping is evaluated pointwise without ever
        # enumerating the 2^30 nodes.
        guest = ShapedGraphSpec(GraphKind.TORUS, (1024, 1024, 1024))
        host = ShapedGraphSpec(GraphKind.TORUS, (1048576, 1024))
        functional = functional_embed(guest, host)
        image = functional((1023, 512, 7))
        assert len(image) == 2
        assert 0 <= image[0] < 1048576 and 0 <= image[1] < 1024
        assert functional.predicted_dilation == 1024

    def test_huge_line_guest(self):
        guest = ShapedGraphSpec(GraphKind.MESH, (2**24,))
        host = ShapedGraphSpec(GraphKind.MESH, (4096, 4096))
        functional = functional_embed(guest, host)
        assert functional.predicted_dilation == 1
        a = functional.map_index(2**23)
        b = functional.map_index(2**23 + 1)
        assert functional.host_distance(a, b) == 1

    def test_sampled_dilation_on_huge_ring(self):
        guest = ShapedGraphSpec(GraphKind.TORUS, (2**20,))
        host = ShapedGraphSpec(GraphKind.TORUS, (1024, 1024))
        functional = functional_embed(guest, host)
        assert functional.sample_dilation(samples=256, seed=1) == 1


class TestErrors:
    def test_size_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            functional_embed(Mesh((4, 4)), Mesh((4, 5)))

    def test_unsupported_general_reduction(self):
        with pytest.raises(UnsupportedEmbeddingError):
            functional_embed(Mesh((3, 3, 4)), Mesh((6, 6)))

    def test_unsupported_square_increasing(self):
        with pytest.raises(UnsupportedEmbeddingError):
            functional_embed(Mesh((8, 8)), Mesh((4, 4, 4)))
