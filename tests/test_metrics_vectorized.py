"""Property tests: the vectorized cost path equals the legacy per-edge loop.

The array-backed hot path (``use_context(backend="array")``) must be
*exactly* the same measure as the historical pure-Python loops
(``use_context(backend="loop")``) — including
the dimension-order routing tie-break on toruses — on every embedding, not
just the well-behaved ones the paper constructs.  Random (seeded) bijections
exercise arbitrary mappings; the dispatcher's own constructions exercise the
structured ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import (
    average_dilation_cost,
    dilation_cost,
    edge_congestion_cost,
    stacked_dilation_summary,
    stacked_objective_components,
)
from repro.baselines.random_embedding import random_embedding
from repro.core.dispatch import embed
from repro.core.embedding import Embedding
from repro.graphs.base import Mesh, Torus, make_graph
from repro.runtime import use_context
from repro.numbering.arrays import (
    digit_weights,
    digits_to_indices,
    indices_to_digits,
    shape_tables,
)
from repro.numbering.distance import mesh_distance, mesh_distance_array, torus_distance, torus_distance_array

from .conftest import graph_kinds, small_shapes


@st.composite
def random_pairs(draw):
    """A random graph pair of equal size plus a seed for the random bijection."""
    guest_shape = draw(small_shapes(max_dim=3, max_len=5))
    guest_kind = draw(graph_kinds)
    host_kind = draw(graph_kinds)
    # Reuse the guest shape reversed or flattened so sizes match exactly.
    variant = draw(st.integers(min_value=0, max_value=2))
    if variant == 0:
        host_shape = tuple(reversed(guest_shape))
    elif variant == 1:
        host_shape = (math.prod(guest_shape),)
    else:
        host_shape = guest_shape
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return (
        make_graph(guest_kind, guest_shape),
        make_graph(host_kind, host_shape),
        seed,
    )


class TestDistanceArrays:
    @given(small_shapes(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_distance_arrays_match_scalar(self, shape, data):
        size = math.prod(shape)
        ranks = st.integers(min_value=0, max_value=size - 1)
        a = [data.draw(ranks) for _ in range(10)]
        b = [data.draw(ranks) for _ in range(10)]
        a_digits = indices_to_digits(np.array(a), shape)
        b_digits = indices_to_digits(np.array(b), shape)
        mesh_vec = mesh_distance_array(a_digits, b_digits)
        torus_vec = torus_distance_array(a_digits, b_digits, shape)
        for row, (x, y) in enumerate(zip(a_digits, b_digits)):
            assert mesh_vec[row] == mesh_distance(tuple(x), tuple(y))
            assert torus_vec[row] == torus_distance(tuple(x), tuple(y), shape)

    @given(small_shapes())
    @settings(max_examples=50, deadline=None)
    def test_index_digit_round_trip(self, shape):
        size = math.prod(shape)
        indices = np.arange(size, dtype=np.int64)
        digits = indices_to_digits(indices, shape)
        assert (digits_to_indices(digits, shape) == indices).all()


class TestEdgeArrays:
    @given(small_shapes(), graph_kinds)
    @settings(max_examples=40, deadline=None)
    def test_edge_index_arrays_match_edges(self, shape, kind):
        graph = make_graph(kind, shape)
        legacy = sorted(
            (graph.node_index(a), graph.node_index(b)) for a, b in graph.edges()
        )
        u, v = graph.edge_index_arrays()
        assert sorted(zip(u.tolist(), v.tolist())) == legacy
        assert graph.num_edges() == len(legacy)


class TestVectorizedCostsEqualLegacy:
    @given(random_pairs())
    @settings(max_examples=60, deadline=None)
    def test_random_embeddings(self, pair):
        guest, host, seed = pair
        embedding = random_embedding(guest, host, seed=seed)
        with use_context(backend="array"):
            array = (
                dilation_cost(embedding),
                average_dilation_cost(embedding),
                edge_congestion_cost(embedding),
            )
        with use_context(backend="loop"):
            loop = (
                dilation_cost(embedding),
                average_dilation_cost(embedding),
                edge_congestion_cost(embedding),
            )
        assert array[0] == loop[0]
        assert array[1] == pytest.approx(loop[1])
        assert array[2] == loop[2]

    @given(random_pairs())
    @settings(max_examples=30, deadline=None)
    def test_paper_constructions(self, pair):
        guest, host, _ = pair
        try:
            embedding = embed(guest, host)
        except Exception:
            return  # pair not covered by the paper — nothing to compare
        with use_context(backend="array"):
            array = (
                embedding.dilation(),
                embedding.average_dilation(),
                embedding.edge_congestion(),
            )
        with use_context(backend="loop"):
            loop = (
                embedding.dilation(),
                embedding.average_dilation(),
                embedding.edge_congestion(),
            )
        assert array[0] == loop[0]
        assert array[1] == pytest.approx(loop[1])
        assert array[2] == loop[2]

    def test_edge_dilation_array_is_permutation_of_legacy(self):
        guest, host = Torus((4, 6)), Mesh((2, 2, 2, 3))
        embedding = embed(guest, host)
        assert sorted(embedding.edge_dilation_array().tolist()) == sorted(
            embedding.edge_dilations()
        )

    def test_torus_tie_break_matches_loop(self):
        # Even torus lengths hit the δt tie (forward == backward); the
        # vectorized congestion must pick the same (increasing) direction.
        guest, host = Mesh((4, 4)), Torus((4, 4))
        embedding = random_embedding(guest, host, seed=7)
        with use_context(backend="array"):
            array = embedding.edge_congestion()
        with use_context(backend="loop"):
            assert array == embedding.edge_congestion()


#: Hosts whose axis-line counts ``n / l_j`` differ by dimension, so a stacked
#: kernel that offsets row ``b`` by another dimension's line count misplaces
#: rows; the optimizer's tall stacks are the production case.
MIXED_RADIX_HOSTS = [(2, 8, 4), (3, 5), (2, 3, 3), (5, 2, 3)]


class TestStackedRowsEqualLoop:
    @given(
        host_shape=st.sampled_from(MIXED_RADIX_HOSTS),
        host_kind=graph_kinds,
        guest_kind=graph_kinds,
        guest_variant=st.integers(min_value=0, max_value=2),
        batch=st.integers(min_value=2, max_value=6),
        dtype=st.sampled_from([np.int32, np.int64]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_row_matches_loop_reference(
        self, host_shape, host_kind, guest_kind, guest_variant, batch, dtype, seed
    ):
        host = make_graph(host_kind, host_shape)
        guest_shape = [
            (host.size,),
            tuple(reversed(host_shape)),
            host_shape,
        ][guest_variant]
        guest = make_graph(guest_kind, guest_shape)
        edge_u, edge_v = guest.edge_index_arrays()
        rng = np.random.default_rng(seed)
        images = np.stack([rng.permutation(host.size) for _ in range(batch)])
        images = images.astype(dtype)
        dil_max, dil_sum, congestion = stacked_objective_components(
            host, edge_u, edge_v, images, with_congestion=True
        )
        summary_max, summary_mean = stacked_dilation_summary(
            host, edge_u, edge_v, images
        )
        for row in range(batch):
            embedding = Embedding.from_index_array(
                guest, host, images[row].astype(np.int64), strategy="random"
            )
            with use_context(backend="loop"):
                dilations = embedding.edge_dilations()
                loop_congestion = embedding.edge_congestion()
            assert dil_max[row] == summary_max[row] == max(dilations)
            assert dil_sum[row] == sum(dilations)
            assert summary_mean[row] == sum(dilations) / len(dilations)
            assert congestion[row] == loop_congestion


class TestShapeTables:
    @pytest.mark.parametrize("shape", [(6,), (3, 5), (2, 8, 4), (5, 2, 3)])
    def test_tables_are_read_only_and_consistent(self, shape):
        tables = shape_tables(shape)
        assert tables is shape_tables(shape)  # memoized
        ranks = np.arange(math.prod(shape))
        assert (tables.digits == indices_to_digits(ranks, shape)).all()
        weights = digit_weights(shape)
        for j, length in enumerate(shape):
            assert (tables.coords[j] == tables.digits[:, j]).all()
            # rank = line high part * l_j + coordinate * w_j + line low part
            rebuilt = (
                tables.high[j] * length + tables.coords[j] * weights[j] + tables.low[j]
            )
            assert (rebuilt == ranks).all()
            line = tables.high[j] + tables.low[j]
            assert sorted(set(line.tolist())) == list(range(ranks.size // length))
        for table in (tables.digits, *tables.coords, *tables.high, *tables.low):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1

    @given(small_shapes())
    @settings(max_examples=40, deadline=None)
    def test_digit_weights_closed_form(self, shape):
        weights = digit_weights(list(shape))
        expected = [math.prod(shape[j + 1 :]) for j in range(len(shape))]
        assert weights.tolist() == expected
        assert weights is digit_weights(shape)  # memoized across sequence types
        assert not weights.flags.writeable

    def test_memo_is_bounded_and_holds_a_sweep(self):
        from repro.survey.scenarios import all_pairs

        pairs = all_pairs(64)
        shapes = {p.guest_shape for p in pairs} | {p.host_shape for p in pairs}
        maxsize = shape_tables.cache_info().maxsize
        # Bounded, yet every shape of an exhaustive 64-node sweep stays resident.
        assert maxsize is not None and maxsize >= len(shapes)


class TestArrayRepresentation:
    def test_lazy_mapping_from_index_array(self):
        guest, host = Mesh((2, 3)), Mesh((3, 2))
        indices = np.arange(6, dtype=np.int64)
        embedding = Embedding.from_index_array(guest, host, indices, strategy="rank")
        assert embedding._mapping is None  # not materialized yet
        assert embedding[(0, 1)] == host.index_node(1)
        assert len(embedding) == 6
        assert embedding.is_valid()

    def test_host_index_array_from_mapping(self):
        guest, host = Mesh((2, 3)), Torus((6,))
        embedding = Embedding.from_callable(
            guest, host, lambda node: (guest.node_index(node),)
        )
        assert embedding.host_index_array().tolist() == list(range(6))

    def test_round_trip_between_representations(self):
        guest, host = Torus((4, 6)), Mesh((2, 2, 2, 3))
        built = embed(guest, host)
        rebuilt = Embedding.from_index_array(
            guest, host, built.host_index_array(), strategy=built.strategy
        )
        assert rebuilt.mapping == built.mapping
        assert rebuilt.dilation() == built.dilation()

    def test_from_index_array_validates_length(self):
        from repro.exceptions import InvalidEmbeddingError

        with pytest.raises(InvalidEmbeddingError):
            Embedding.from_index_array(Mesh((2, 3)), Mesh((2, 3)), np.arange(5))

    def test_array_validation_detects_duplicates_and_range(self):
        guest = host = Mesh((2, 2))
        dup = Embedding.from_index_array(guest, host, np.array([0, 1, 1, 3]))
        assert not dup.is_valid()
        out = Embedding.from_index_array(guest, host, np.array([0, 1, 2, 9]))
        assert not out.is_valid()

    def test_compose_gather_equals_dict_compose(self):
        inner = embed(Torus((4, 6)), Torus((24,)))
        outer = embed(Torus((24,)), Mesh((4, 6)))
        composed = inner.compose(outer)
        expected = {
            node: outer.mapping[image] for node, image in inner.mapping.items()
        }
        assert composed.mapping == expected
