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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import metrics
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
from repro.numbering.distance import mesh_distance, torus_distance

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
        mesh_vec = Mesh(shape).distance_indices(np.array(a), np.array(b))
        torus_vec = Torus(shape).distance_indices(np.array(a), np.array(b))
        a_digits = indices_to_digits(np.array(a), shape)
        b_digits = indices_to_digits(np.array(b), shape)
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
        )[:3]
        summary_max, summary_mean = stacked_dilation_summary(
            [host] * batch, [edge_u] * batch, [edge_v] * batch, images
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


#: Host and guest shapes of the ragged stacks: 1-D graphs, length-2 torus
#: dimensions (whose wrap edge doubles the forward edge) and mixed radices,
#: several shapes per node count so guests and hosts differ.
RAGGED_SHAPES = [
    (4,), (2, 2),
    (6,), (2, 3), (3, 2),
    (8,), (2, 4), (2, 2, 2),
    (12,), (3, 4), (2, 6), (2, 2, 3),
]


@st.composite
def ragged_rows(draw):
    """One row of a ragged stack: ``(guest, host, image)`` of equal size."""
    host_shape = draw(st.sampled_from(RAGGED_SHAPES))
    size = math.prod(host_shape)
    guest_shape = draw(
        st.sampled_from([shape for shape in RAGGED_SHAPES if math.prod(shape) == size])
    )
    guest = make_graph(draw(graph_kinds), guest_shape)
    host = make_graph(draw(graph_kinds), host_shape)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return guest, host, rng.permutation(size).astype(dtype)


def ragged_call(rows):
    """``stacked_dilation_summary`` over ``(guest, host, image)`` rows."""
    guests, hosts, images = zip(*rows)
    edges = [guest.edge_index_arrays() for guest in guests]
    return stacked_dilation_summary(
        list(hosts), [u for u, _ in edges], [v for _, v in edges], list(images)
    )


def loop_dilations(guest, host, image):
    embedding = Embedding.from_index_array(
        guest, host, np.asarray(image, dtype=np.int64), strategy="random"
    )
    with use_context(backend="loop"):
        return embedding.edge_dilations()


class TestRaggedDilationSummary:
    """Rows of different guests and hosts share one ragged call."""

    @given(
        rows=st.lists(ragged_rows(), min_size=1, max_size=8),
        chunk_edges=st.sampled_from([1, 10, 40, metrics._CHUNK_EDGES]),
    )
    @settings(max_examples=80, deadline=None)
    def test_mixed_rows_match_loop_reference(self, rows, chunk_edges):
        # Small chunk bounds put chunk boundaries between (and a row past
        # the bound alone in) every position of the stack.
        with mock.patch.object(metrics, "_CHUNK_EDGES", chunk_edges):
            dilation, average = ragged_call(rows)
        assert dilation.dtype == np.int64 and average.dtype == np.float64
        assert dilation.shape == average.shape == (len(rows),)
        for row, (guest, host, image) in enumerate(rows):
            dilations = loop_dilations(guest, host, image)
            assert dilation[row] == max(dilations)
            assert average[row] == sum(dilations) / len(dilations)

    def test_zero_edge_rows_give_zeros(self):
        guest, host = Mesh((3, 2)), Torus((2, 3))
        edge_u, edge_v = guest.edge_index_arrays()
        none = np.zeros(0, dtype=np.int64)
        image = np.arange(6, dtype=np.int32)
        dilation, average = stacked_dilation_summary(
            [host] * 3, [none, edge_u, none], [none, edge_v, none], [image] * 3
        )
        dilations = loop_dilations(guest, host, image)
        assert dilation.tolist() == [0, max(dilations), 0]
        assert average.tolist() == [0.0, sum(dilations) / len(dilations), 0.0]

    def test_empty_call_returns_two_empty_columns(self):
        dilation, average = stacked_dilation_summary([], [], [], [])
        assert dilation.shape == average.shape == (0,)
        assert dilation.dtype == np.int64 and average.dtype == np.float64

    def test_call_past_the_chunk_bound_splits_and_matches_single_rows(self):
        host = Torus((4, 4, 4))
        guests = [Torus((4, 4, 4)), Mesh((8, 8)), Torus((2, 4, 8)), Mesh((64,))]
        rng = np.random.default_rng(7)
        rows = [
            (guests[index % len(guests)], host, rng.permutation(64))
            for index in range(600)
        ]
        counts = [guest.num_edges() for guest, _, _ in rows]
        assert sum(counts) > metrics._CHUNK_EDGES
        assert len(list(metrics._edge_chunks(counts))) > 1
        dilation, average = ragged_call(rows)
        for row, one in enumerate(rows):
            single = ragged_call([one])
            assert (dilation[row], average[row]) == (single[0][0], single[1][0])
        for row in range(0, len(rows), 97):
            dilations = loop_dilations(*rows[row])
            assert dilation[row] == max(dilations)
            assert average[row] == sum(dilations) / len(dilations)

    def test_ranks_outside_their_row_raise(self):
        guest, host = Mesh((2, 3)), Torus((6,))
        edge_u, edge_v = guest.edge_index_arrays()
        bad_image = np.array([0, 1, 2, 3, 4, 6])  # 6 is the next row's first node
        with pytest.raises(IndexError, match="image rank"):
            stacked_dilation_summary(
                [host, host], [edge_u] * 2, [edge_v] * 2, [bad_image, np.arange(6)]
            )
        with pytest.raises(IndexError, match="edge rank"):
            stacked_dilation_summary(  # the guest's last rank + 1 is 6
                [host, host], [edge_u] * 2, [edge_v + 1] * 2, [np.arange(6)] * 2
            )


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
