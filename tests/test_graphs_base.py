"""Unit tests for torus and mesh graphs (Definitions 2-4)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import InvalidShapeError
from repro.graphs.base import Hypercube, Line, Mesh, Ring, Torus, graph_from_spec, make_graph
from repro.types import GraphKind, ShapedGraphSpec

from .conftest import small_shapes

pytestmark = pytest.mark.smoke


class TestConstruction:
    def test_figure1_torus(self):
        torus = Torus((4, 2, 3))
        assert torus.size == 24
        assert torus.dimension == 3
        assert torus.is_torus and not torus.is_mesh

    def test_figure2_mesh(self):
        mesh = Mesh((4, 2, 3))
        assert mesh.size == 24
        assert mesh.is_mesh

    def test_line_and_ring(self):
        assert Line(7).shape == (7,) and Line(7).is_mesh
        assert Ring(7).shape == (7,) and Ring(7).is_torus

    def test_hypercube(self):
        cube = Hypercube(4)
        assert cube.shape == (2, 2, 2, 2)
        assert cube.is_hypercube and cube.is_square

    def test_hypercube_rejects_zero_dimension(self):
        with pytest.raises(InvalidShapeError):
            Hypercube(0)

    def test_make_graph(self):
        assert make_graph("torus", (3, 3)) == Torus((3, 3))
        assert make_graph(GraphKind.MESH, (3, 3)) == Mesh((3, 3))

    def test_graph_from_spec(self):
        spec = ShapedGraphSpec(GraphKind.TORUS, (3, 5))
        assert graph_from_spec(spec) == Torus((3, 5))

    def test_make_graph_interns_one_graph_per_kind_and_shape(self):
        graph = make_graph("torus", [4, 6])
        assert graph is make_graph(GraphKind.TORUS, (4, 6))
        assert graph is not make_graph("mesh", (4, 6))
        assert graph is not make_graph("torus", (6, 4))

    def test_scenarios_share_interned_graphs_and_their_edge_arrays(self):
        from repro.survey import Scenario

        first = Scenario("torus", (4, 6), "mesh", (2, 2, 2, 3)).guest_graph()
        second = Scenario("torus", (4, 6), "torus", (24,)).guest_graph()
        assert first is second is make_graph("torus", (4, 6))
        u, v = first.edge_index_arrays()
        shared_u, shared_v = second.edge_index_arrays()
        assert u is shared_u and v is shared_v

    def test_make_graph_interns_across_kind_spellings(self):
        # The enum spelling first, then its string value, then a list shape.
        graph = make_graph(GraphKind.MESH, (5, 7))
        assert make_graph("mesh", (5, 7)) is graph
        assert make_graph("mesh", [5, 7]) is graph

    def test_make_graph_raises_on_every_invalid_call(self):
        for _ in range(2):
            with pytest.raises(InvalidShapeError):
                make_graph("mesh", (0, 3))
            with pytest.raises(ValueError):
                make_graph("cube", (2, 2))

    def test_invalid_shape(self):
        with pytest.raises(InvalidShapeError):
            Mesh((0, 3))


class TestNodesAndIndices:
    def test_node_count(self):
        mesh = Mesh((3, 4))
        assert len(list(mesh.nodes())) == 12

    def test_index_roundtrip(self):
        torus = Torus((3, 2, 2))
        for index in range(torus.size):
            assert torus.node_index(torus.index_node(index)) == index

    def test_contains(self):
        mesh = Mesh((3, 4))
        assert mesh.contains((2, 3))
        assert not mesh.contains((3, 0))
        assert not mesh.contains((0,))

    def test_int_shorthand(self):
        line = Line(5)
        assert line.node_of_int(3) == (3,)
        assert line.int_of_node((3,)) == 3
        with pytest.raises(InvalidShapeError):
            Mesh((2, 2)).node_of_int(1)


class TestAdjacency:
    def test_torus_every_node_has_two_neighbors_per_dimension(self):
        # Definition 2: toruses are regular of degree 2d (when lengths > 2).
        torus = Torus((4, 3, 5))
        for node in torus.nodes():
            assert torus.degree(node) == 6

    def test_mesh_boundary_nodes_have_fewer_neighbors(self):
        mesh = Mesh((4, 3))
        assert mesh.degree((0, 0)) == 2
        assert mesh.degree((1, 1)) == 4
        assert mesh.degree((0, 1)) == 3

    def test_length_two_torus_dimension_deduplicates(self):
        # In a torus dimension of length 2 the left and right neighbours coincide.
        torus = Torus((2, 3))
        assert torus.degree((0, 0)) == 3

    def test_hypercube_degree(self):
        cube = Hypercube(4)
        for node in cube.nodes():
            assert cube.degree(node) == 4

    def test_neighbors_of_interior_mesh_node(self):
        mesh = Mesh((4, 2, 3))
        neighbors = set(mesh.neighbors((1, 0, 1)))
        assert neighbors == {(0, 0, 1), (2, 0, 1), (1, 1, 1), (1, 0, 0), (1, 0, 2)}

    def test_neighbors_wraparound(self):
        torus = Torus((4, 2, 3))
        assert (3, 0, 0) in torus.neighbors((0, 0, 0))
        assert (0, 0, 2) in torus.neighbors((0, 0, 0))

    def test_neighbors_invalid_node(self):
        with pytest.raises(InvalidShapeError):
            Mesh((2, 2)).neighbors((5, 5))

    def test_are_adjacent(self):
        mesh = Mesh((3, 3))
        assert mesh.are_adjacent((0, 0), (0, 1))
        assert not mesh.are_adjacent((0, 0), (1, 1))


class TestEdges:
    def test_edge_counts_mesh(self):
        # A (p, q)-mesh has p(q-1) + q(p-1) edges.
        mesh = Mesh((3, 4))
        assert mesh.num_edges() == 3 * 3 + 4 * 2

    def test_edge_counts_torus(self):
        # A (p, q)-torus with p, q > 2 has 2pq edges.
        torus = Torus((3, 4))
        assert torus.num_edges() == 2 * 12

    def test_edge_counts_hypercube(self):
        assert Hypercube(3).num_edges() == 12

    def test_edges_are_unique_and_adjacent(self):
        torus = Torus((3, 3))
        edges = list(torus.edges())
        assert len(edges) == len(set(edges))
        for a, b in edges:
            assert torus.distance(a, b) == 1


class TestDistanceAndDiameter:
    def test_distances_match_paper_examples(self):
        assert Torus((4, 2, 3)).distance((0, 0, 1), (3, 0, 0)) == 2
        assert Mesh((4, 2, 3)).distance((0, 0, 1), (3, 0, 0)) == 4

    def test_diameter(self):
        assert Mesh((4, 2, 3)).diameter() == 3 + 1 + 2
        assert Torus((4, 2, 3)).diameter() == 2 + 1 + 1
        assert Ring(7).diameter() == 3
        assert Line(7).diameter() == 6

    def test_distance_invalid_node(self):
        with pytest.raises(InvalidShapeError):
            Mesh((2, 2)).distance((0, 0), (9, 9))

    @given(small_shapes(max_dim=3, max_len=4), st.randoms())
    def test_distance_is_a_metric(self, shape, rng):
        torus = Torus(shape)
        nodes = [torus.index_node(rng.randrange(torus.size)) for _ in range(3)]
        a, b, c = nodes
        assert torus.distance(a, a) == 0
        assert torus.distance(a, b) == torus.distance(b, a)
        assert torus.distance(a, c) <= torus.distance(a, b) + torus.distance(b, c)
