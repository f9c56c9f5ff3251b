"""Torus and mesh graph classes (Definitions 2 and 3 of the paper).

A ``d``-dimensional torus (mesh) of shape ``(l_1, ..., l_d)`` has ``Π l_i``
nodes, each a ``d``-tuple of coordinates.  In a torus every node has a left
and a right neighbour in every dimension (indices wrap modulo ``l_j``); in a
mesh boundary nodes lack the wrapping neighbour.

The classes are deliberately *implicit*: nodes and edges are generated on
demand rather than stored, so graphs with millions of nodes remain cheap to
create.  Distances are computed analytically (Lemmas 5 and 6); the test
suite cross-checks them against breadth-first search on small instances via
the :mod:`networkx` adapter.

Special cases follow the paper's terminology:

* :class:`Line` — a 1-dimensional mesh;
* :class:`Ring` — a 1-dimensional torus;
* :class:`Hypercube` — shape ``(2, ..., 2)``; it is both a torus and a mesh
  (the wrap edge of a length-2 dimension coincides with the mesh edge).
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidShapeError
from ..numbering.arrays import _SHAPE_MEMO_SIZE, digit_weights, shape_tables
from ..numbering.distance import graph_distance_indices, mesh_distance, torus_distance
from ..numbering.radix import RadixBase
from ..types import GraphKind, Node, Shape, ShapedGraphSpec, as_shape

__all__ = [
    "CartesianGraph",
    "Torus",
    "Mesh",
    "Line",
    "Ring",
    "Hypercube",
    "make_graph",
    "graph_from_spec",
]


class CartesianGraph:
    """Common behaviour of toruses and meshes.

    Subclasses fix :attr:`kind`.  Node tuples are always full ``d``-tuples;
    for 1-dimensional graphs the helpers :meth:`node_of_int` /
    :meth:`int_of_node` convert to the paper's integer shorthand.
    """

    kind: GraphKind

    def __init__(self, shape: Iterable[int]):
        self._shape: Shape = as_shape(shape)
        self._base = RadixBase(self._shape)
        # Lazily derived arrays (edge-endpoint ranks, neighbour matrix).
        # Graphs are immutable, so once computed they are never invalidated;
        # all are marked read-only because they are shared between every
        # embedding/measure that touches this graph object.
        self._edge_arrays = None
        self._neighbor_matrix = None

    # ------------------------------------------------------------------ #
    # Basic metadata
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Shape:
        """The shape ``(l_1, ..., l_d)``."""
        return self._shape

    @property
    def dimension(self) -> int:
        """The dimension ``d``."""
        return len(self._shape)

    @property
    def size(self) -> int:
        """Number of nodes ``Π l_i``."""
        return self._base.size

    @property
    def radix_base(self) -> RadixBase:
        """The mixed-radix base whose numbers are this graph's nodes."""
        return self._base

    @property
    def spec(self) -> ShapedGraphSpec:
        """The (kind, shape) spec of this graph."""
        return ShapedGraphSpec(self.kind, self._shape)

    @property
    def is_square(self) -> bool:
        """True when every dimension has the same length."""
        return len(set(self._shape)) == 1

    @property
    def is_hypercube(self) -> bool:
        """True when every dimension has length 2 (Definition 4)."""
        return all(l == 2 for l in self._shape)

    @property
    def is_torus(self) -> bool:
        return self.kind.is_torus

    @property
    def is_mesh(self) -> bool:
        return self.kind.is_mesh

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CartesianGraph)
            and self.kind == other.kind
            and self._shape == other._shape
        )

    def __hash__(self) -> int:
        return hash((self.kind, self._shape))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}{self._shape}"

    # ------------------------------------------------------------------ #
    # Nodes
    # ------------------------------------------------------------------ #
    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes in natural (lexicographic) order."""
        return iter(self._base)

    def contains(self, node: Sequence[int]) -> bool:
        """True when the tuple is a node of this graph."""
        return self._base.contains_digits(tuple(node))

    def node_index(self, node: Sequence[int]) -> int:
        """Rank of a node in natural order (the bijection ``u_L^{-1}``)."""
        return self._base.from_digits(tuple(node))

    def index_node(self, index: int) -> Node:
        """Node with the given natural-order rank (the bijection ``u_L``)."""
        return self._base.to_digits(index)

    def node_of_int(self, value: int) -> Node:
        """Convert the paper's integer shorthand for 1-D graphs to a node tuple."""
        if self.dimension != 1:
            raise InvalidShapeError("integer node shorthand only applies to 1-D graphs")
        return (value,)

    def int_of_node(self, node: Sequence[int]) -> int:
        """Convert a 1-D node tuple to the paper's integer shorthand."""
        if self.dimension != 1:
            raise InvalidShapeError("integer node shorthand only applies to 1-D graphs")
        return tuple(node)[0]

    # ------------------------------------------------------------------ #
    # Adjacency
    # ------------------------------------------------------------------ #
    def neighbors(self, node: Sequence[int]) -> List[Node]:
        """All neighbours of a node, ordered by dimension then direction."""
        node = tuple(node)
        if not self.contains(node):
            raise InvalidShapeError(f"{node!r} is not a node of {self!r}")
        result: List[Node] = []
        for j, length in enumerate(self._shape):
            for delta in (-1, +1):
                neighbor = self._step(node, j, delta)
                if neighbor is not None:
                    result.append(neighbor)
        # A length-2 dimension of a torus produces the same neighbour twice
        # (left and right wrap to the same node); deduplicate while keeping order.
        seen: set[Node] = set()
        unique: List[Node] = []
        for item in result:
            if item not in seen:
                seen.add(item)
                unique.append(item)
        return unique

    def degree(self, node: Sequence[int]) -> int:
        """Number of distinct neighbours of a node."""
        return len(self.neighbors(node))

    def are_adjacent(self, a: Sequence[int], b: Sequence[int]) -> bool:
        """True when the two nodes are joined by an edge."""
        return self.distance(a, b) == 1

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        """Iterate over all edges, each reported once with endpoints ordered by rank."""
        for node in self.nodes():
            rank = self.node_index(node)
            for neighbor in self.neighbors(node):
                if self.node_index(neighbor) > rank:
                    yield node, neighbor

    def num_edges(self) -> int:
        """Total number of edges (closed form).

        Dimension ``j`` contributes one edge per node in a torus with
        ``l_j > 2`` and ``n - n / l_j`` edges otherwise (a length-2 torus
        dimension's wrap edge coincides with its mesh edge).
        """
        n = self.size
        total = 0
        for length in self._shape:
            if self.kind.is_torus and length > 2:
                total += n
            else:
                total += n - n // length
        return total

    def node_digit_array(self):
        """The ``(n, d)`` digit rows of every node in natural order (cached).

        The all-nodes ``u_L`` table shared by the edge derivation and the
        batched construction kernels: the read-only table of
        :func:`repro.numbering.arrays.shape_tables`, computed once per shape.
        """
        return shape_tables(self._shape).digits

    def neighbor_rank_matrix(self):
        """The ``(n, 2d)`` neighbour ranks of every node, plus a validity mask.

        Column ``2j`` is the dimension-``j`` ``-1``-direction neighbour and
        column ``2j + 1`` the ``+1`` direction — exactly the order
        :meth:`neighbors` yields them, with the same handling of mesh
        boundaries (masked out) and length-2 torus dimensions (the ``+1``
        wrap duplicates the ``-1`` neighbour and is masked out).  Returns
        ``(neighbors, valid)``; entries with ``valid`` False are
        meaningless.  Cached and read-only.
        """
        if self._neighbor_matrix is None:
            n = self.size
            weights = digit_weights(self._shape)
            digits = self.node_digit_array()
            ranks = np.arange(n, dtype=np.int64)
            dimension = self.dimension
            neighbors = np.empty((n, 2 * dimension), dtype=np.int64)
            valid = np.zeros((n, 2 * dimension), dtype=bool)
            for j, length in enumerate(self._shape):
                coords = digits[:, j]
                weight = int(weights[j])
                if self.kind.is_torus:
                    neighbors[:, 2 * j] = (
                        ranks + np.where(coords > 0, -1, length - 1) * weight
                    )
                    valid[:, 2 * j] = True
                    neighbors[:, 2 * j + 1] = (
                        ranks + np.where(coords < length - 1, 1, -(length - 1)) * weight
                    )
                    valid[:, 2 * j + 1] = length > 2
                else:
                    neighbors[:, 2 * j] = ranks - weight
                    valid[:, 2 * j] = coords > 0
                    neighbors[:, 2 * j + 1] = ranks + weight
                    valid[:, 2 * j + 1] = coords < length - 1
            neighbors.setflags(write=False)
            valid.setflags(write=False)
            self._neighbor_matrix = (neighbors, valid)
        return self._neighbor_matrix

    def edge_index_arrays(self):
        """All edges as a pair of flat ``int64`` rank arrays ``(u, v)``.

        The vectorized counterpart of :meth:`edges`: each edge appears
        exactly once with ``u < v`` (natural-order ranks).  The edges are
        grouped by dimension rather than by node, so the *order* differs from
        :meth:`edges`; the multiset of edges is identical, which is what the
        vectorized cost computations need.  The pair is derived once per
        graph object, cached (graphs are immutable — nothing ever
        invalidates it) and returned read-only, so survey-scale loops that
        measure many embeddings against the same graph never re-derive it.
        """
        if self._edge_arrays is None:
            n = self.size
            weights = digit_weights(self._shape)
            digits = self.node_digit_array()
            sources: List = []
            targets: List = []
            for j, length in enumerate(self._shape):
                weight = int(weights[j])
                column = digits[:, j]
                if self.kind.is_torus and length > 2:
                    u = np.arange(n, dtype=np.int64)
                    v = u + np.where(column < length - 1, weight, -(length - 1) * weight)
                else:
                    u = np.flatnonzero(column < length - 1).astype(np.int64)
                    v = u + weight
                sources.append(u)
                targets.append(v)
            u = np.concatenate(sources)
            v = np.concatenate(targets)
            u, v = np.minimum(u, v), np.maximum(u, v)
            u.setflags(write=False)
            v.setflags(write=False)
            self._edge_arrays = (u, v)
        return self._edge_arrays

    # ------------------------------------------------------------------ #
    # Distance
    # ------------------------------------------------------------------ #
    def distance(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Shortest-path distance between two nodes (Lemma 5 / Lemma 6)."""
        a = tuple(a)
        b = tuple(b)
        if not self.contains(a) or not self.contains(b):
            raise InvalidShapeError("distance arguments must be nodes of the graph")
        if self.kind.is_torus:
            return torus_distance(a, b, self._shape)
        return mesh_distance(a, b)

    def distance_indices(self, a_indices, b_indices):
        """Vectorized :meth:`distance` over batches of natural-order ranks.

        Both arguments are array-likes of flat node indices; the result is an
        ``int64`` array of pairwise δt/δm distances.
        """
        return graph_distance_indices(
            a_indices, b_indices, self._shape, torus=self.kind.is_torus
        )

    def diameter(self) -> int:
        """The graph diameter, computed from the closed-form per-dimension maxima."""
        if self.kind.is_torus:
            return sum(length // 2 for length in self._shape)
        return sum(length - 1 for length in self._shape)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _step(self, node: Node, dimension: int, delta: int) -> Optional[Node]:
        """Neighbour of ``node`` one step along ``dimension``; ``None`` if absent."""
        length = self._shape[dimension]
        coord = node[dimension] + delta
        if self.kind.is_torus:
            coord %= length
        elif not (0 <= coord < length):
            return None
        return node[:dimension] + (coord,) + node[dimension + 1 :]


class Torus(CartesianGraph):
    """An ``(l_1, ..., l_d)``-torus (Definition 2)."""

    kind = GraphKind.TORUS


class Mesh(CartesianGraph):
    """An ``(l_1, ..., l_d)``-mesh (Definition 3)."""

    kind = GraphKind.MESH


class Line(Mesh):
    """A line: a mesh of dimension 1."""

    def __init__(self, size: int):
        super().__init__((size,))


class Ring(Torus):
    """A ring: a torus of dimension 1."""

    def __init__(self, size: int):
        super().__init__((size,))


class Hypercube(Torus):
    """A hypercube of size ``2^d`` (Definition 4).

    Represented with kind ``torus`` (its torus and mesh edge sets coincide);
    use :class:`Mesh` with shape ``(2, ..., 2)`` if the mesh kind is needed
    for a particular strategy.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise InvalidShapeError("a hypercube needs dimension >= 1")
        super().__init__((2,) * dimension)


def make_graph(kind: GraphKind | str, shape: Iterable[int]) -> CartesianGraph:
    """The torus or mesh of a kind and a shape, interned.

    Graphs are immutable, so every call with the same ``(kind, shape)``
    returns one shared object, and its lazily derived arrays (edge ranks,
    neighbour matrix) are computed once per process.  An invalid shape
    raises :class:`~repro.exceptions.InvalidShapeError` on every call.
    """
    return _graph(GraphKind(kind), tuple(shape))


@functools.lru_cache(maxsize=_SHAPE_MEMO_SIZE)
def _graph(kind: GraphKind, shape: Tuple[int, ...]) -> CartesianGraph:
    if kind.is_torus:
        return Torus(shape)
    return Mesh(shape)


def graph_from_spec(spec: ShapedGraphSpec) -> CartesianGraph:
    """Materialize the graph described by a :class:`ShapedGraphSpec`."""
    return make_graph(spec.kind, spec.shape)
