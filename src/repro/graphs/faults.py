"""Seeded fault models: degraded hosts with knocked-out nodes and links.

A :class:`FaultSpec` is a tiny, serializable description of a knockout —
*how many* nodes and links to remove and a seed — while :class:`Faults` is
the spec materialized against one concrete graph: the actual dead node
ranks, dead links, surviving adjacency, breadth-first distances over the
surviving links, and deterministic detour paths.

Determinism is the load-bearing property.  The dead sets are drawn with a
``random.Random`` seeded from the spec token *and* the graph's kind/shape
(so the same spec degrades every graph reproducibly, independent of hash
randomization), links are drawn from the canonical :meth:`edges` order, and
every BFS expands neighbours in the graph's dimension-then-direction order —
so the loop and array backends see byte-identical degraded topologies and
the differential tests can pin fault-aware results bit-for-bit.

Distances over the surviving graph are *canonical* (independent of visit
order), so the pure-Python BFS here and the vectorized level-synchronous
expansion in :meth:`Faults.bfs_distance_row` agree exactly by construction.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidShapeError
from .base import CartesianGraph

__all__ = ["FaultSpec", "Faults"]


_TOKEN_PATTERN = re.compile(r"^n(\d+)l(\d+)s(\d+)$")


@dataclass(frozen=True)
class FaultSpec:
    """A seeded node/link knockout: ``num_nodes`` nodes, ``num_links`` links.

    The compact token form (``"n1l2s7"``) is what survey scenario ids and
    the CLI carry; :meth:`apply` materializes the spec against a graph.
    """

    num_nodes: int = 0
    num_links: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.num_nodes < 0 or self.num_links < 0:
            raise InvalidShapeError("fault counts must be non-negative")

    @property
    def token(self) -> str:
        return f"n{self.num_nodes}l{self.num_links}s{self.seed}"

    @classmethod
    def from_token(cls, token: str) -> "FaultSpec":
        match = _TOKEN_PATTERN.match(token)
        if match is None:
            raise InvalidShapeError(
                f"invalid fault token {token!r}; expected the form 'n<nodes>l<links>s<seed>'"
            )
        return cls(int(match.group(1)), int(match.group(2)), int(match.group(3)))

    def apply(self, graph: CartesianGraph) -> "Faults":
        """Materialize the knockout against ``graph``.

        Node faults are drawn first (without replacement over all ranks),
        then link faults over the canonical edge list restricted to edges
        whose endpoints both survived — so ``num_links`` is the number of
        *additional* links removed beyond those lost to dead nodes.
        """
        rng = random.Random(f"{self.token}|{graph.kind.value}|{graph.shape}")
        dead_nodes = frozenset(
            rng.sample(range(graph.size), min(self.num_nodes, graph.size))
        )
        candidates = [
            (graph.node_index(a), graph.node_index(b))
            for a, b in graph.edges()
            if graph.node_index(a) not in dead_nodes
            and graph.node_index(b) not in dead_nodes
        ]
        dead_links = frozenset(
            rng.sample(candidates, min(self.num_links, len(candidates)))
        )
        return Faults(graph, dead_nodes, dead_links, spec=self)


class Faults:
    """A :class:`FaultSpec` materialized against one graph.

    Holds the dead node ranks and dead undirected links (rank pairs with
    ``u < v``) and answers adjacency/distance/detour queries over the
    *surviving* graph.  A link is dead when it was knocked out directly or
    when either endpoint is a dead node.
    """

    __slots__ = ("graph", "dead_nodes", "dead_links", "spec", "_masked_matrix")

    def __init__(
        self,
        graph: CartesianGraph,
        dead_nodes: FrozenSet[int],
        dead_links: FrozenSet[Tuple[int, int]],
        *,
        spec: Optional[FaultSpec] = None,
    ):
        self.graph = graph
        self.dead_nodes = frozenset(int(rank) for rank in dead_nodes)
        self.dead_links = frozenset(
            (min(int(u), int(v)), max(int(u), int(v))) for u, v in dead_links
        )
        self.spec = spec
        self._masked_matrix = None

    def __repr__(self) -> str:
        token = self.spec.token if self.spec is not None else "custom"
        return (
            f"Faults({token} on {self.graph!r}: "
            f"{len(self.dead_nodes)} nodes, {len(self.dead_links)} links)"
        )

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def node_alive(self, rank: int) -> bool:
        return rank not in self.dead_nodes

    def link_alive(self, u: int, v: int) -> bool:
        """Whether the (undirected) link between ranks ``u`` and ``v`` survives."""
        if u in self.dead_nodes or v in self.dead_nodes:
            return False
        return (min(u, v), max(u, v)) not in self.dead_links

    def surviving_ranks(self) -> Tuple[int, ...]:
        """All surviving node ranks, ascending."""
        return tuple(
            rank for rank in range(self.graph.size) if rank not in self.dead_nodes
        )

    def surviving_neighbor_ranks(self, rank: int) -> List[int]:
        """Surviving neighbours of a surviving node, dimension-then-direction order."""
        node = self.graph.index_node(rank)
        out = []
        for neighbor in self.graph.neighbors(node):
            other = self.graph.node_index(neighbor)
            if self.link_alive(rank, other):
                out.append(other)
        return out

    # ------------------------------------------------------------------ #
    # Distances and detours (loop reference)
    # ------------------------------------------------------------------ #
    def bfs_distances(self, source: int) -> Dict[int, int]:
        """Shortest-path hop counts from ``source`` over surviving links.

        Only reachable surviving ranks appear as keys; a dead source yields
        an empty dict.
        """
        if source in self.dead_nodes:
            return {}
        distances = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier: List[int] = []
            for rank in frontier:
                for other in self.surviving_neighbor_ranks(rank):
                    if other not in distances:
                        distances[other] = distances[rank] + 1
                        next_frontier.append(other)
            frontier = next_frontier
        return distances

    def shortest_detour(self, source: int, destination: int) -> Optional[List[int]]:
        """A deterministic shortest surviving path as a rank list, or ``None``.

        Breadth-first with parents fixed at first discovery and neighbours
        expanded in the canonical dimension-then-direction order, so both
        backends derive the identical detour.
        """
        if source in self.dead_nodes or destination in self.dead_nodes:
            return None
        if source == destination:
            return [source]
        parents = {source: source}
        frontier = [source]
        while frontier and destination not in parents:
            next_frontier: List[int] = []
            for rank in frontier:
                for other in self.surviving_neighbor_ranks(rank):
                    if other not in parents:
                        parents[other] = rank
                        next_frontier.append(other)
            frontier = next_frontier
        if destination not in parents:
            return None
        path = [destination]
        while path[-1] != source:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    # ------------------------------------------------------------------ #
    # Vectorized surviving adjacency (array backend)
    # ------------------------------------------------------------------ #
    def masked_neighbor_matrix(self):
        """The graph's ``(n, 2d)`` neighbour matrix with dead entries masked.

        Same layout as :meth:`CartesianGraph.neighbor_rank_matrix`; entries
        pointing at or out of dead nodes and over dead links are invalid.
        Cached.
        """
        if self._masked_matrix is None:
            neighbors, valid = self.graph.neighbor_rank_matrix()
            valid = valid.copy()
            if self.dead_nodes:
                dead = np.zeros(self.graph.size, dtype=bool)
                dead[list(self.dead_nodes)] = True
                valid &= ~dead[:, None]
                # Invalid entries may hold out-of-range ranks; clamp before
                # the gather (they stay masked either way).
                valid &= ~dead[np.where(valid, neighbors, 0)]
            for u, v in self.dead_links:
                for a, b in ((u, v), (v, u)):
                    for column in np.nonzero(neighbors[a] == b)[0]:
                        valid[a, column] = False
            self._masked_matrix = (neighbors, valid)
        return self._masked_matrix

    def bfs_distance_row(self, source: int):
        """Hop counts from ``source`` as a length-``n`` array (-1 unreachable).

        Level-synchronous frontier expansion over the masked neighbour
        matrix; distances are canonical, so this agrees exactly with
        :meth:`bfs_distances`.
        """
        n = self.graph.size
        distances = np.full(n, -1, dtype=np.int64)
        if source in self.dead_nodes:
            return distances
        neighbors, valid = self.masked_neighbor_matrix()
        distances[source] = 0
        frontier = np.asarray([source], dtype=np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            candidates = neighbors[frontier][valid[frontier]]
            candidates = candidates[distances[candidates] < 0]
            if candidates.size == 0:
                break
            frontier = np.unique(candidates)
            distances[frontier] = depth
        return distances
