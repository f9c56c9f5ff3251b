"""The breadth-first-search order baseline embedding.

Both graphs are traversed breadth-first from their all-zero corner node and
the visit orders are matched rank by rank.  This is a cheap locality
heuristic: nodes close to the guest origin land close to the host origin,
but nothing controls the dilation of edges far from the origin, so it
typically sits between the lexicographic baseline and the paper's
constructions.

Two implementations share the deterministic visit order: the per-node queue
walk (:func:`bfs_order`, the loop reference) and a level-synchronous
vectorized expansion over the cached neighbour-rank matrix
(:func:`bfs_rank_order`) whose Python iteration count is the graph's
eccentricity, not its node count.  The baseline differential tests pin them
node-for-node.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

import numpy as np

from ..core.embedding import Embedding
from ..exceptions import ShapeMismatchError
from ..graphs.base import CartesianGraph
from ..runtime.context import use_array_path
from ..types import Node

__all__ = ["bfs_order_embedding", "bfs_order", "bfs_rank_order"]


def bfs_order(graph: CartesianGraph) -> List[Node]:
    """Breadth-first visit order starting from the all-zero node.

    Ties at equal depth are broken by natural node order (the order in which
    :meth:`CartesianGraph.neighbors` yields them), so the order is
    deterministic.
    """
    start: Node = (0,) * graph.dimension
    seen = {start}
    order: List[Node] = [start]
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                order.append(neighbor)
                queue.append(neighbor)
    return order


def bfs_rank_order(graph: CartesianGraph):
    """Natural-order ranks in breadth-first visit order (vectorized).

    Level-synchronous expansion: each round gathers the whole frontier's
    neighbour columns (parents in discovery order, columns in
    :meth:`CartesianGraph.neighbors` order), drops already-seen ranks and
    keeps the first occurrence of each novel rank — exactly the order the
    per-node queue of :func:`bfs_order` discovers them, because a BFS queue
    drains each depth level completely before the next.
    """
    neighbors, valid = graph.neighbor_rank_matrix()
    n = graph.size
    seen = np.zeros(n, dtype=bool)
    seen[0] = True  # the all-zero corner has rank 0
    frontier = np.zeros(1, dtype=np.int64)
    levels = [frontier]
    visited = 1
    while visited < n:
        candidates = neighbors[frontier][valid[frontier]]  # discovery order
        candidates = candidates[~seen[candidates]]
        if candidates.size == 0:  # pragma: no cover - graphs are connected
            break
        _, first = np.unique(candidates, return_index=True)
        frontier = candidates[np.sort(first)]
        seen[frontier] = True
        levels.append(frontier)
        visited += frontier.size
    return np.concatenate(levels)


def bfs_order_embedding(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """Match breadth-first visit ranks of guest and host nodes.

    A guest smaller than the host uses only the first ``|V_G|`` host nodes
    in breadth-first order (the ball around the host origin), injectively.
    """
    if guest.size > host.size:
        raise ShapeMismatchError(
            f"guest has {guest.size} nodes but host has {host.size}"
        )
    if use_array_path():
        guest_ranks = bfs_rank_order(guest)
        host_ranks = bfs_rank_order(host)[: guest.size]
        host_indices = np.empty(guest.size, dtype=np.int64)
        host_indices[guest_ranks] = host_ranks
        return Embedding.from_index_array(
            guest,
            host,
            host_indices,
            strategy="baseline:bfs-order",
            predicted_dilation=None,
        )
    guest_order = bfs_order(guest)
    host_order = bfs_order(host)
    mapping: Dict[Node, Node] = {
        guest_node: host_node for guest_node, host_node in zip(guest_order, host_order)
    }
    return Embedding(
        guest=guest,
        host=host,
        mapping=mapping,
        strategy="baseline:bfs-order",
        predicted_dilation=None,
    )
