"""Adapters between the library's implicit graphs and :mod:`networkx`.

Materializing a torus or mesh as a :class:`networkx.Graph` is useful for
independent verification (breadth-first-search distances, Hamiltonicity of
small instances, isomorphism checks) and for visualization.  The adapters are
only intended for small to moderate graphs — a ``(l_1, ..., l_d)`` graph has
``Π l_i`` nodes and roughly ``d · Π l_i`` edges, all of which are stored
explicitly by networkx.

networkx is imported on first use, so ``import repro`` works without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .base import CartesianGraph

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

__all__ = ["to_networkx", "bfs_distance"]


def to_networkx(graph: CartesianGraph, *, max_nodes: Optional[int] = 200_000) -> "nx.Graph":
    """Materialize the torus/mesh as an undirected :class:`networkx.Graph`.

    Parameters
    ----------
    max_nodes:
        Guard against accidentally materializing an enormous graph; pass
        ``None`` to disable the check.
    """
    if max_nodes is not None and graph.size > max_nodes:
        raise ValueError(
            f"refusing to materialize {graph!r} with {graph.size} nodes "
            f"(limit {max_nodes}); pass max_nodes=None to override"
        )
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from(graph.edges())
    g.graph["kind"] = graph.kind.value
    g.graph["shape"] = graph.shape
    return g


def bfs_distance(graph: CartesianGraph, source, target) -> int:
    """Shortest-path distance computed by networkx BFS (verification helper)."""
    import networkx as nx

    g = to_networkx(graph)
    return nx.shortest_path_length(g, tuple(source), tuple(target))
