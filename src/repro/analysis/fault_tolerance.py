"""Re-embedding around host faults and cost measures on degraded hosts.

Two operations close the loop for the ``faults`` survey suite:

``repair_embedding``
    Takes an embedding built for the pristine host and a materialized
    :class:`~repro.graphs.faults.Faults`, and re-places every guest node
    whose image died onto the nearest surviving *free* host node (pristine
    host distance, ties broken by rank — fully deterministic, so both
    backends derive the identical repaired placement).  Embeddings touched
    by repair are never construction-cached: the cache keys pristine
    constructions only.

``fault_dilation_summary``
    Dilation and average dilation measured with *surviving-graph* BFS
    distances instead of the closed-form pristine distances — the actual
    path lengths messages must travel once links are gone.  Distances are
    canonical, so the vectorized path (masked level-synchronous BFS) and
    the loop path agree exactly.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..core.embedding import Embedding
from ..exceptions import SimulationError, UnsupportedEmbeddingError
from ..graphs.faults import Faults
from ..runtime.context import use_array_path

__all__ = ["repair_embedding", "fault_dilation_summary"]


def repair_embedding(embedding: Embedding, faults: Faults) -> Embedding:
    """Re-place guest nodes whose host image died; injectivity is preserved.

    Returns the embedding unchanged when no image is on a dead node (link
    faults alone never invalidate a placement).  Raises
    :class:`~repro.exceptions.UnsupportedEmbeddingError` when the surviving
    host cannot hold the guest.
    """
    host = embedding.host
    if faults.graph != host:
        raise SimulationError(
            f"faults were materialized for {faults.graph!r}, not {host!r}"
        )
    guest = embedding.guest
    images = [host.node_index(embedding.map_index(rank)) for rank in range(guest.size)]
    broken = [rank for rank, image in enumerate(images) if image in faults.dead_nodes]
    if not broken:
        return embedding
    used = set(images)
    free = [rank for rank in faults.surviving_ranks() if rank not in used]
    if len(broken) > len(free):
        raise UnsupportedEmbeddingError(
            f"host has only {len(faults.surviving_ranks())} surviving nodes for "
            f"{guest.size} guest nodes; cannot re-embed around the faults"
        )
    for rank in broken:
        origin = host.index_node(images[rank])
        chosen = min(
            free, key=lambda candidate: (host.distance(origin, host.index_node(candidate)), candidate)
        )
        free.remove(chosen)
        images[rank] = chosen

    strategy = f"{embedding.strategy}+repair"
    notes = dict(embedding.notes)
    notes["fault_repairs"] = len(broken)
    if faults.spec is not None:
        notes["faults"] = faults.spec.token
    if use_array_path():
        return Embedding.from_index_array(
            guest,
            host,
            np.asarray(images, dtype=np.int64),
            strategy=strategy,
            predicted_dilation=embedding.predicted_dilation,
            notes=notes,
        )
    mapping = {
        guest.index_node(rank): host.index_node(image)
        for rank, image in enumerate(images)
    }
    return Embedding(
        guest=guest,
        host=host,
        mapping=mapping,
        strategy=strategy,
        predicted_dilation=embedding.predicted_dilation,
        notes=notes,
    )


def fault_dilation_summary(embedding: Embedding, faults: Faults) -> Tuple[int, float]:
    """(dilation, average dilation) over surviving-graph BFS distances.

    Raises :class:`~repro.exceptions.SimulationError` when an image sits on
    a dead node (repair first) or the faults disconnect two images that a
    guest edge must join.
    """
    guest = embedding.guest
    host = embedding.host
    if faults.graph != host:
        raise SimulationError(
            f"faults were materialized for {faults.graph!r}, not {host!r}"
        )
    num_edges = guest.num_edges()
    if num_edges == 0:
        return 0, 0.0

    if use_array_path():
        images = embedding.host_index_array()
        if faults.dead_nodes and bool(
            np.isin(images, np.asarray(sorted(faults.dead_nodes))).any()
        ):
            raise SimulationError(
                "an embedding image sits on a dead host node; repair the embedding first"
            )
        edge_u, edge_v = guest.edge_index_arrays()
        source_images = images[edge_u]
        target_images = images[edge_v]
        rows = {}
        for source in np.unique(source_images):
            rows[int(source)] = faults.bfs_distance_row(int(source))
        distances = np.empty(num_edges, dtype=np.int64)
        for index in range(num_edges):
            distances[index] = rows[int(source_images[index])][target_images[index]]
        if bool((distances < 0).any()):
            raise SimulationError(
                "the faults disconnect two embedding images joined by a guest edge"
            )
        return int(distances.max()), int(distances.sum()) / num_edges

    cache: Dict[int, Dict[int, int]] = {}
    worst = 0
    total = 0
    for a, b in guest.edges():
        source = host.node_index(embedding[a])
        target = host.node_index(embedding[b])
        if source in faults.dead_nodes or target in faults.dead_nodes:
            raise SimulationError(
                "an embedding image sits on a dead host node; repair the embedding first"
            )
        if source not in cache:
            cache[source] = faults.bfs_distances(source)
        distance = cache[source].get(target)
        if distance is None:
            raise SimulationError(
                "the faults disconnect two embedding images joined by a guest edge"
            )
        worst = max(worst, distance)
        total += distance
    return worst, total / num_edges
