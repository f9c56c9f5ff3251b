"""Cost measures for embeddings.

The paper's sole optimization measure is the dilation cost (Definition 1);
the companion measures provided here (average dilation, edge congestion,
expansion cost) are standard in the embedding literature and are reported by
the experiment harness so that the paper's constructions can be compared
against baselines on more than one axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

import numpy as np

from ..core.embedding import Embedding
from ..numbering.arrays import (
    shape_tables,
    stacked_edge_congestion,
    stacked_route_costs,
)

__all__ = [
    "dilation_cost",
    "average_dilation_cost",
    "edge_congestion_cost",
    "expansion_cost",
    "EmbeddingReport",
    "ObjectiveComponents",
    "evaluate_embedding",
    "stacked_dilation_summary",
    "stacked_congestion",
    "stacked_objective_components",
]


def dilation_cost(embedding: Embedding) -> int:
    """The measured dilation cost (maximum host distance over guest edges).

    The implementation is resolved from the ambient execution context: the
    array backend runs the vectorized path, ``use_context(backend="loop")``
    forces the historical per-edge Python loop (the cross-checked fallback).
    """
    return embedding.dilation()


def average_dilation_cost(embedding: Embedding) -> float:
    """The mean host distance over guest edges."""
    return embedding.average_dilation()


def edge_congestion_cost(embedding: Embedding) -> int:
    """Maximum number of guest edges routed through one host edge."""
    return embedding.edge_congestion()


def expansion_cost(embedding: Embedding) -> float:
    """``|V_H| / |V_G|`` (always 1 for the paper's same-size embeddings)."""
    return embedding.expansion_cost()


@dataclass(frozen=True)
class EmbeddingReport:
    """A bundle of measured costs for one embedding, ready for tabulation."""

    guest: str
    host: str
    strategy: str
    predicted_dilation: Optional[int]
    dilation: int
    average_dilation: float
    congestion: Optional[int]
    valid: bool

    def as_row(self) -> Dict[str, object]:
        """Dictionary form used by :class:`repro.analysis.report.Table`."""
        return {
            "guest": self.guest,
            "host": self.host,
            "strategy": self.strategy,
            "predicted": "-" if self.predicted_dilation is None else self.predicted_dilation,
            "dilation": self.dilation,
            "avg dilation": round(self.average_dilation, 3),
            "congestion": "-" if self.congestion is None else self.congestion,
            "valid": "yes" if self.valid else "NO",
        }


def evaluate_embedding(
    embedding: Embedding, *, with_congestion: bool = False
) -> EmbeddingReport:
    """Measure an embedding and package the results.

    Congestion routes every guest edge and is therefore optional; with the
    vectorized path it is an O(E + |V_H|)-per-dimension difference-array
    computation rather than an explicit walk of every routed path.
    """
    return EmbeddingReport(
        guest=repr(embedding.guest),
        host=repr(embedding.host),
        strategy=embedding.strategy,
        predicted_dilation=embedding.predicted_dilation,
        dilation=embedding.dilation(),
        average_dilation=embedding.average_dilation(),
        congestion=embedding.edge_congestion() if with_congestion else None,
        valid=embedding.is_valid(),
    )


# --------------------------------------------------------------------- #
# Stacked metric kernels (batched survey evaluation)
# --------------------------------------------------------------------- #
def stacked_dilation_summary(hosts, edge_us, edge_vs, images):
    """``(dilation, average_dilation)`` columns for a ragged stack of embeddings.

    The four arguments are equal-length sequences: row ``i`` is the
    embedding with host-index row ``images[i]`` into ``hosts[i]`` of a guest
    whose edges join the ranks ``edge_us[i]`` and ``edge_vs[i]``.  Guests
    and hosts may differ from row to row.  The rows' edges are concatenated
    and measured in one pass per dimension, then reduced per row with
    ``reduceat``; rows run in consecutive chunks of at most
    :data:`_CHUNK_EDGES` edges, so the temporaries stay bounded however many
    rows a call holds.

    Returns the ``(rows,)`` ``int64`` maxima and ``(rows,)`` ``float64``
    means, each bit-for-bit the row's ``dilation()`` / ``average_dilation()``:
    the mean is the exact integer sum over the edge count, which is what
    ``ndarray.mean`` computes for integers (it sums in ``float64``, exact
    below ``2**53``, then divides).  A row without edges gives ``(0, 0.0)``.
    """
    dilation = np.zeros(len(images), dtype=np.int64)
    average = np.zeros(len(images), dtype=np.float64)
    counts = [len(edges) for edges in edge_us]
    for rows in _edge_chunks(counts):
        sizes = [counts[row] for row in rows]
        distances = _ragged_edge_distances(
            [hosts[row] for row in rows],
            [edge_us[row] for row in rows],
            [edge_vs[row] for row in rows],
            [images[row] for row in rows],
            sizes,
        )
        starts = np.cumsum([0] + sizes[:-1])
        dilation[rows] = np.maximum.reduceat(distances, starts)
        average[rows] = np.add.reduceat(distances, starts) / sizes
    return dilation, average


#: Most guest edges one chunk of :func:`stacked_dilation_summary` measures
#: at once (a row with more edges is a chunk of its own).  A chunk holds a
#: few ``int64`` arrays of this length; a survey shard of the exhaustive
#: sweep up to 128 nodes is one chunk.
_CHUNK_EDGES = 1 << 16


def _edge_chunks(counts):
    """Consecutive lists of the rows with edges, each within :data:`_CHUNK_EDGES`.

    Rows without edges are left out: they keep ``(0, 0.0)`` and must never
    reach ``reduceat``, which reads one element even for an empty segment.
    """
    chunk, held = [], 0
    for row, count in enumerate(counts):
        if not count:
            continue
        if held and held + count > _CHUNK_EDGES:
            yield chunk
            chunk, held = [], 0
        chunk.append(row)
        held += count
    if chunk:
        yield chunk


def _ragged_edge_distances(hosts, edge_us, edge_vs, images, counts):
    """Per-edge host distances of a ragged stack, concatenated row by row.

    ``counts[i]`` is the number of edges of row ``i``.

    The distinct hosts' digit tables (:func:`shape_tables`) sit side by side
    in one ``(width, nodes)`` coordinate table, ``width`` being the largest
    host dimension; a host with fewer dimensions reads 0 in the rest.  Each
    image is shifted into its host's block of columns, so one gather per
    dimension measures every edge.  A dimension adds ``min(δ, l - δ)`` with
    ``l`` its extent on a torus and twice its extent on a mesh, where the
    minimum is always ``δ``; padded dimensions have ``δ = l = 0``.

    Raises :class:`IndexError` when an image or edge rank leaves its row,
    which would otherwise read another row's nodes.
    """
    blocks: Dict[tuple, int] = {}
    distinct = []  # (host, its first column)
    host_of_row = []
    nodes = 0
    for host in hosts:
        key = (host.is_torus, host.shape)
        index = blocks.get(key)
        if index is None:
            index = blocks[key] = len(distinct)
            distinct.append((host, nodes))
            nodes += host.size
        host_of_row.append(index)
    width = max(host.dimension for host, _ in distinct)
    coords = np.zeros((width, nodes), dtype=np.int64)
    wraps = np.zeros((width, len(distinct)), dtype=np.int64)
    for index, (host, first) in enumerate(distinct):
        dimension = host.dimension
        block = slice(first, first + host.size)
        coords[:dimension, block] = shape_tables(host.shape).digits.T
        wraps[:dimension, index] = host.shape
        if not host.is_torus:
            wraps[:dimension, index] *= 2

    lengths = [len(image) for image in images]
    ranks = np.concatenate(images, dtype=np.int64)
    if ranks.min() < 0 or (ranks >= np.repeat([h.size for h in hosts], lengths)).any():
        raise IndexError("an image rank is not a node of its row's host")
    ranks += np.repeat([distinct[index][1] for index in host_of_row], lengths)
    edge_u = np.concatenate(edge_us, dtype=np.int64)
    edge_v = np.concatenate(edge_vs, dtype=np.int64)
    limits = np.repeat(lengths, counts)
    for ends in (edge_u, edge_v):
        if ends.min() < 0 or (ends >= limits).any():
            raise IndexError("an edge rank is not a node of its row's guest")
    shift = np.repeat(np.cumsum([0] + lengths[:-1]), counts)
    a = ranks[edge_u + shift]
    b = ranks[edge_v + shift]

    total = np.zeros(a.size, dtype=np.int64)
    step = np.empty_like(total)
    for column, wrap in zip(coords, wraps[:, np.repeat(host_of_row, counts)]):
        np.subtract(column[a], column[b], out=step)
        np.abs(step, out=step)
        np.minimum(step, wrap - step, out=step)
        total += step
    return total


class ObjectiveComponents(NamedTuple):
    """The objective columns of a stack of embeddings and what they reduce.

    ``dilation_max``, ``dilation_total`` and ``congestion`` are ``(batch,)``
    ``int64`` columns; ``distances`` is the ``(batch, E)`` per-edge host
    distance matrix and ``loads`` the ``(batch, slots)`` per-link load
    matrix of :func:`repro.numbering.arrays.stacked_route_costs`.
    ``congestion`` and ``loads`` are ``None`` unless congestion was asked
    for.
    """

    dilation_max: np.ndarray
    dilation_total: np.ndarray
    congestion: Optional[np.ndarray]
    distances: np.ndarray
    loads: Optional[np.ndarray]


def stacked_objective_components(host, edge_u, edge_v, images, *, with_congestion):
    """Objective columns for a stack of embeddings, in one fused pass.

    Returns :class:`ObjectiveComponents`.  This is the full scorer of the
    embedding optimizer (:mod:`repro.optimize.search`): the seed population
    is priced by one pass over the shared edge-index arrays, with no
    per-candidate Python, and the per-edge distances and
    per-link loads it returns are the state the search then updates
    generation by generation.  Dilation and congestion come from one set of
    coordinate gathers (:func:`repro.numbering.arrays.route_runs`).  Each
    row's values are bit-for-bit the per-embedding ``dilation()`` /
    ``sum(edge dilations)`` / ``edge_congestion()``; a guest without edges
    scores 0.
    """
    distances, loads = stacked_route_costs(
        images,
        edge_u,
        edge_v,
        host.shape,
        torus=host.is_torus,
        with_loads=with_congestion,
    )
    if distances.shape[1]:
        dilation_max = distances.max(axis=1)
    else:
        dilation_max = np.zeros(distances.shape[0], dtype=np.int64)
    return ObjectiveComponents(
        dilation_max,
        distances.sum(axis=1),
        None if loads is None else loads.max(axis=1),
        distances,
        loads,
    )


def stacked_congestion(host, edge_u, edge_v, images):
    """Edge congestion column for a stack of embeddings (``(batch,)`` ints).

    The survey-facing wrapper of
    :func:`repro.numbering.arrays.stacked_edge_congestion`.
    """
    return stacked_edge_congestion(
        images, edge_u, edge_v, host.shape, torus=host.is_torus
    )
