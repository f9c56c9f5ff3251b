"""Cost measures for embeddings.

The paper's sole optimization measure is the dilation cost (Definition 1);
the companion measures provided here (average dilation, edge congestion,
expansion cost) are standard in the embedding literature and are reported by
the experiment harness so that the paper's constructions can be compared
against baselines on more than one axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.embedding import Embedding
from ..numbering.arrays import (
    compact_index_dtype,
    stacked_edge_congestion,
)

__all__ = [
    "dilation_cost",
    "average_dilation_cost",
    "edge_congestion_cost",
    "expansion_cost",
    "EmbeddingReport",
    "evaluate_embedding",
    "stack_host_index_arrays",
    "stacked_edge_dilations",
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
def stack_host_index_arrays(embeddings, host):
    """Stack the host-index arrays of same-signature embeddings.

    All embeddings must target ``host`` (and share one guest signature); the
    result is a ``(batch, size)`` matrix in the smallest sufficient integer
    dtype (``int32`` whenever the host has fewer than ``2**31`` nodes —
    :func:`repro.numbering.arrays.compact_index_dtype` is the overflow
    guard).
    """
    dtype = compact_index_dtype(max(host.size - 1, 0))
    return np.stack(
        [
            np.asarray(embedding.host_index_array(), dtype=dtype)
            for embedding in embeddings
        ]
    )


def stacked_edge_dilations(host, edge_u, edge_v, images):
    """Per-edge host distances for a whole stack of embeddings at once.

    ``images`` is the ``(batch, size)`` stack of host-index rows and
    ``edge_u`` / ``edge_v`` the shared guest edge-endpoint ranks; the result
    is the ``(batch, E)`` ``int64`` distance matrix — row ``b`` equals
    ``Embedding.edge_dilation_array`` of the ``b``-th embedding exactly.
    """
    images = np.asarray(images)
    # np.take keeps the stacks C-ordered (``images[:, edge_u]`` is
    # Fortran-ordered), so the row reductions run over contiguous rows.
    return host.distance_indices(
        np.take(images, edge_u, axis=1), np.take(images, edge_v, axis=1)
    )


def stacked_dilation_summary(host, edge_u, edge_v, images):
    """``(dilation, average_dilation)`` columns for a stack of embeddings.

    One fused pass over the shared edge-index arrays: the ``(batch,)``
    ``int64`` maxima and ``(batch,)`` ``float64`` means of the stacked
    per-edge distances.  Both reductions run over the contiguous rows of the
    distance matrix, so each row's result is bit-for-bit the per-embedding
    ``dilation()`` / ``average_dilation()`` value.
    """
    images = np.asarray(images)
    batch = images.shape[0]
    edge_u = np.asarray(edge_u)
    if edge_u.size == 0:
        return (
            np.zeros(batch, dtype=np.int64),
            np.zeros(batch, dtype=np.float64),
        )
    dilations = stacked_edge_dilations(host, edge_u, edge_v, images)
    return dilations.max(axis=1), dilations.mean(axis=1)


def stacked_objective_components(host, edge_u, edge_v, images, *, with_congestion):
    """Objective columns for a stack of embeddings, in one fused pass.

    Returns ``(dilation_max, dilation_total, congestion)`` — three ``(batch,)``
    ``int64`` columns (``congestion`` is ``None`` unless requested).  This is
    the scoring kernel of the embedding optimizer
    (:mod:`repro.optimize.search`): the whole candidate population is priced
    by one pass over the shared edge-index arrays, with no per-candidate
    Python.  Each row's values are bit-for-bit the per-embedding
    ``dilation()`` / ``sum(edge dilations)`` / ``edge_congestion()``.
    """
    images = np.asarray(images)
    batch = images.shape[0]
    edge_u = np.asarray(edge_u)
    if edge_u.size == 0:
        zeros = np.zeros(batch, dtype=np.int64)
        return zeros, zeros.copy(), (zeros.copy() if with_congestion else None)
    dilations = stacked_edge_dilations(host, edge_u, edge_v, images)
    congestion = (
        stacked_congestion(host, edge_u, edge_v, images) if with_congestion else None
    )
    return dilations.max(axis=1), dilations.sum(axis=1), congestion


def stacked_congestion(host, edge_u, edge_v, images):
    """Edge congestion column for a stack of embeddings (``(batch,)`` ints).

    The survey-facing wrapper of
    :func:`repro.numbering.arrays.stacked_edge_congestion`.
    """
    return stacked_edge_congestion(
        images, edge_u, edge_v, host.shape, torus=host.is_torus
    )
