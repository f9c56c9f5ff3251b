"""Unequal-size (expansion) embeddings: a smaller guest in a larger host.

The paper studies same-size embeddings only, but its constructions extend
naturally to a guest that is *strictly smaller* than the host: pick a
componentwise sub-box of the host with exactly ``|V_G|`` nodes, embed the
guest in that sub-box with the same-size machinery, and lift the result by
padding the unused host coordinates with zeros.  The resulting map is
injective (a sub-embedding); dilation and congestion are measured on the
induced image exactly as for bijections — the cost kernels in
:mod:`repro.analysis.metrics` already index images by guest rank and never
assume surjectivity.

``find_subshape`` is the deterministic factor search: at each host dimension
it tries the divisors of the remaining guest size in *descending* order, so
the chosen sub-box keeps its leading extents as large as possible (and the
search is reproducible across runs and backends).  The inner same-size
embedding targets the *mesh* restriction of the sub-box: a mesh sub-box is a
genuine subgraph of both mesh and torus hosts, so every predicted dilation of
the inner embedding is preserved (exactly for mesh hosts, as an upper bound
for torus hosts where wraparound can only shorten image distances).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import UnsupportedEmbeddingError
from ..graphs.base import CartesianGraph, Mesh
from ..numbering.arrays import digits_to_indices, indices_to_digits
from .embedding import Construction, Embedding

__all__ = ["find_subshape", "subshape_construction", "embed_subshape"]


def find_subshape(size: int, host_shape: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """A componentwise factorization of ``size`` that fits inside ``host_shape``.

    Returns a tuple ``sub`` with ``len(sub) == len(host_shape)``,
    ``prod(sub) == size`` and ``1 <= sub[j] <= host_shape[j]`` for every
    ``j`` — the extents of a sub-box of the host with exactly ``size``
    nodes — or ``None`` when no such factorization exists (e.g. ``size``
    has a prime factor larger than every host extent).

    The search is deterministic: dimensions left to right, divisors in
    descending order, first complete factorization wins.
    """
    shape = tuple(int(length) for length in host_shape)
    if size < 1:
        return None

    def search(position: int, remaining: int) -> Optional[Tuple[int, ...]]:
        if position == len(shape):
            return () if remaining == 1 else None
        for extent in range(min(shape[position], remaining), 0, -1):
            if remaining % extent == 0:
                rest = search(position + 1, remaining // extent)
                if rest is not None:
                    return (extent,) + rest
        return None

    return search(0, size)


def subshape_inner_shape(sub: Sequence[int]) -> Tuple[int, ...]:
    """The shape of the inner same-size target: the non-trivial extents of ``sub``."""
    inner = tuple(extent for extent in sub if extent > 1)
    return inner if inner else (1,)


def subshape_construction(guest: CartesianGraph, host: CartesianGraph) -> Construction:
    """A strictly smaller ``guest`` injectively in ``host``: the inner
    same-size embedding into the sub-box, padded with zero coordinates.

    The inner pair is built through :func:`~repro.core.dispatch.embed`, so it
    is memoized under its own key.  Raises
    :class:`~repro.exceptions.UnsupportedEmbeddingError` when no sub-box of
    the host matches the guest size, or when the inner same-size embedding
    into the sub-box is itself unsupported.
    """
    from .dispatch import embed  # local import: dispatch imports this module

    sub = find_subshape(guest.size, host.shape)
    if sub is None:
        raise UnsupportedEmbeddingError(
            f"no sub-box of host shape {host.shape} has exactly {guest.size} nodes; "
            "the guest cannot be embedded as a subshape"
        )
    inner_shape = subshape_inner_shape(sub)
    inner_positions = [position for position, extent in enumerate(sub) if extent > 1]
    if not inner_positions:
        # Degenerate single-node guest: pin it to the host origin.
        inner_positions = [0]
    inner = embed(guest, Mesh(inner_shape))

    extents = "x".join(str(extent) for extent in sub)
    notes = {
        "subshape": sub,
        "inner_strategy": inner.strategy,
        "dilation_is_upper_bound": bool(
            host.is_torus or inner.notes.get("dilation_is_upper_bound", False)
        ),
    }

    def image(node):
        coordinates = [0] * host.dimension
        for column, position in enumerate(inner_positions):
            coordinates[position] = inner[node][column]
        return tuple(coordinates)

    def ranks():
        inner_digits = indices_to_digits(inner.host_index_array(), inner_shape)
        full = np.zeros((guest.size, host.dimension), dtype=np.int64)
        for column, position in enumerate(inner_positions):
            full[:, position] = inner_digits[:, column]
        return digits_to_indices(full, host.shape)

    return Construction(
        f"subshape:{extents}∘{inner.strategy}",
        inner.predicted_dilation,
        notes,
        image,
        ranks,
    )


def embed_subshape(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """Embed a strictly smaller ``guest`` injectively into ``host``: the
    :func:`subshape_construction` built under the ambient backend."""
    return subshape_construction(guest, host).build(guest, host)
