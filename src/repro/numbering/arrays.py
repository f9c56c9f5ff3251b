"""Vectorized mixed-radix numbering — the array backbone of the hot path.

The scalar bijections ``u_L`` / ``u_L^{-1}`` of :class:`~repro.numbering.radix.
RadixBase` convert one number at a time; surveying thousands of embeddings
needs the same conversions over *batches* of nodes at hardware speed.  This
module provides them on flat NumPy ``int64`` arrays:

* :func:`indices_to_digits` — ``u_L`` applied to an ``(n,)`` array of flat
  indices, producing an ``(n, d)`` array of radix-L digit rows;
* :func:`digits_to_indices` — the inverse ``u_L^{-1}`` on an ``(n, d)`` array;
* :func:`digit_weights` — the per-digit weights ``(w_1, ..., w_d)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "compact_index_dtype",
    "digit_weights",
    "indices_to_digits",
    "digits_to_indices",
    "signed_offset_digits",
    "stacked_edge_congestion",
]


def compact_index_dtype(max_value: int):
    """The smallest integer dtype that holds node ranks up to ``max_value``.

    Batched survey evaluation stacks many host-index arrays into one
    ``(batch, size)`` matrix; at ``int64`` that matrix is the dominant
    allocation of a shard, and every graph the paper studies fits ``int32``
    comfortably.  The explicit guard (rather than a silent modular cast)
    keeps a hypothetical ``>= 2**31``-node graph correct: it simply stays at
    ``int64``.
    """
    if max_value < 0:
        raise ValueError(f"max_value must be non-negative, got {max_value}")
    if max_value <= int(np.iinfo(np.int32).max):
        return np.int32
    return np.int64


def digit_weights(shape: Sequence[int]):
    """The per-digit weights ``(w_1, ..., w_d)`` of the radix-base ``shape``.

    ``w_d = 1`` and ``w_{j-1} = l_j * w_j``, matching
    :attr:`repro.numbering.radix.RadixBase.weights` without its leading
    ``w_0 = n`` entry.
    """
    radices = np.asarray(tuple(shape), dtype=np.int64)
    if radices.ndim != 1 or radices.size == 0:
        raise ValueError("shape must be a non-empty 1-D sequence of radices")
    weights = np.ones(radices.size, dtype=np.int64)
    if radices.size > 1:
        weights[:-1] = np.cumprod(radices[::-1][:-1])[::-1]
    return weights


def indices_to_digits(indices, shape: Sequence[int]):
    """Vectorized ``u_L``: flat indices ``(n,)`` -> digit rows ``(n, d)``.

    ``x̂_j = ⌊x / w_j⌋ mod l_j`` applied column-wise; the most significant
    digit is the first column, matching the paper's convention.
    """
    indices = np.asarray(indices, dtype=np.int64)
    radices = np.asarray(tuple(shape), dtype=np.int64)
    weights = digit_weights(shape)
    return (indices[..., None] // weights) % radices


def digits_to_indices(digits, shape: Sequence[int]):
    """Vectorized ``u_L^{-1}``: digit rows ``(n, d)`` -> flat indices ``(n,)``."""
    digits = np.asarray(digits, dtype=np.int64)
    weights = digit_weights(shape)
    if digits.shape[-1] != weights.size:
        raise ValueError(
            f"digit rows have {digits.shape[-1]} columns but the base has {weights.size} radices"
        )
    return digits @ weights


def signed_offset_digits(a_digits, b_digits, shape: Sequence[int], *, torus: bool):
    """Per-dimension signed coordinate offsets of dimension-ordered routing.

    For digit rows ``A`` and ``B`` of the base ``shape``, the entry ``(i, j)``
    is the signed number of unit steps dimension-ordered routing takes in
    dimension ``j`` to move message ``i`` from ``a_j`` to ``b_j``:

    * mesh (``torus=False``): ``b_j - a_j`` (monotone correction);
    * torus: the shorter way around the ring of length ``l_j``, ties broken
      towards increasing coordinates — ``+((b_j - a_j) mod l_j)`` when that
      is at most ``(a_j - b_j) mod l_j``, else the negated backward count.

    This is the batched form of the per-step direction choice of
    :func:`repro.graphs.paths.dimension_order_path` (the chosen direction is
    invariant along a run, so one signed offset per dimension reproduces the
    walk), and ``abs(offsets).sum(axis=-1)`` equals the δt/δm distance of
    Lemmas 5 and 6.
    """
    a_digits = np.asarray(a_digits, dtype=np.int64)
    b_digits = np.asarray(b_digits, dtype=np.int64)
    if a_digits.shape != b_digits.shape:
        raise ValueError("digit arrays must have the same shape")
    lengths = np.asarray(tuple(shape), dtype=np.int64)
    if a_digits.shape[-1] != lengths.size:
        raise ValueError("digit arrays and shape must have the same dimension")
    if not torus:
        return b_digits - a_digits
    forward = (b_digits - a_digits) % lengths
    backward = (a_digits - b_digits) % lengths
    return np.where(forward <= backward, forward, -backward)


def stacked_edge_congestion(images, edge_u, edge_v, shape: Sequence[int], *, torus: bool):
    """Edge congestion of dimension-ordered routing, over stacked embeddings.

    ``images`` is a ``(batch, n)`` matrix of host-index rows (one embedding
    per row; a single ``(n,)`` row is promoted to a batch of one) and
    ``edge_u`` / ``edge_v`` are the shared guest edge-endpoint rank arrays.
    The result is the ``(batch,)`` ``int64`` array of per-row maxima of the
    per-host-edge load.

    Dimension-ordered routing corrects host dimension ``j`` while dimensions
    ``< j`` already sit at the target coordinates and dimensions ``> j``
    still sit at the source coordinates, so each guest edge loads a
    contiguous (possibly wrapping) run of dimension-``j`` host edges along
    one axis line.  Interval adds over a ``(batch * lines, coords)``
    difference buffer — batch rows are disjoint line blocks — followed by a
    cumulative sum yield every host edge's load in O(batch * (E + n)) per
    dimension, with no per-row Python.  All arithmetic is integral, so one
    stacked pass is exactly the per-embedding computation row for row.
    """
    images = np.asarray(images, dtype=np.int64)
    if images.ndim == 1:
        images = images[None, :]
    if images.ndim != 2:
        raise ValueError(f"images must be a (batch, n) matrix, got shape {images.shape}")
    edge_u = np.asarray(edge_u, dtype=np.int64)
    edge_v = np.asarray(edge_v, dtype=np.int64)
    batch = images.shape[0]
    worst = np.zeros(batch, dtype=np.int64)
    if edge_u.size == 0:
        return worst
    # Imported lazily: repro.compiled.dispatch imports this module.
    from ..compiled.dispatch import active_kernels

    kernels = active_kernels()
    if kernels is not None:
        _, _, congestion = kernels.score_rows(
            images, edge_u, edge_v, tuple(shape), torus, with_congestion=True
        )
        return congestion
    lengths = tuple(shape)
    weights = digit_weights(lengths)
    size = int(np.prod(np.asarray(lengths, dtype=np.int64)))
    source = indices_to_digits(images[:, edge_u], lengths)  # (batch, E, d): path source A
    target = indices_to_digits(images[:, edge_v], lengths)  # (batch, E, d): path target B
    for j, length in enumerate(lengths):
        a = source[..., j]
        b = target[..., j]
        # Host position while correcting dimension j: dims < j are already
        # at the target, dims >= j still at the source.
        position = np.concatenate([target[..., :j], source[..., j:]], axis=-1)
        flat = position @ weights
        period = int(weights[j]) * length
        line = (flat // period) * int(weights[j]) + (flat % int(weights[j]))
        lines = size // length
        line = line + np.arange(batch, dtype=np.int64)[:, None] * lines
        if torus and length > 2:
            forward = (b - a) % length
            backward = (a - b) % length
            go_forward = forward <= backward
            start = np.where(go_forward, a, b)
            run = np.where(go_forward, forward, backward)
            end = start + run
            delta = np.zeros((batch * lines, length + 1), dtype=np.int64)
            wraps = end > length
            np.add.at(delta, (line, start), 1)
            np.add.at(delta, (line, np.minimum(end, length)), -1)
            if wraps.any():
                np.add.at(delta, (line[wraps], 0), 1)
                np.add.at(delta, (line[wraps], end[wraps] - length), -1)
            counts = np.cumsum(delta[:, :-1], axis=1)  # edge at coord c: (c, c+1 mod l)
        else:
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            delta = np.zeros((batch * lines, length), dtype=np.int64)
            np.add.at(delta, (line, lo), 1)
            np.add.at(delta, (line, hi), -1)
            counts = np.cumsum(delta[:, :-1], axis=1)
        if counts.size:
            np.maximum(worst, counts.reshape(batch, -1).max(axis=1), out=worst)
    return worst
