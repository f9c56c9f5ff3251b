"""Vectorized mixed-radix numbering — the array backbone of the hot path.

The scalar bijections ``u_L`` / ``u_L^{-1}`` of :class:`~repro.numbering.radix.
RadixBase` convert one number at a time; surveying thousands of embeddings
needs the same conversions over *batches* of nodes at hardware speed.  This
module provides them on flat NumPy ``int64`` arrays:

* :func:`indices_to_digits` — ``u_L`` applied to an ``(n,)`` array of flat
  indices, producing an ``(n, d)`` array of radix-L digit rows;
* :func:`digits_to_indices` — the inverse ``u_L^{-1}`` on an ``(n, d)`` array;
* :func:`digit_weights` — the per-digit weights ``(w_1, ..., w_d)``;
* :func:`shape_tables` — per-shape node tables (digit rows, coordinate
  columns, axis-line ids), computed once so the metric kernels gather
  instead of dividing.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "ShapeTables",
    "compact_index_dtype",
    "digit_weights",
    "indices_to_digits",
    "digits_to_indices",
    "shape_tables",
    "signed_offset_digits",
    "stacked_edge_congestion",
]

#: Bound of the per-shape memos.  The exhaustive pairs up to 64 nodes span
#: 426 distinct shapes, so a sweep over them keeps every table resident; the
#: bound caps memory (four ``n * d`` int64 tables per shape) on larger sweeps.
_SHAPE_MEMO_SIZE = 1024


def compact_index_dtype(max_value: int):
    """The smallest integer dtype that holds node ranks up to ``max_value``.

    Batched survey congestion stacks a signature's host-index arrays into
    one ``(batch, size)`` matrix; at ``int64`` that matrix is the dominant
    allocation of the pass, and every graph the paper studies fits ``int32``
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
    ``w_0 = n`` entry.  Memoized per shape and read-only: every caller
    shares the one array.
    """
    return _weights(tuple(shape))


@functools.lru_cache(maxsize=_SHAPE_MEMO_SIZE)
def _weights(shape: Tuple[int, ...]):
    radices = np.asarray(shape, dtype=np.int64)
    if radices.ndim != 1 or radices.size == 0:
        raise ValueError("shape must be a non-empty 1-D sequence of radices")
    weights = np.ones(radices.size, dtype=np.int64)
    if radices.size > 1:
        weights[:-1] = np.cumprod(radices[::-1][:-1])[::-1]
    weights.setflags(write=False)
    return weights


class ShapeTables(NamedTuple):
    """Read-only node tables of one shape ``(l_1, ..., l_d)`` with ``n`` nodes.

    * ``digits`` — the ``(n, d)`` digit rows of every node in natural order;
    * ``coords[j]`` — the contiguous coordinate column ``c_j = digits[:, j]``;
    * ``high[j]``, ``low[j]`` — the two halves of a node's dimension-``j``
      axis-line id: with ``w_j`` the digit weight, ``high_j[r] =
      ⌊r / (l_j w_j)⌋ · w_j`` keeps the digits above ``j`` and ``low_j[r] =
      r mod w_j`` the digits below it, so ``high_j[r] + low_j[r]`` numbers
      the ``n / l_j`` lines along dimension ``j`` from 0.
    """

    digits: np.ndarray
    coords: Tuple[np.ndarray, ...]
    high: Tuple[np.ndarray, ...]
    low: Tuple[np.ndarray, ...]


@functools.lru_cache(maxsize=_SHAPE_MEMO_SIZE)
def shape_tables(shape: Tuple[int, ...]) -> ShapeTables:
    """The :class:`ShapeTables` of ``shape`` (a tuple), computed once.

    Shared by every graph of the shape and every metric kernel call on it,
    hence read-only.  Each table is ``O(n)`` per dimension.
    """
    weights = digit_weights(shape)
    ranks = np.arange(math.prod(shape), dtype=np.int64)
    digits = indices_to_digits(ranks, shape)
    coords = tuple(np.ascontiguousarray(column) for column in digits.T)
    high = tuple(ranks // (length * w) * w for length, w in zip(shape, weights))
    low = tuple(ranks % w for w in weights)
    for table in (digits, *coords, *high, *low):
        table.setflags(write=False)
    return ShapeTables(digits, coords, high, low)


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
    the axis line ``high_j[target] + low_j[source]`` (see
    :class:`ShapeTables`), between the coordinates ``c_j[source]`` and
    ``c_j[target]`` — all four gathered from the shape's memoized tables,
    with no division.  Row ``b`` owns lines ``b * n / l_j`` onward, so the
    rows are disjoint blocks of one flat ``(batch * lines, width)``
    difference buffer, built by ``np.bincount`` of the run starts minus
    ``np.bincount`` of the run ends (plus one more pair for torus runs that
    wrap).  Every run opens and closes on its own line, so one cumulative
    sum over the flat buffer restarts at zero on each line and yields every
    host edge's load in O(batch * (E + n)) per dimension, with no per-row
    Python.  All arithmetic is integral, so one stacked pass is exactly the
    per-embedding computation row for row.
    """
    images = np.asarray(images)
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
    lengths = tuple(shape)
    tables = shape_tables(lengths)
    size = tables.digits.shape[0]
    # (batch, E) path source/target ranks; np.take keeps them C-ordered
    # (``images[:, edge_u]`` is Fortran-ordered, and ravel would copy it).
    source = np.take(images, edge_u, axis=1)
    target = np.take(images, edge_v, axis=1)
    row = np.arange(batch, dtype=np.int64)[:, None]
    for j, length in enumerate(lengths):
        a = tables.coords[j][source]
        b = tables.coords[j][target]
        lines = size // length
        line = tables.high[j][target]
        line += tables.low[j][source]
        line += row * lines
        # A ring of length 2 has one edge per line, like a mesh line.
        ring = torus and length > 2
        if ring:
            # The shorter way round, ties forward: the run leaves a for
            # (b - a) mod l steps unless the way back from a is shorter.
            run = b - a
            np.add(run, length, out=run, where=run < 0)
            back = length - run
            go_back = run > back
            np.copyto(a, b, where=go_back)  # a becomes the run's start
            np.copyto(run, back, where=go_back)
            end = run
            end += a
            wraps = end > length  # a run past l continues from coordinate 0
            past = end[wraps] - length
            np.minimum(end, length, out=end)
            width = length + 1  # column l takes the ends of runs that reach l
        else:
            end = np.maximum(a, b)
            np.minimum(a, b, out=a)
            width = length
        slots = batch * lines * width
        line *= width
        a += line
        end += line
        delta = np.bincount(a.ravel(), minlength=slots)
        delta -= np.bincount(end.ravel(), minlength=slots)
        if ring and past.size:
            first = line[wraps]
            delta += np.bincount(first, minlength=slots)
            first += past
            delta -= np.bincount(first, minlength=slots)
        # The edge at coordinate c joins (c, c+1 mod l); the last column of
        # each line holds the line's full sum, 0, and loads are >= 0.
        np.cumsum(delta, out=delta)
        np.maximum(worst, delta.reshape(batch, -1).max(axis=1), out=worst)
    return worst
