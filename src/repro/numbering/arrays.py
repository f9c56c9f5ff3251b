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
  instead of dividing;
* :func:`route_runs` — the one statement of dimension-ordered routing over
  arrays of node pairs: each pair's distance and the runs of host edges its
  path loads, as slots of a :func:`link_layout` buffer that
  :func:`run_loads` turns into link loads.  The survey's congestion kernel
  (:func:`stacked_edge_congestion`), the optimizer's full scorer
  (:func:`stacked_route_costs`) and its incremental scorer all route
  through it.
"""

from __future__ import annotations

import functools
import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LinkLayout",
    "RouteRuns",
    "ShapeTables",
    "digit_weights",
    "indices_to_digits",
    "digits_to_indices",
    "link_layout",
    "route_runs",
    "run_loads",
    "shape_tables",
    "signed_offset_digits",
    "stacked_edge_congestion",
    "stacked_route_costs",
]

#: Bound of the per-shape memos.  The exhaustive pairs up to 64 nodes span
#: 426 distinct shapes, so a sweep over them keeps every table resident; the
#: bound caps memory (four ``n * d`` int64 tables per shape) on larger sweeps.
_SHAPE_MEMO_SIZE = 1024


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


class LinkLayout(NamedTuple):
    """Where the host edges of one shape sit in a row of a link-load buffer.

    Dimension ``j`` owns one block of ``n / l_j`` axis lines.  A line is
    ``l_j`` slots wide on a mesh and on a torus ring of length at most 2
    (one edge per line pair, like a mesh), and ``l_j + 1`` on a longer
    ring, whose column ``l_j`` takes the ends of runs that reach it.  The
    slot of coordinate ``c`` on the line of a path from ``s`` to ``t`` is
    ``high[j][t] + low[j][s] + c``: ``high[j]`` holds the block offset
    plus the line's upper digits times the line width, ``low[j]`` its
    lower digits times the width (see :class:`ShapeTables`).  The edge at
    slot ``c`` joins coordinates ``c`` and ``c + 1 mod l_j``; the last
    slot of a line holds no edge and always reads 0.  ``slots`` is the row
    width.
    """

    high: Tuple[np.ndarray, ...]
    low: Tuple[np.ndarray, ...]
    slots: int


@functools.lru_cache(maxsize=_SHAPE_MEMO_SIZE)
def link_layout(shape: Tuple[int, ...], torus: bool) -> LinkLayout:
    """The :class:`LinkLayout` of ``shape`` (a tuple), computed once and
    read-only like :func:`shape_tables`."""
    tables = shape_tables(shape)
    size = tables.digits.shape[0]
    high, low = [], []
    offset = 0
    for j, length in enumerate(shape):
        width = length + 1 if torus and length > 2 else length
        high.append(tables.high[j] * width + offset)
        low.append(tables.low[j] * width)
        offset += size // length * width
    for table in (*high, *low):
        table.setflags(write=False)
    return LinkLayout(tuple(high), tuple(low), offset)


class RouteRuns(NamedTuple):
    """The dimension-ordered routes of a set of node pairs.

    ``distance`` is each pair's host distance.  ``opens`` and ``closes``
    are matching lists of slot arrays, each shaped like the pairs: run
    ``i`` of a pair loads the slots from ``opens[i]`` up to, not including,
    ``closes[i]`` (``None`` when no rows were given).
    """

    distance: np.ndarray
    opens: Optional[List[np.ndarray]]
    closes: Optional[List[np.ndarray]]


def route_runs(
    source, target, shape: Sequence[int], *, torus: bool, rows=None
) -> RouteRuns:
    """Distances and link runs of dimension-ordered routing, pair by pair.

    ``source`` and ``target`` are equal-shaped arrays of host ranks, one
    path per element; ``rows`` (broadcastable to them) is each path's row
    of a ``(rows, slots)`` link-load buffer laid out by
    :func:`link_layout`.  Without ``rows`` only the distances are computed.

    Dimension-ordered routing corrects host dimension ``j`` while dimensions
    ``< j`` already sit at the target coordinates and dimensions ``> j``
    still sit at the source coordinates, so each path loads a contiguous
    run of dimension-``j`` host edges along the axis line of ``high_j[target]
    + low_j[source]``, between the coordinates ``c_j[source]`` and
    ``c_j[target]`` -- all gathered from memoized tables, with no division.
    On a ring longer than 2 the run goes the shorter way round, ties
    forward, and a run past coordinate ``l - 1`` continues from coordinate
    0: that wrap pair is a second run on the same line, of length 0 when
    the run does not wrap.  The run's length is the dimension's share of
    the distance (Lemmas 5 and 6).
    """
    shape = tuple(shape)
    coords = shape_tables(shape).coords
    distance = np.zeros(np.shape(source), dtype=np.int64)
    if rows is None:
        opens = closes = None
    else:
        layout = link_layout(shape, torus)
        base = np.asarray(rows, dtype=np.int64) * layout.slots
        opens, closes = [], []
    for j, length in enumerate(shape):
        a = coords[j][source]
        b = coords[j][target]
        ring = torus and length > 2
        if ring:
            # The shorter way round, ties forward: the run leaves a for
            # (b - a) mod l steps unless the way back from a is shorter,
            # when it starts at b.  Products with the comparisons pick;
            # masked copies (``where=``) are several times slower.
            step = b - a
            forward = (step < 0) * length
            forward += step
            back = length - forward
            run = np.minimum(forward, back)
            step *= forward > back
            a += step  # the run's start
            distance += run
            end = run
            end += a
        else:
            end = np.maximum(a, b)
            np.minimum(a, b, out=a)
            distance += end
            distance -= a
        if rows is None:
            continue
        line = layout.high[j][target]
        line += layout.low[j][source]
        line += base
        if ring:
            past = end - length  # how far the run reaches past l
            np.maximum(past, 0, out=past)
            past += line
            np.minimum(end, length, out=end)
        a += line
        end += line
        opens.append(a)
        closes.append(end)
        if ring:
            opens.append(line)
            closes.append(past)
    return RouteRuns(distance, opens, closes)


def run_loads(opens, closes, slots: int):
    """The flat ``(slots,)`` link loads of runs from ``opens`` to ``closes``.

    ``np.bincount`` of the opening slots minus that of the closing slots,
    summed cumulatively.  Every run opens and closes on its own line, so
    the sum restarts at zero on each line and one pass over the flat buffer
    loads every host edge.  A closing slot listed among ``opens`` and an
    opening slot among ``closes`` remove a run instead.
    """
    opened = np.concatenate([run.ravel() for run in opens])
    closed = np.concatenate([run.ravel() for run in closes])
    delta = np.bincount(opened, minlength=slots)
    delta -= np.bincount(closed, minlength=slots)
    np.cumsum(delta, out=delta)
    return delta


def stacked_route_costs(
    images, edge_u, edge_v, shape: Sequence[int], *, torus: bool, with_loads: bool
):
    """Per-edge distances and per-link loads of stacked embeddings.

    ``images`` is a ``(batch, n)`` matrix of host-index rows (one embedding
    per row; a single ``(n,)`` row is promoted to a batch of one) and
    ``edge_u`` / ``edge_v`` are the shared guest edge-endpoint rank arrays.
    Returns the ``(batch, E)`` ``int64`` host distances of every guest edge
    and, when ``with_loads``, the ``(batch, slots)`` ``int64`` loads that
    dimension-ordered routing puts on every host edge (laid out by
    :func:`link_layout`; ``None`` otherwise).  One :func:`route_runs` call
    over all rows, so the cost is O(batch * (E + n)) per dimension with no
    per-row Python, and all arithmetic is integral: one stacked pass is
    exactly the per-embedding computation row for row.
    """
    images = np.asarray(images)
    if images.ndim == 1:
        images = images[None, :]
    if images.ndim != 2:
        raise ValueError(f"images must be a (batch, n) matrix, got shape {images.shape}")
    shape = tuple(shape)
    batch = images.shape[0]
    # (batch, E) path source/target ranks, int64 since gathers index faster
    # with them; np.take keeps them C-ordered (``images[:, edge_u]`` is
    # Fortran-ordered, and ravel would copy it).
    images = images.astype(np.int64, copy=False)
    source = np.take(images, np.asarray(edge_u, dtype=np.int64), axis=1)
    target = np.take(images, np.asarray(edge_v, dtype=np.int64), axis=1)
    rows = np.arange(batch, dtype=np.int64)[:, None] if with_loads else None
    runs = route_runs(source, target, shape, torus=torus, rows=rows)
    if not with_loads:
        return runs.distance, None
    slots = link_layout(shape, torus).slots
    loads = run_loads(runs.opens, runs.closes, batch * slots)
    return runs.distance, loads.reshape(batch, slots)


def stacked_edge_congestion(
    images, edge_u, edge_v, shape: Sequence[int], *, torus: bool
):
    """Edge congestion of dimension-ordered routing, over stacked embeddings.

    The ``(batch,)`` ``int64`` array of per-row maxima of the per-host-edge
    loads of :func:`stacked_route_costs` (same arguments).
    """
    _, loads = stacked_route_costs(
        images, edge_u, edge_v, shape, torus=torus, with_loads=True
    )
    return loads.max(axis=1)
