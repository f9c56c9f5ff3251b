"""Batch construction kernels — the paper's sequences over whole node sets.

The scalar functions of :mod:`repro.core.basic` (``t_n``, ``f_L``, ``g_L``,
``r_L``, ``h_L``) evaluate one node at a time; building a survey-scale
embedding that way costs one Python call per guest node.  Every one of those
definitions is plain arithmetic on digit vectors (Definitions 7–9, 14–15, 20,
22 of the paper), so this module provides them over flat NumPy ``int64``
index arrays — the construction-side counterpart of the cost-side kernels in
:mod:`repro.numbering.arrays`:

* :func:`t_indices` — ``t_n`` over an index array (Definition 14);
* :func:`f_digits` / :func:`g_digits` / :func:`r_digits` / :func:`h_digits` —
  the embedding sequences as ``(n, d)`` digit matrices;
* :func:`sequence_table` — one sequence's digit table over ``0..n-1``,
  memoized per ``(sequence, component)``;
* :func:`separable_ranks` — host ranks as one outer sum of per-dimension
  terms;
* :func:`placed_weights` / :func:`coordinate_ranks` — the weights a
  coordinate permutation assigns, and the ranks of a map that relabels each
  coordinate alone (permutations, ``T_L``, ``U_V``).

Every leaf construction of the paper — ``T_L`` (Definition 35),
``F_V``/``G_V``/``H_V`` (Definition 31), ``U_V`` (Definition 38),
``F'_S``/``G'_S``/``G''_S`` (Definition 42) — sends each guest coordinate
alone through a sequence into a block of host digits, so a node's host rank
is a sum of one term per guest dimension, and a coordinate permutation only
reorders a few weights instead of gathering columns over the node rows.

Each kernel is cross-checked element-for-element against its scalar
counterpart (``tests/test_numbering_batch.py``), and every construction's
:func:`separable_ranks` against its per-node ``image``
(``tests/test_construction_differential.py``); the scalar loops remain the
reference implementation.  All kernels assume their index arguments are in
range (the callers iterate ``0..n-1``); only shapes are validated.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple

import numpy as np

from ..utils.listops import product
from .arrays import _SHAPE_MEMO_SIZE, digit_weights, indices_to_digits

__all__ = [
    "t_indices",
    "f_digits",
    "g_digits",
    "r_digits",
    "h_digits",
    "sequence_table",
    "placed_weights",
    "coordinate_ranks",
    "separable_ranks",
]


def t_indices(n: int, indices):
    """Vectorized ``t_n`` (Definition 14) over an array of values in ``[n]``.

    ``t_n(x) = 2x`` for ``x`` in the first (rounded-up) half and
    ``2(n - x) - 1`` afterwards; the threshold ``⌊(n-1)/2⌋`` covers both the
    even and the odd case of the scalar definition.
    """
    if n < 1:
        raise ValueError("n must be positive")
    x = np.asarray(indices, dtype=np.int64)
    return np.where(x <= (n - 1) // 2, 2 * x, 2 * (n - x) - 1)


def f_digits(shape: Sequence[int], indices):
    """Vectorized ``f_L`` (Definition 9) as an ``(n, d)`` digit matrix.

    Per digit ``j`` (1-based): with ``x̂_j`` the natural radix-L digit, the
    reflected digit is ``x̂_j`` when the segment number ``⌊x / w_{j-1}⌋`` is
    even and ``l_j - x̂_j - 1`` when it is odd — the whole-column form of
    :func:`repro.numbering.graycode.reflected_digit`.
    """
    shape = tuple(shape)
    x = np.asarray(indices, dtype=np.int64)
    radices = np.asarray(shape, dtype=np.int64)
    weights = digit_weights(shape)  # w_1 .. w_d
    previous = np.concatenate(([product(shape)], weights[:-1]))  # w_0 .. w_{d-1}
    natural = (x[..., None] // weights) % radices
    segment = x[..., None] // previous
    return np.where(segment % 2 == 0, natural, radices - 1 - natural)


def g_digits(shape: Sequence[int], indices):
    """Vectorized ``g_L = f_L ∘ t_n`` (Definition 15) as a digit matrix."""
    return f_digits(shape, t_indices(product(tuple(shape)), indices))


def r_digits(shape: Sequence[int], indices):
    """Vectorized ``r_L`` (Definition 20) for a 2-dimensional base ``(l_1, l_2)``.

    First ``l_1`` elements walk down the first column; the rest snake through
    the remaining ``(l_1, l_2 - 1)`` sub-mesh with ``f`` (single remaining
    column filled bottom-to-top when ``l_2 = 2``).
    """
    shape = tuple(shape)
    if len(shape) != 2:
        raise ValueError("r_L is only defined for 2-dimensional radix-bases")
    l1, l2 = shape
    x = np.asarray(indices, dtype=np.int64)
    head = x < l1
    if l2 > 2:
        # Clip the sub-mesh argument for head rows; their values are discarded.
        inner = f_digits((l1, l2 - 1), np.maximum(x - l1, 0))
        first = np.where(head, l1 - 1 - x, inner[..., 0])
        second = np.where(head, 0, inner[..., 1] + 1)
    else:
        first = np.where(head, l1 - 1 - x, x - l1)
        second = np.where(head, 0, 1)
    return np.stack([first, second], axis=-1)


def h_digits(shape: Sequence[int], indices):
    """Vectorized ``h_L`` (Definition 22) as an ``(n, d)`` digit matrix.

    ``d = 1`` is the identity and ``d = 2`` is ``r_L``; for ``d ≥ 3`` the
    forward pass fills ``l_1 l_2 - 1`` nodes of each ``(l_1, l_2)``-plane
    (alternating direction between planes ordered by ``f`` over the tail
    base) and the backward pass fills the remaining node of each plane.
    """
    shape = tuple(shape)
    x = np.asarray(indices, dtype=np.int64)
    d = len(shape)
    if d == 1:
        return x[..., None].copy()
    if d == 2:
        return r_digits(shape, x)
    l1, l2 = shape[0], shape[1]
    tail = shape[2:]
    m = product(tail)
    n = m * l1 * l2
    plane_fill = l1 * l2 - 1
    a = x // plane_fill
    b = x % plane_fill
    forward = x < m * plane_fill
    plane_arg = np.where(
        forward, np.where(a % 2 == 0, b, l1 * l2 - b - 2), plane_fill
    )
    tail_arg = np.where(forward, a, n - x - 1)
    return np.concatenate(
        [r_digits((l1, l2), plane_arg), f_digits(tail, tail_arg)], axis=-1
    )


#: The sequences a construction sends one guest coordinate through, as
#: ``(component, indices) -> (n, len(component))`` digit kernels.
#: ``"natural"`` is ``u_L`` (the coordinate's own digits) and ``"t"`` takes
#: a one-length component ``(l,)`` to the column ``t_l``.
_SEQUENCES = {
    "natural": lambda component, x: indices_to_digits(x, component),
    "t": lambda component, x: t_indices(product(component), x)[:, None],
    "f": f_digits,
    "g": g_digits,
    "h": h_digits,
}


@functools.lru_cache(maxsize=_SHAPE_MEMO_SIZE)
def sequence_table(sequence: str, component: Tuple[int, ...]):
    """The ``(n, len(component))`` digit table of ``sequence`` (a key of
    ``_SEQUENCES``) over ``x = 0..n-1``, ``n = Π component``.  Memoized per
    ``(sequence, component)`` and read-only: constructions share it."""
    indices = np.arange(product(component), dtype=np.int64)
    table = _SEQUENCES[sequence](component, indices)
    table.setflags(write=False)
    return table


def placed_weights(weights, permutation: Optional[Sequence[int]] = None):
    """Per-position ``weights`` after ``permutation``, indexed before it:
    position ``π[m]`` gets ``weights[m]`` (the
    :func:`~repro.utils.listops.apply_permutation` convention)."""
    if permutation is None:
        return weights
    placed = np.empty_like(weights)
    placed[list(permutation)] = weights
    return placed


def coordinate_ranks(sequence: str, shape: Sequence[int], weights, permutation=None):
    """Host ranks of a map that relabels every coordinate of ``shape`` by the
    one-digit ``sequence`` (``"natural"`` or ``"t"``) and weighs coordinate
    ``permutation[m]`` by ``weights[m]``: one term per coordinate."""
    placed = placed_weights(weights, permutation)
    terms = [
        (sequence, (length,), placed[k : k + 1]) for k, length in enumerate(shape)
    ]
    return separable_ranks(terms)


def separable_ranks(terms: Sequence[Tuple[str, Tuple[int, ...], np.ndarray]]):
    """Host ranks of a separable construction, one term per guest dimension.

    ``terms[k] = (sequence, component, weights)``: guest coordinate ``k``
    goes through ``sequence`` over ``component`` and its digits land on
    host positions of the given ``weights``, so it contributes ``C_k =
    sequence_table(sequence, component) @ weights``.  Guest node ``(i_1,
    ..., i_d)`` has host rank ``C_1[i_1] + ... + C_d[i_d]``: the C-order
    outer sum of the ``C_k``, raveled, so the first guest digit is the most
    significant (as in :func:`~repro.numbering.arrays.indices_to_digits`).
    """
    ranks = None
    for sequence, component, weights in terms:
        term = sequence_table(sequence, component) @ weights
        ranks = term if ranks is None else np.add.outer(ranks, term).ravel()
    return ranks
