"""Batch construction kernels — the paper's sequences over whole node sets.

The scalar functions of :mod:`repro.core.basic` (``t_n``, ``f_L``, ``g_L``,
``r_L``, ``h_L``) and the mixed-radix collapse ``U_V`` evaluate one node at a
time; building a survey-scale embedding that way costs one Python call per
guest node.  Every one of those definitions is plain arithmetic on digit
vectors (Definitions 7–9, 14–15, 20, 22, 38 of the paper), so this module
provides them over flat NumPy ``int64`` index arrays — the construction-side
counterpart of the cost-side kernels in :mod:`repro.numbering.arrays`:

* :func:`t_indices` — ``t_n`` over an index array (Definition 14);
* :func:`t_columns` — ``T_L``: ``t_{l_j}`` applied to every column of an
  ``(n, d)`` digit matrix (Definition 35);
* :func:`f_digits` / :func:`g_digits` / :func:`r_digits` / :func:`h_digits` —
  the embedding sequences as ``(n, d)`` digit matrices;
* :func:`f_flat` / :func:`g_flat` / :func:`h_flat` — the same sequences as
  flat natural-order ranks (``u_L^{-1}`` of the digit rows);
* :func:`group_collapse` — ``U_V``: collapse consecutive column groups of a
  digit matrix by mixed-radix evaluation (Definition 38).

Each kernel is cross-checked element-for-element against its scalar
counterpart by the differential test harness
(``tests/test_construction_differential.py``); the scalar loops remain the
reference implementation.  All kernels assume their index arguments are in
range (the callers iterate ``0..n-1``); only shapes are validated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..utils.listops import product
from .arrays import digit_weights, digits_to_indices

__all__ = [
    "t_indices",
    "t_columns",
    "f_digits",
    "f_flat",
    "g_digits",
    "g_flat",
    "r_digits",
    "h_digits",
    "h_flat",
    "group_collapse",
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


def t_columns(shape: Sequence[int], digits):
    """``T_L`` (Definition 35): apply ``t_{l_j}`` to column ``j`` of a digit matrix."""
    shape = tuple(shape)
    digits = np.asarray(digits, dtype=np.int64)
    if digits.ndim != 2 or digits.shape[1] != len(shape):
        raise ValueError(
            f"digit matrix of shape {digits.shape} does not match radix-base {shape}"
        )
    out = np.empty_like(digits)
    for j, length in enumerate(shape):
        out[:, j] = t_indices(length, digits[:, j])
    return out


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


def f_flat(shape: Sequence[int], indices):
    """``f_L`` as flat natural-order ranks: ``u_L^{-1}(f_L(x))`` per element."""
    return digits_to_indices(f_digits(shape, indices), shape)


def g_digits(shape: Sequence[int], indices):
    """Vectorized ``g_L = f_L ∘ t_n`` (Definition 15) as a digit matrix."""
    return f_digits(shape, t_indices(product(tuple(shape)), indices))


def g_flat(shape: Sequence[int], indices):
    """``g_L`` as flat natural-order ranks."""
    return digits_to_indices(g_digits(shape, indices), shape)


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


def h_flat(shape: Sequence[int], indices):
    """``h_L`` as flat natural-order ranks."""
    return digits_to_indices(h_digits(shape, indices), shape)


def group_collapse(digits, groups: Sequence[Sequence[int]]):
    """Vectorized ``U_V`` (Definition 38): collapse column groups of a digit matrix.

    ``groups`` partitions the columns left to right; output column ``k`` is
    ``u_{V_k}^{-1}`` of group ``k``'s columns, i.e. the mixed-radix value of
    that group's digit block.  The result is an ``(n, len(groups))`` matrix of
    digits for the reduced base ``(Π V_1, ..., Π V_c)``.
    """
    digits = np.asarray(digits, dtype=np.int64)
    groups = tuple(tuple(group) for group in groups)
    expected = sum(len(group) for group in groups)
    if digits.ndim != 2 or digits.shape[1] != expected:
        raise ValueError(
            f"digit matrix has {digits.shape[-1] if digits.ndim else 0} columns "
            f"but the groups cover {expected}"
        )
    columns = []
    position = 0
    for group in groups:
        block = digits[:, position : position + len(group)]
        columns.append(block @ digit_weights(group))
        position += len(group)
    return np.stack(columns, axis=1)
