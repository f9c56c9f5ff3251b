"""The δm and δt distance measures on radix-L numbers (Lemmas 5 and 6).

Viewing the radix-L numbers as the nodes of an ``(l_1, ..., l_d)``-mesh or
torus gives two distance measures between tuples ``A`` and ``B``:

* mesh distance (Lemma 6): ``δm(A, B) = Σ_k |a_k - b_k|``;
* torus distance (Lemma 5):
  ``δt(A, B) = Σ_k min(|a_k - b_k|, l_k - |a_k - b_k|)``.

``δm(A, B) >= δt(A, B)`` always holds, a fact the paper uses repeatedly
(e.g. Lemma 12 follows from Lemma 11).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .arrays import shape_tables

__all__ = [
    "mesh_distance",
    "torus_distance",
    "chebyshev_mesh_distance",
    "graph_distance_indices",
]


def mesh_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """δm — the Manhattan distance between two nodes of a mesh (Lemma 6)."""
    if len(a) != len(b):
        raise ValueError("nodes must have the same dimension")
    return sum(abs(x - y) for x, y in zip(a, b))


def torus_distance(a: Sequence[int], b: Sequence[int], shape: Sequence[int]) -> int:
    """δt — the distance between two nodes of an ``(l_1, ..., l_d)``-torus (Lemma 5).

    Parameters
    ----------
    a, b:
        Node coordinate tuples.
    shape:
        The torus shape ``(l_1, ..., l_d)`` providing the wrap-around lengths.
    """
    if not (len(a) == len(b) == len(shape)):
        raise ValueError("nodes and shape must have the same dimension")
    total = 0
    for x, y, length in zip(a, b, shape):
        diff = abs(x - y)
        total += min(diff, length - diff)
    return total


def graph_distance_indices(a_indices, b_indices, shape: Sequence[int], *, torus: bool):
    """Distances between flat-index batches of nodes of an ``shape``-mesh/torus.

    The array-backed analogue of :meth:`repro.graphs.base.CartesianGraph.
    distance`: both arguments are same-shape integer arrays of natural-order
    node ranks; the result is the ``int64`` array of δt (``torus=True``) or
    δm distances.  Each dimension ``j`` adds ``|c_j[a] - c_j[b]|`` (on a
    torus, ``min(δ, l_j - δ)``), gathering the coordinates from the shape's
    memoized columns (:func:`repro.numbering.arrays.shape_tables`) — no
    division and no ``(n, d)`` digit temporaries.
    """
    a_indices = np.asarray(a_indices)
    b_indices = np.asarray(b_indices)
    if a_indices.shape != b_indices.shape:
        raise ValueError("index arrays must have the same shape")
    shape = tuple(shape)
    total = np.zeros(a_indices.shape, dtype=np.int64)
    step = np.empty_like(total)
    for coords, length in zip(shape_tables(shape).coords, shape):
        np.subtract(coords[a_indices], coords[b_indices], out=step)
        np.abs(step, out=step)
        if torus:
            np.minimum(step, length - step, out=step)
        total += step
    return total


def chebyshev_mesh_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Maximum per-dimension coordinate difference.

    Not used by the paper's proofs but handy for diagnostics: a dilation-1
    mesh embedding keeps both the Manhattan and the Chebyshev distance of
    adjacent guest nodes at 1.
    """
    if len(a) != len(b):
        raise ValueError("nodes must have the same dimension")
    return max(abs(x - y) for x, y in zip(a, b))
