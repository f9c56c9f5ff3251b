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

__all__ = [
    "mesh_distance",
    "torus_distance",
    "chebyshev_mesh_distance",
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


def chebyshev_mesh_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Maximum per-dimension coordinate difference.

    Not used by the paper's proofs but handy for diagnostics: a dilation-1
    mesh embedding keeps both the Manhattan and the Chebyshev distance of
    adjacent guest nodes at 1.
    """
    if len(a) != len(b):
        raise ValueError("nodes must have the same dimension")
    return max(abs(x - y) for x, y in zip(a, b))
