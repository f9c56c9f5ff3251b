"""Embeddings between a torus and a mesh of the same shape (Lemma 36).

Given two graphs of the same shape ``L = (l_1, ..., l_d)``:

* if the guest is a mesh, or both graphs are toruses, or both are
  hypercubes, the identity map is an embedding with dilation 1;
* if the guest is a torus and the host is a mesh (and they are not
  hypercubes) the identity fails (wrap-around edges stretch across the whole
  mesh); the paper's ``T_L`` — applying ``t_{l_i}`` to every coordinate —
  achieves the optimal dilation 2.

``T_L`` works because ``t_l`` (Definition 14) is a cyclic sequence of
``0..l-1`` with spread 2: torus neighbours in any dimension differ by 1
modulo ``l``, so their ``t``-relabelled coordinates differ by at most 2.

Both constructions are written once (:class:`~repro.core.embedding.Construction`):
the array backend sums one term per coordinate — ``t_{l_j}`` times the
host digit weight of dimension ``j`` — with
:func:`repro.numbering.batch.coordinate_ranks`, the loop backend is the
retained per-node reference.  :func:`t_construction` also serves shapes that
are permutations of each other (``π ∘ T_L``), where the permutation only
reorders the weights.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..exceptions import ShapeMismatchError
from ..graphs.base import CartesianGraph
from ..numbering.arrays import digit_weights
from ..numbering.batch import coordinate_ranks
from ..types import Node
from ..utils.listops import apply_permutation
from .basic import t_value
from .embedding import Construction, Embedding, identity_construction

__all__ = [
    "t_vector_value",
    "t_construction",
    "same_shape_construction",
    "same_shape_embedding",
    "torus_in_mesh_same_shape",
]


def t_vector_value(shape: Sequence[int], node: Sequence[int]) -> Node:
    """``T_L((x_1, ..., x_d)) = (t_{l_1}(x_1), ..., t_{l_d}(x_d))`` (Definition 35)."""
    if len(shape) != len(node):
        raise ValueError("shape and node must have the same dimension")
    return tuple(t_value(length, coordinate) for length, coordinate in zip(shape, node))


def t_construction(
    guest: CartesianGraph,
    host: CartesianGraph,
    permutation: Optional[Tuple[int, ...]] = None,
) -> Construction:
    """``T_L`` (dilation 2), followed by ``permutation`` of the coordinates
    when the host shape is a permutation of the guest shape."""
    shape = guest.shape
    strategy = "same-shape:T_L"
    notes = {"dilation_is_upper_bound": min(shape) <= 2}
    if permutation is not None:
        strategy = "permute-dimensions∘T_L"
        notes = {"permutation": permutation, **notes}

    def image(node):
        relabelled = t_vector_value(shape, node)
        if permutation is None:
            return relabelled
        return apply_permutation(permutation, relabelled)

    return Construction(
        strategy,
        2,
        notes,
        image,
        lambda: coordinate_ranks("t", shape, digit_weights(host.shape), permutation),
    )


def same_shape_construction(
    guest: CartesianGraph, host: CartesianGraph
) -> Construction:
    """Lemma 36: ``T_L`` for a non-hypercube torus guest in a mesh host,
    otherwise the identity."""
    if guest.is_torus and host.is_mesh and not guest.is_hypercube:
        return t_construction(guest, host)
    return identity_construction(guest)


def _require_equal_shapes(guest: CartesianGraph, host: CartesianGraph) -> None:
    if guest.shape != host.shape:
        raise ShapeMismatchError(
            f"same-shape embedding requires equal shapes, got {guest.shape} and {host.shape}"
        )


def torus_in_mesh_same_shape(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """The ``T_L`` embedding of an ``L``-torus in an ``L``-mesh (dilation 2)."""
    _require_equal_shapes(guest, host)
    return t_construction(guest, host).build(guest, host)


def same_shape_embedding(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """The optimal same-shape embedding of Lemma 36.

    Identity (dilation 1) except for a non-hypercube torus guest in a mesh
    host, which uses ``T_L`` (dilation 2).
    """
    _require_equal_shapes(guest, host)
    return same_shape_construction(guest, host).build(guest, host)
