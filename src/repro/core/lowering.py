"""Generalized embeddings for lowering dimension (Section 4.2, Theorems 39 and 43).

Two constructions, matching the two reduction conditions:

**Simple reduction** (Section 4.2.1): with reduction factor
``V = (V_1, ..., V_c)`` the guest coordinates are permuted into the group
order ``V̄`` and every group is collapsed into a single host coordinate by
mixed-radix evaluation (``U_V``, Definition 38).  Dilation
``max_i m_i / l_{v_i}`` where ``l_{v_i}`` is the first (largest) component of
``V_i``; doubled (and only an upper bound) for a torus guest in a mesh host,
which first applies the same-shape ``T`` relabelling (Theorem 39).

**General reduction** (Section 4.2.2): the guest is viewed as an ``L'``-graph
of supernodes, each an ``L''``-graph; the host as an ``L'``-graph of
supernodes, each an ``S̄``-mesh.  Supernodes map by identity (or by ``T`` in
the torus -> mesh case) and supernode contents by the increasing-dimension
functions ``F_S`` / ``G_S``.  The resulting functions ``F'_S``, ``G'_S``,
``G''_S`` (Definition 42) give dilation ``max(s̄)``, or at most ``2·max(s̄)``
for a torus guest in a mesh host (Theorem 43).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from ..exceptions import NoReductionError, ShapeMismatchError
from ..graphs.base import CartesianGraph
from ..numbering.arrays import digit_weights
from ..numbering.batch import coordinate_ranks, placed_weights, separable_ranks
from ..numbering.radix import RadixBase
from ..types import Node
from ..utils.listops import apply_permutation, find_permutation
from .basic import t_value
from .embedding import Construction, Embedding
from .expansion import ExpansionFactor
from .increasing import F_value, G_value
from .reduction import (
    GeneralReductionFactor,
    SimpleReductionFactor,
    find_general_reduction,
    find_simple_reduction,
)
from .same_shape import t_vector_value

__all__ = [
    "U_value",
    "F_prime_value",
    "G_prime_value",
    "G_double_prime_value",
    "simple_lowering_construction",
    "general_lowering_construction",
    "embed_lowering_simple",
    "embed_lowering_general",
    "embed_lowering",
]


# --------------------------------------------------------------------------- #
# Simple reduction: U_V (Definition 38) and the Theorem 39 embedding
# --------------------------------------------------------------------------- #
def U_value(factor: SimpleReductionFactor, node: Sequence[int]) -> Node:
    """``U_V`` — collapse consecutive coordinate groups by mixed-radix evaluation.

    ``node`` must be a node of the ``V̄``-graph (coordinates already permuted
    into group order); the result has one coordinate per group, namely
    ``u_{V_k}^{-1}`` of that group's sub-tuple.
    """
    node = tuple(node)
    expected = sum(len(group) for group in factor.groups)
    if len(node) != expected:
        raise ValueError(
            f"node has {len(node)} coordinates but the reduction factor expects {expected}"
        )
    result = []
    position = 0
    for group in factor.groups:
        block = node[position : position + len(group)]
        result.append(RadixBase(group).from_digits(block))
        position += len(group)
    return tuple(result)


def simple_lowering_construction(
    guest: CartesianGraph,
    host: CartesianGraph,
    factor: Optional[SimpleReductionFactor] = None,
) -> Construction:
    """Theorem 39: ``U_V ∘ [T] ∘ τ`` under the simple-reduction condition.

    Parameters
    ----------
    factor:
        A specific reduction factor (e.g. with a deliberately bad component
        ordering, for the ablation benchmark).  When omitted, a factor is
        searched for and sorted non-increasingly, which is the ordering the
        theorem assumes and the one minimizing the dilation.

    The array path sums one term per guest coordinate
    (:func:`~repro.numbering.batch.coordinate_ranks`): its natural or ``t``
    column times its ``U_V`` group weight and its host digit weight, so
    ``τ`` only decides which weight a coordinate gets; the per-node map is
    the loop backend's reference.
    """
    if guest.size != host.size:
        raise ShapeMismatchError(
            f"guest has {guest.size} nodes but host has {host.size}"
        )
    if guest.dimension <= host.dimension:
        raise NoReductionError(
            "lowering-dimension embedding requires dim(guest) > dim(host)"
        )
    if factor is None:
        factor = find_simple_reduction(guest.shape, host.shape)
        if factor is None:
            raise NoReductionError(
                f"shape {host.shape} is not a simple reduction of shape {guest.shape}"
            )
    else:
        if not factor.reduces(guest.shape, host.shape):
            raise NoReductionError(
                f"the supplied factor {factor.groups} does not reduce {guest.shape} "
                f"into {host.shape}"
            )

    flattened = factor.flattened
    tau = find_permutation(guest.shape, flattened)
    if tau is None:  # pragma: no cover - factor validity guarantees this
        raise NoReductionError("internal error: factor is not a rearrangement of the guest shape")

    base_dilation = factor.dilation()
    torus_into_mesh = guest.is_torus and host.is_mesh and not guest.is_hypercube

    if torus_into_mesh:
        def image(node: Node) -> Node:
            rearranged = apply_permutation(tau, node)
            relabelled = t_vector_value(flattened, rearranged)
            return U_value(factor, relabelled)

        predicted = 2 * base_dilation
        strategy = "lowering:U_V∘T∘τ"
        notes = {
            "reduction_factor": factor.groups,
            "permutation": tau,
            "dilation_is_upper_bound": True,
        }
    else:
        def image(node: Node) -> Node:
            return U_value(factor, apply_permutation(tau, node))

        predicted = base_dilation
        strategy = "lowering:U_V∘τ"
        notes = {"reduction_factor": factor.groups, "permutation": tau}

    def ranks():
        # U_V keeps mixed-radix ranks: the host rank of U_V(x) is the rank of
        # x in V̄, so position p of V̄ (guest coordinate τ[p]) weighs its own
        # digit weight in V̄ — its U_V group weight times its host weight.
        sequence = "t" if torus_into_mesh else "natural"
        return coordinate_ranks(sequence, guest.shape, digit_weights(flattened), tau)

    return Construction(strategy, predicted, notes, image, ranks)


def embed_lowering_simple(
    guest: CartesianGraph,
    host: CartesianGraph,
    factor: Optional[SimpleReductionFactor] = None,
) -> Embedding:
    """Theorem 39: :func:`simple_lowering_construction` (same arguments and
    errors), built under the ambient backend."""
    return simple_lowering_construction(guest, host, factor).build(guest, host)


# --------------------------------------------------------------------------- #
# General reduction: F'_S, G'_S, G''_S (Definition 42) and the Theorem 43 embedding
# --------------------------------------------------------------------------- #
def _split(factor: GeneralReductionFactor, node: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    node = tuple(node)
    if len(node) != factor.d:
        raise ValueError(
            f"node has {len(node)} coordinates but the reduction expects {factor.d}"
        )
    return node[: factor.c], node[factor.c :]


def F_prime_value(factor: GeneralReductionFactor, node: Sequence[int]) -> Node:
    """``F'_S`` of Definition 42 (mesh guest)."""
    prefix, suffix = _split(factor, node)
    s = factor.s_flat
    offset = F_value(ExpansionFactor(factor.s_groups), suffix)
    multiplied = tuple(s[j] * prefix[j] + offset[j] for j in range(len(s)))
    return multiplied + prefix[len(s):]


def G_prime_value(factor: GeneralReductionFactor, node: Sequence[int]) -> Node:
    """``G'_S`` of Definition 42 (torus guest, torus host)."""
    prefix, suffix = _split(factor, node)
    s = factor.s_flat
    offset = G_value(ExpansionFactor(factor.s_groups), suffix)
    multiplied = tuple(s[j] * prefix[j] + offset[j] for j in range(len(s)))
    return multiplied + prefix[len(s):]


def G_double_prime_value(factor: GeneralReductionFactor, node: Sequence[int]) -> Node:
    """``G''_S`` of Definition 42 (torus guest, mesh host).

    The supernode coordinates go through the ``t`` relabelling (Lemma 36's
    same-shape trick applied at the supernode level) before being scaled.
    """
    prefix, suffix = _split(factor, node)
    s = factor.s_flat
    lengths = factor.multiplicant
    offset = G_value(ExpansionFactor(factor.s_groups), suffix)
    multiplied = tuple(
        s[j] * t_value(lengths[j], prefix[j]) + offset[j] for j in range(len(s))
    )
    tail = tuple(t_value(lengths[j], prefix[j]) for j in range(len(s), factor.c))
    return multiplied + tail


def general_lowering_construction(
    guest: CartesianGraph,
    host: CartesianGraph,
    factor: Optional[GeneralReductionFactor] = None,
) -> Construction:
    """Theorem 43: ``β ∘ {F',G',G''}_S ∘ α`` under the general-reduction
    condition (c < d < 2c)."""
    if guest.size != host.size:
        raise ShapeMismatchError(
            f"guest has {guest.size} nodes but host has {host.size}"
        )
    d, c = guest.dimension, host.dimension
    if not (c < d < 2 * c):
        raise NoReductionError(
            f"general reduction requires c < d < 2c, got d={d}, c={c}"
        )
    if factor is None:
        factor = find_general_reduction(guest.shape, host.shape)
        if factor is None:
            raise NoReductionError(
                f"shape {host.shape} is not a general reduction of shape {guest.shape}"
            )
    else:
        if not factor.reduces(guest.shape, host.shape):
            raise NoReductionError(
                "the supplied general-reduction decomposition does not match the shapes"
            )

    alpha = find_permutation(guest.shape, factor.rearranged_source)
    beta = find_permutation(factor.host_arrangement, host.shape)
    if alpha is None or beta is None:  # pragma: no cover - factor validity guarantees this
        raise NoReductionError("internal error: invalid general-reduction decomposition")

    guest_is_effectively_mesh = guest.is_mesh or guest.is_hypercube
    # The sequences of the supernode coordinates (t for G''_S) and of the
    # supernode contents.
    supernode_sequence = "natural"
    if guest_is_effectively_mesh:
        value_fn: Callable[[GeneralReductionFactor, Sequence[int]], Node] = F_prime_value
        offset_sequence = "f"
        strategy = "lowering:β∘F'_S∘α"
        predicted = factor.dilation()
        upper_bound = False
    elif host.is_torus:
        value_fn = G_prime_value
        offset_sequence = "g"
        strategy = "lowering:β∘G'_S∘α"
        predicted = factor.dilation()
        upper_bound = False
    else:
        value_fn = G_double_prime_value
        offset_sequence = "g"
        supernode_sequence = "t"
        strategy = "lowering:β∘G''_S∘α"
        predicted = 2 * factor.dilation()
        upper_bound = True

    notes = {
        "multiplicant": factor.multiplicant,
        "multiplier": factor.multiplier,
        "s_groups": factor.s_groups,
        "alpha": alpha,
        "beta": beta,
    }
    if upper_bound:
        notes["dilation_is_upper_bound"] = True

    def ranks():
        # Host position j before β holds s_j·x'_j + offset_j for j < b and
        # x'_j after, where x' = α(node)[:c] are the supernode coordinates
        # and S_i's digits of the contents make up the offsets.
        weights = placed_weights(digit_weights(host.shape), beta)
        s = factor.s_flat
        terms = [None] * factor.d
        for j, length in enumerate(factor.multiplicant):
            scale = s[j] if j < factor.b else 1
            weight = scale * weights[j : j + 1]
            terms[alpha[j]] = (supernode_sequence, (length,), weight)
        start = 0
        for i, group in enumerate(factor.s_groups):
            stop = start + len(group)
            terms[alpha[factor.c + i]] = (offset_sequence, group, weights[start:stop])
            start = stop
        return separable_ranks(terms)

    return Construction(
        strategy,
        predicted,
        notes,
        lambda node: apply_permutation(beta, value_fn(factor, apply_permutation(alpha, node))),
        ranks,
    )


def embed_lowering_general(
    guest: CartesianGraph,
    host: CartesianGraph,
    factor: Optional[GeneralReductionFactor] = None,
) -> Embedding:
    """Theorem 43: :func:`general_lowering_construction` (same arguments and
    errors), built under the ambient backend."""
    return general_lowering_construction(guest, host, factor).build(guest, host)


def embed_lowering(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """Embed with whichever reduction condition the shapes satisfy.

    Simple reduction is preferred when both apply (it is never worse here and
    is the construction Theorem 48 relies on); general reduction is used
    otherwise.  Raises :class:`NoReductionError` when neither applies — for
    square graphs :func:`repro.core.square.embed_square` handles the
    remaining cases via chains of intermediate graphs.
    """
    simple = find_simple_reduction(guest.shape, host.shape)
    if simple is not None:
        return embed_lowering_simple(guest, host, simple)
    general = find_general_reduction(guest.shape, host.shape)
    if general is not None:
        return embed_lowering_general(guest, host, general)
    raise NoReductionError(
        f"shape {host.shape} is neither a simple nor a general reduction of {guest.shape}"
    )
