"""Generalized embeddings for increasing dimension (Section 4.1, Theorem 32).

Given a guest ``G`` of shape ``L`` and a host ``H`` of shape ``M`` where
``M`` is an expansion of ``L`` with factor ``V = (V_1, ..., V_d)``, the paper
embeds ``G`` in ``H`` in two steps ``G -> H' -> H``:

* ``H'`` has shape ``V̄ = V_1 ∘ ... ∘ V_d`` and the same type as ``H``; each
  guest coordinate ``i_k`` is expanded into the sub-tuple ``φ_{V_k}(i_k)``
  where ``φ`` is ``f`` (guest mesh), ``h`` (guest torus, host torus, or the
  unit-dilation even-torus -> mesh case), or ``g`` (guest torus, host mesh,
  general case);
* ``H'`` is embedded in ``H`` by the coordinate permutation ``π`` with
  ``π(V̄) = M``.

Resulting dilation costs (Theorem 32): 1 when the guest is a mesh or both
graphs are toruses; 2 when the guest is a torus and the host is a mesh
(optimal for odd-size toruses); 1 for an even-size torus in a mesh when a
factor exists whose lists all have ≥ 2 components including an even one.

Theorem 33 / Corollary 34: when the host is a hypercube of the same
(power-of-two) size, an expansion factor always exists, so every such mesh or
torus embeds in the hypercube with dilation 1.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from ..exceptions import NoExpansionError, ShapeMismatchError
from ..graphs.base import CartesianGraph
from ..numbering.arrays import digit_weights
from ..numbering.batch import placed_weights, separable_ranks
from ..numbering.radix import RadixBase
from ..types import Node
from ..utils.listops import apply_permutation, concat, find_permutation
from .basic import f_value, g_value, h_value
from .embedding import Construction, Embedding
from .expansion import (
    ExpansionFactor,
    find_expansion_factor,
    find_unit_dilation_torus_factor,
)

__all__ = [
    "F_value",
    "G_value",
    "H_value",
    "predicted_increasing_dilation",
    "increasing_construction",
    "embed_increasing",
]


def _component_bases(factor: ExpansionFactor) -> Tuple[RadixBase, ...]:
    return tuple(RadixBase(v) for v in factor.lists)


def F_value(factor: ExpansionFactor, node: Sequence[int]) -> Node:
    """``F_V((i_1, ..., i_d)) = f_{V_1}(i_1) ∘ ... ∘ f_{V_d}(i_d)`` (Definition 31)."""
    bases = _component_bases(factor)
    if len(node) != len(bases):
        raise ValueError("node dimension does not match the expansion factor")
    return concat(*(f_value(base, coord) for base, coord in zip(bases, node)))


def G_value(factor: ExpansionFactor, node: Sequence[int]) -> Node:
    """``G_V((i_1, ..., i_d)) = g_{V_1}(i_1) ∘ ... ∘ g_{V_d}(i_d)`` (Definition 31)."""
    bases = _component_bases(factor)
    if len(node) != len(bases):
        raise ValueError("node dimension does not match the expansion factor")
    return concat(*(g_value(base, coord) for base, coord in zip(bases, node)))


def H_value(factor: ExpansionFactor, node: Sequence[int]) -> Node:
    """``H_V((i_1, ..., i_d)) = h_{V_1}(i_1) ∘ ... ∘ h_{V_d}(i_d)`` (Definition 31)."""
    bases = _component_bases(factor)
    if len(node) != len(bases):
        raise ValueError("node dimension does not match the expansion factor")
    return concat(*(h_value(base, coord) for base, coord in zip(bases, node)))


def predicted_increasing_dilation(
    guest: CartesianGraph, host: CartesianGraph, *, unit_torus_factor: bool = False
) -> int:
    """The dilation promised by Theorem 32 for an expansion-condition pair."""
    if guest.is_mesh or guest.is_hypercube:
        return 1
    if host.is_torus:
        return 1
    if unit_torus_factor:
        return 1
    return 2


def increasing_construction(
    guest: CartesianGraph,
    host: CartesianGraph,
    factor: Optional[ExpansionFactor] = None,
    *,
    prefer_unit_dilation: bool = True,
) -> Construction:
    """``π ∘ {F,G,H}_V``: ``guest`` in the higher-dimensional ``host`` under
    the expansion condition.

    Parameters
    ----------
    factor:
        A specific expansion factor to use.  When omitted one is searched
        for; if ``prefer_unit_dilation`` is set and the guest is an even-size
        torus targeting a mesh, the search first looks for a factor enabling
        the dilation-1 variant of Theorem 32(iii).
    prefer_unit_dilation:
        Controls the factor search as above.  Setting it to ``False``
        reproduces the "plain" dilation-2 construction, which the ablation
        benchmark compares against.

    The array path sums one term per guest dimension
    (:func:`~repro.numbering.batch.separable_ranks`): the memoized digit
    table of φ over ``V_k`` times the host digit weights that ``π`` gives
    that block; the per-node map is the loop backend's reference.

    Raises
    ------
    ShapeMismatchError
        If the graphs differ in size.
    NoExpansionError
        If the host shape is not an expansion of the guest shape.
    """
    if guest.size != host.size:
        raise ShapeMismatchError(
            f"guest has {guest.size} nodes but host has {host.size}; "
            "the paper's embeddings require equal sizes"
        )
    if guest.dimension >= host.dimension:
        raise NoExpansionError(
            "increasing-dimension embedding requires dim(guest) < dim(host)"
        )

    source_shape = guest.shape
    target_shape = host.shape

    unit_torus_factor = False
    guest_is_effectively_mesh = guest.is_mesh or guest.is_hypercube

    if factor is None:
        if (
            not guest_is_effectively_mesh
            and host.is_mesh
            and prefer_unit_dilation
            and guest.size % 2 == 0
        ):
            factor = find_unit_dilation_torus_factor(source_shape, target_shape)
            if factor is not None:
                unit_torus_factor = True
        if factor is None:
            factor = find_expansion_factor(source_shape, target_shape)
        if factor is None:
            raise NoExpansionError(
                f"shape {target_shape} is not an expansion of shape {source_shape}"
            )
    else:
        if not factor.expands(source_shape, target_shape):
            raise NoExpansionError(
                f"the supplied factor {factor.lists} does not expand {source_shape} "
                f"into {target_shape}"
            )
        unit_torus_factor = (
            factor.all_lists_have_length_at_least(2)
            and factor.all_lists_contain_even()
            and all(v[0] % 2 == 0 for v in factor.lists)
        )

    # Choose the per-coordinate map φ (its scalar form and its sequence name).
    value_fn: Callable[[ExpansionFactor, Sequence[int]], Node]
    if guest_is_effectively_mesh:
        value_fn, sequence = F_value, "f"
        strategy = "increasing:F_V"
    elif host.is_torus:
        value_fn, sequence = H_value, "h"
        strategy = "increasing:H_V"
    elif unit_torus_factor:
        value_fn, sequence = H_value, "h"
        strategy = "increasing:H_V(even-first)"
    else:
        value_fn, sequence = G_value, "g"
        strategy = "increasing:G_V"

    flattened = factor.flattened
    permutation = find_permutation(flattened, target_shape)
    if permutation is None:  # pragma: no cover - factor validity guarantees this
        raise NoExpansionError(
            f"internal error: factor concatenation {flattened} is not a permutation "
            f"of the host shape {target_shape}"
        )

    predicted = predicted_increasing_dilation(
        guest, host, unit_torus_factor=unit_torus_factor
    )

    notes = {
        "expansion_factor": factor.lists,
        "permutation": permutation,
        "unit_torus_factor": unit_torus_factor,
    }
    if predicted > 1:
        # Dilation 2 is exact for odd-size toruses (Theorem 32(iii)); for
        # even-size toruses with an unfavourable factor it is an upper bound.
        notes["dilation_is_upper_bound"] = guest.size % 2 == 0

    def ranks():
        # φ_{V_k} expands guest coordinate k into the len(V_k) consecutive
        # positions of V̄ that π then sends to host digits.
        weights = placed_weights(digit_weights(target_shape), permutation)
        terms = []
        start = 0
        for component in factor.lists:
            stop = start + len(component)
            terms.append((sequence, component, weights[start:stop]))
            start = stop
        return separable_ranks(terms)

    return Construction(
        strategy,
        predicted,
        notes,
        lambda node: apply_permutation(permutation, value_fn(factor, node)),
        ranks,
    )


def embed_increasing(
    guest: CartesianGraph,
    host: CartesianGraph,
    factor: Optional[ExpansionFactor] = None,
    *,
    prefer_unit_dilation: bool = True,
) -> Embedding:
    """Embed ``guest`` in the higher-dimensional ``host`` under the expansion
    condition: :func:`increasing_construction` (same arguments and errors),
    built under the ambient backend."""
    return increasing_construction(
        guest, host, factor, prefer_unit_dilation=prefer_unit_dilation
    ).build(guest, host)
