"""Automatic strategy selection: ``plan(guest, host)`` and ``embed(guest, host)``.

The paper's results are organized by the relationship between the two
shapes; :func:`plan` encodes the decision procedure once, and every caller
reads its answer: :func:`embed` builds the plan's construction,
:func:`strategy_for` reports its family, and
:func:`~repro.core.functional.functional_embed` evaluates its per-node map.

0. guest strictly smaller than host → an injective subshape embedding
   into an equal-size sub-box of the host (:mod:`repro.core.subshape`);
1. equal shapes → Lemma 36 (identity or ``T_L``);
2. shapes that are permutations of each other → permute dimensions
   (plus ``T`` for a torus guest in a mesh host);
3. 1-dimensional guest (line or ring) → Section 3 basic embeddings;
4. 1-dimensional host → the simple reduction with a single group (always
   applies), Theorem 39;
5. higher-dimensional host satisfying the expansion condition → Theorem 32;
6. lower-dimensional host satisfying a reduction condition → Theorem 39 / 43;
7. both graphs square → the Section 5 chains (Theorems 48, 51, 52, 53);
8. otherwise → :class:`~repro.exceptions.UnsupportedEmbeddingError` (the
   paper does not cover the pair).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from ..exceptions import ShapeMismatchError, UnsupportedEmbeddingError
from ..graphs.base import CartesianGraph, Mesh
from ..runtime.registry import build_strategy
from ..utils.listops import find_permutation
from .basic import line_construction, ring_construction
from .embedding import Construction, Embedding, permutation_construction
from .expansion import find_expansion_factor
from .increasing import increasing_construction
from .lowering import general_lowering_construction, simple_lowering_construction
from .reduction import (
    SimpleReductionFactor,
    find_general_reduction,
    find_simple_reduction,
)
from .same_shape import same_shape_construction, t_construction
from .square import square_construction
from .subshape import find_subshape, subshape_construction, subshape_inner_shape

__all__ = ["Plan", "embed", "plan", "strategy_for"]


class Plan(NamedTuple):
    """The paper's decision for one pair of shapes.

    ``family`` names the result that covers the pair (``"unsupported"`` when
    none does).  ``construct()`` returns the pair's
    :class:`~repro.core.embedding.Construction`, or raises the pair's
    :class:`~repro.exceptions.UnsupportedEmbeddingError` with its exact
    message.
    """

    family: str
    construct: Callable[[], Construction]


def _unsupported(message: str) -> Plan:
    def construct() -> Construction:
        raise UnsupportedEmbeddingError(message)

    return Plan("unsupported", construct)


def plan(guest: CartesianGraph, host: CartesianGraph) -> Plan:
    """Which construction of the paper covers ``guest`` in ``host``.

    Only the factor searches run here; nothing is built until
    ``construct()`` is called.

    Raises
    ------
    ShapeMismatchError
        When the guest has more nodes than the host.
    """
    if guest.size > host.size:
        raise ShapeMismatchError(
            f"guest has {guest.size} nodes but host has {host.size}; "
            "the guest must not be larger than the host"
        )
    if guest.size < host.size:
        sub = find_subshape(guest.size, host.shape)
        supported = (
            sub is not None
            and plan(guest, Mesh(subshape_inner_shape(sub))).family != "unsupported"
        )
        # Supported or not, the subshape construction raises the pair's exact
        # error itself, after building its inner pair through `embed`.
        return Plan(
            "subshape" if supported else "unsupported",
            partial(subshape_construction, guest, host),
        )

    if guest.shape == host.shape:
        return Plan("same-shape", partial(same_shape_construction, guest, host))

    permutation = find_permutation(guest.shape, host.shape)
    if permutation is not None:
        if guest.is_torus and host.is_mesh and not guest.is_hypercube:
            construct = partial(t_construction, guest, host, permutation)
        else:
            construct = partial(permutation_construction, guest, host, permutation)
        return Plan("permute-dimensions", construct)

    if guest.dimension == 1:
        if guest.is_mesh:
            return Plan("basic", partial(line_construction, host))
        return Plan("basic", partial(ring_construction, host))

    if host.dimension == 1:
        # A 1-dimensional host is always a simple reduction: one group
        # containing every guest dimension, largest length first.
        factor = SimpleReductionFactor((tuple(sorted(guest.shape, reverse=True)),))
        return Plan(
            "lowering-simple",
            partial(simple_lowering_construction, guest, host, factor),
        )

    if guest.dimension < host.dimension:
        if find_expansion_factor(guest.shape, host.shape) is not None:
            # The construction runs its own (memoized) factor search, which
            # prefers a unit-dilation factor for an even torus in a mesh.
            return Plan("increasing", partial(increasing_construction, guest, host))
        if guest.is_square and host.is_square:
            return Plan("square-increasing", partial(square_construction, guest, host))
        return _unsupported(
            f"{host.shape} is not an expansion of {guest.shape} and the graphs are "
            "not both square; the paper does not provide an embedding for this pair"
        )

    simple = find_simple_reduction(guest.shape, host.shape)
    if simple is not None:
        return Plan(
            "lowering-simple",
            partial(simple_lowering_construction, guest, host, simple),
        )
    general = find_general_reduction(guest.shape, host.shape)
    if general is not None:
        return Plan(
            "lowering-general",
            partial(general_lowering_construction, guest, host, general),
        )
    if guest.is_square and host.is_square:
        return Plan("square-lowering", partial(square_construction, guest, host))
    return _unsupported(
        f"{host.shape} is not a reduction of {guest.shape} and the graphs are "
        "not both square; the paper does not provide an embedding for this pair"
    )


def strategy_for(guest: CartesianGraph, host: CartesianGraph) -> str:
    """The family of the strategy :func:`embed` uses, without building the mapping.

    Useful for experiment sweeps that only need to know which theorem covers
    a pair of shapes; ``"unsupported"`` exactly when :func:`embed` raises
    :class:`~repro.exceptions.UnsupportedEmbeddingError`.
    """
    return plan(guest, host).family


def embed(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """Embed ``guest`` in ``host`` using the paper's best applicable construction.

    The construction backend is resolved from the ambient execution context
    (:mod:`repro.runtime.context`): the array backend builds the flat
    host-index array with the batch kernels of :mod:`repro.numbering.batch`
    (never touching per-node Python); ``use_context(backend="loop")`` forces
    the retained per-node reference.  Both backends produce node-for-node
    identical embeddings — the differential test harness asserts this for
    every strategy :func:`plan` can select.

    This is ``build_strategy("paper", guest, host)``: when the context
    carries a construction cache
    (:class:`~repro.runtime.cache.ConstructionCache`), the result — or the
    unsupported verdict — is memoized under ``("embedding",
    "strategy:paper", guest kind+shape, host kind+shape)``, so a warm cache
    skips re-construction entirely (see ``benchmarks/bench_runtime_cache.py``).

    Raises
    ------
    ShapeMismatchError
        When the guest has more nodes than the host.
    UnsupportedEmbeddingError
        When none of the paper's conditions (expansion, reduction, square,
        basic, same-shape) applies to the pair of shapes.
    """
    return build_strategy("paper", guest, host)


def _execute(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """The registry's uncached ``"paper"`` builder: :func:`plan`'s
    construction, built under the ambient backend."""
    return plan(guest, host).construct().build(guest, host)
