"""Automatic strategy selection: ``embed(guest, host)``.

The paper's results are organized by the relationship between the two
shapes; this module encodes the decision procedure so that a caller can
simply ask for an embedding and get the best construction the paper offers:

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

import numpy as np

from ..exceptions import (
    NoExpansionError,
    NoReductionError,
    ShapeMismatchError,
    UnsupportedEmbeddingError,
)
from ..graphs.base import CartesianGraph, Mesh
from ..numbering.arrays import digits_to_indices, indices_to_digits
from ..numbering.batch import t_columns
from ..runtime.cache import embedding_cache_key
from ..runtime.context import current
from ..utils.listops import apply_permutation, find_permutation, is_permutation_of
from .basic import line_in_graph_embedding, ring_in_graph_embedding
from .embedding import Embedding, use_array_path
from .expansion import find_expansion_factor
from .increasing import embed_increasing
from .lowering import embed_lowering_simple, embed_lowering
from .reduction import SimpleReductionFactor, find_general_reduction, find_simple_reduction
from .same_shape import same_shape_embedding, t_vector_value
from .square import embed_square
from .subshape import embed_subshape, find_subshape, subshape_inner_shape

__all__ = ["embed", "strategy_for", "strategy_family"]


def _permuted_shape_embedding(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """Shapes are permutations of each other: permute coordinates (plus ``T`` if needed)."""
    permutation = find_permutation(guest.shape, host.shape)
    assert permutation is not None
    if guest.is_torus and host.is_mesh and not guest.is_hypercube:
        shape = guest.shape
        notes = {"permutation": permutation, "dilation_is_upper_bound": min(shape) <= 2}
        if use_array_path():
            digits = indices_to_digits(np.arange(guest.size, dtype=np.int64), shape)
            relabelled = t_columns(shape, digits)
            return Embedding.from_index_array(
                guest,
                host,
                digits_to_indices(relabelled[:, list(permutation)], host.shape),
                strategy="permute-dimensions∘T_L",
                predicted_dilation=2,
                notes=notes,
            )
        return Embedding.from_callable(
            guest,
            host,
            lambda node: apply_permutation(permutation, t_vector_value(shape, node)),
            strategy="permute-dimensions∘T_L",
            predicted_dilation=2,
            notes=notes,
        )
    return Embedding.from_permutation(guest, host, permutation)


def strategy_for(guest: CartesianGraph, host: CartesianGraph) -> str:
    """Name of the strategy :func:`embed` would use, without building the mapping.

    Useful for experiment sweeps that only need to know which theorem covers
    a pair of shapes.
    """
    if guest.size > host.size:
        raise ShapeMismatchError(
            f"guest has {guest.size} nodes but host has {host.size}; "
            "the guest must not be larger than the host"
        )
    if guest.size < host.size:
        sub = find_subshape(guest.size, host.shape)
        if sub is None:
            return "unsupported"
        inner = strategy_for(guest, Mesh(subshape_inner_shape(sub)))
        return "unsupported" if inner == "unsupported" else "subshape"
    if guest.shape == host.shape:
        return "same-shape"
    if is_permutation_of(guest.shape, host.shape):
        return "permute-dimensions"
    if guest.dimension == 1:
        return "basic"
    if host.dimension == 1:
        return "lowering-simple"
    if guest.dimension < host.dimension:
        if find_expansion_factor(guest.shape, host.shape) is not None:
            return "increasing"
        if guest.is_square and host.is_square:
            return "square-increasing"
        return "unsupported"
    if find_simple_reduction(guest.shape, host.shape) is not None:
        return "lowering-simple"
    if find_general_reduction(guest.shape, host.shape) is not None:
        return "lowering-general"
    if guest.is_square and host.is_square:
        return "square-lowering"
    return "unsupported"


#: Ordered (prefix, family) pairs mapping an ``Embedding.strategy`` name to
#: the :func:`strategy_for` family that produces it.  Order matters: the
#: simple-reduction prefix must be tried before the general ``lowering:``
#: one, and the ``square-*`` prefixes before the plain ones they extend.
_STRATEGY_FAMILIES = (
    ("subshape:", "subshape"),
    ("identity", "same-shape"),
    ("same-shape", "same-shape"),
    ("permute-dimensions", "permute-dimensions"),
    ("line:", "basic"),
    ("ring:", "basic"),
    ("square-lowering:", "square-lowering"),
    ("square-increasing:", "square-increasing"),
    ("lowering:U_V", "lowering-simple"),
    ("lowering:", "lowering-general"),
    ("increasing:", "increasing"),
)


def strategy_family(strategy: str) -> str:
    """The :func:`strategy_for` family that produces a given strategy name.

    ``embed`` labels embeddings with the concrete construction
    (``"increasing:H_V"``, ``"lowering:U_V∘T∘τ"``, ...) while
    :func:`strategy_for` predicts only the family (``"increasing"``,
    ``"lowering-simple"``, ...); this maps the former onto the latter so the
    two code paths can be cross-checked.  Unrecognized names (custom or
    composed strategies) map to ``"custom"``.
    """
    for prefix, family in _STRATEGY_FAMILIES:
        if strategy.startswith(prefix):
            return family
    return "custom"


def embed(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """Embed ``guest`` in ``host`` using the paper's best applicable construction.

    The construction backend is resolved from the ambient execution context
    (:mod:`repro.runtime.context`): the array backend builds the flat
    host-index array with the batch kernels of :mod:`repro.numbering.batch`
    (never touching per-node Python); ``use_context(backend="loop")`` forces
    the retained per-node reference builders.  Both backends produce
    node-for-node identical embeddings — the differential test harness
    asserts this for every strategy this dispatcher can select.

    When the context carries a construction cache
    (:class:`~repro.runtime.cache.ConstructionCache`), the result is
    memoized under ``(strategy family, guest kind+shape, host kind+shape)``
    — the constructions are pure functions of that key, so a warm cache
    skips re-construction entirely (see ``benchmarks/bench_runtime_cache.py``).

    Raises
    ------
    ShapeMismatchError
        When the guest has more nodes than the host.
    UnsupportedEmbeddingError
        When none of the paper's conditions (expansion, reduction, square,
        basic, same-shape) applies to the pair of shapes.
    """
    if guest.size > host.size:
        raise ShapeMismatchError(
            f"guest has {guest.size} nodes but host has {host.size}; "
            "the guest must not be larger than the host"
        )
    cache = current().cache
    if cache is None:
        return _dispatch(guest, host)
    memo = cache.fetch_family(guest, host)
    if memo is None:
        # Cold pair: build first, then derive the family from the strategy
        # label (strategy_family ∘ _dispatch == strategy_for, pinned by
        # tests/test_dispatch_strategy_agreement.py) — one factor search,
        # not two.  Unsupported pairs memoize the error message so a warm
        # sweep skips the failed searches entirely.
        cache.misses += 1
        try:
            embedding = _dispatch(guest, host)
        except UnsupportedEmbeddingError as error:
            cache.store_family(guest, host, "unsupported", error=str(error))
            raise
        family = strategy_family(embedding.strategy)
        cache.store_family(guest, host, family)
        cache.store_embedding(embedding_cache_key(family, guest, host), embedding)
        return embedding
    family, unsupported_message = memo
    if family == "unsupported":
        raise UnsupportedEmbeddingError(unsupported_message)
    key = embedding_cache_key(family, guest, host)
    cached = cache.fetch_embedding(key, guest, host)
    if cached is not None:
        return cached
    # Family memo without its construction (e.g. a partially merged warm
    # start): rebuild and fill the gap.
    embedding = _dispatch(guest, host)
    cache.store_embedding(key, embedding)
    return embedding


def _dispatch(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """The uncached strategy-selection body of :func:`embed`."""
    if guest.size < host.size:
        return embed_subshape(guest, host)

    if guest.shape == host.shape:
        return same_shape_embedding(guest, host)

    if is_permutation_of(guest.shape, host.shape):
        return _permuted_shape_embedding(guest, host)

    if guest.dimension == 1:
        if guest.is_mesh:
            embedding = line_in_graph_embedding(host)
        else:
            embedding = ring_in_graph_embedding(host)
        # The builders create their own 1-D guest; rebuild with the caller's
        # guest object so identities (kind/shape) are preserved exactly.
        if use_array_path():
            return Embedding.from_index_array(
                guest,
                host,
                embedding.host_index_array(),
                strategy=embedding.strategy,
                predicted_dilation=embedding.predicted_dilation,
                notes=embedding.notes,
            )
        return Embedding(
            guest=guest,
            host=host,
            mapping={guest.index_node(x): embedding.map_index(x) for x in range(guest.size)},
            strategy=embedding.strategy,
            predicted_dilation=embedding.predicted_dilation,
            notes=embedding.notes,
        )

    if host.dimension == 1:
        # A 1-dimensional host is always a simple reduction: one group
        # containing every guest dimension, largest length first.
        group = tuple(sorted(guest.shape, reverse=True))
        factor = SimpleReductionFactor((group,))
        return embed_lowering_simple(guest, host, factor)

    if guest.dimension < host.dimension:
        try:
            return embed_increasing(guest, host)
        except NoExpansionError:
            if guest.is_square and host.is_square:
                return embed_square(guest, host)
            raise UnsupportedEmbeddingError(
                f"{host.shape} is not an expansion of {guest.shape} and the graphs are "
                "not both square; the paper does not provide an embedding for this pair"
            ) from None

    try:
        return embed_lowering(guest, host)
    except NoReductionError:
        if guest.is_square and host.is_square:
            return embed_square(guest, host)
        raise UnsupportedEmbeddingError(
            f"{host.shape} is not a reduction of {guest.shape} and the graphs are "
            "not both square; the paper does not provide an embedding for this pair"
        ) from None
