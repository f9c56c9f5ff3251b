"""Embeddings among square toruses and square meshes (Section 5).

For square guests and hosts an embedding can *always* be constructed from the
Section 4 machinery:

* **Lowering dimension, d divisible by c** (Theorem 48): the host shape is a
  simple reduction of the guest shape (each host length is ``l^(d/c)``);
  dilation ``l^((d-c)/c)`` (×2 for torus -> mesh); optimal to within a
  constant for fixed ``d`` and ``c``.
* **Lowering dimension, d not divisible by c** (Theorem 51): a chain of
  general reductions through intermediate graphs ``I_0 = G, I_1, ..., I_{u-v}
  = H`` (``a = gcd(d, c)``, ``u = d/a``, ``v = c/a``); each step has dilation
  ``l^(1/v)``, giving ``l^((d-c)/c)`` in total (×2 for torus -> mesh).
* **Increasing dimension, c divisible by d** (Theorem 52): expansion with the
  factor ``V_i = (m, ..., m)``; dilation 1 (2 for an odd-size torus guest in
  a mesh host), optimal.
* **Increasing dimension, c not divisible by d** (Theorem 53): first expand
  ``G`` into a square graph ``G'`` of dimension ``c·u`` with side
  ``l^(1/v)``, then lower ``G'`` into ``H`` (the dimension of ``G'`` is
  divisible by ``c``); dilation ``l^((d-a)/c)`` (×2 for an odd-size torus
  guest in a mesh host).

The integer roots used by Theorems 51 and 53 exist by Lemma 50
(:func:`repro.utils.intmath.lemma50_root`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..exceptions import ShapeMismatchError, UnsupportedEmbeddingError
from ..graphs.base import CartesianGraph, make_graph
from ..types import GraphKind, ShapedGraphSpec
from ..utils.intmath import exact_nth_root
from .embedding import Construction, Embedding, composition
from .expansion import ExpansionFactor
from .increasing import embed_increasing, increasing_construction
from .lowering import general_lowering_construction, simple_lowering_construction
from .reduction import GeneralReductionFactor, SimpleReductionFactor
from .same_shape import same_shape_construction

__all__ = [
    "predicted_square_dilation",
    "square_lowering_intermediate_shapes",
    "square_lowering_construction",
    "square_increasing_construction",
    "square_construction",
    "embed_square_lowering",
    "embed_square_increasing",
    "embed_square",
]


def _require_square_pair(guest: CartesianGraph, host: CartesianGraph) -> None:
    if not guest.is_square or not host.is_square:
        raise UnsupportedEmbeddingError(
            "square-graph strategies require both graphs to be square"
        )
    if guest.size != host.size:
        raise ShapeMismatchError(
            f"guest has {guest.size} nodes but host has {host.size}"
        )


def predicted_square_dilation(guest: ShapedGraphSpec, host: ShapedGraphSpec) -> int:
    """The dilation cost promised by Section 5 for a square guest/host pair.

    Returns the exact formula of Theorems 48, 51, 52 and 53 (and Lemma 36 for
    equal dimensions).  The value is an upper bound on the measured dilation
    of the constructed embedding; for the increasing-dimension divisible case
    it is exactly optimal.
    """
    if not guest.is_square or not host.is_square or guest.size != host.size:
        raise UnsupportedEmbeddingError("prediction requires same-size square shapes")
    d, c = guest.dimension, host.dimension
    l = guest.shape[0]
    torus_into_mesh = guest.is_torus and host.is_mesh and not guest.is_hypercube
    if d == c:
        return 2 if torus_into_mesh else 1
    if d > c:
        base = round(l ** ((d - c) / c))
        root = exact_nth_root(l ** (d - c), c)
        if root is None:  # pragma: no cover - same-size square pairs always have one
            raise UnsupportedEmbeddingError("host side length is not an integer")
        return 2 * root if torus_into_mesh else root
    # Increasing dimension.
    if c % d == 0:
        if guest.is_torus and host.is_mesh and guest.size % 2 == 1:
            return 2
        return 1
    a = math.gcd(d, c)
    root = exact_nth_root(l ** (d - a), c)
    if root is None:  # pragma: no cover - Lemma 50 guarantees existence
        raise UnsupportedEmbeddingError("l^((d-a)/c) is not an integer")
    if guest.is_torus and host.is_mesh and guest.size % 2 == 1:
        return 2 * root
    return root


# --------------------------------------------------------------------------- #
# Lowering dimension
# --------------------------------------------------------------------------- #
def square_lowering_intermediate_shapes(
    d: int, c: int, l: int
) -> List[Tuple[int, ...]]:
    """The intermediate shapes ``I_0, ..., I_{u-v}`` of Theorem 51.

    ``I_k`` has ``a·v`` dimensions of length ``l^((v+k)/v)`` followed by
    ``a(u - v - k)`` dimensions of length ``l``, where ``a = gcd(d, c)``,
    ``u = d/a`` and ``v = c/a``.  ``I_0`` is the guest shape and ``I_{u-v}``
    the host shape.
    """
    a = math.gcd(d, c)
    u, v = d // a, c // a
    root = exact_nth_root(l, v)
    if root is None:
        raise UnsupportedEmbeddingError(
            f"l={l} has no integer {v}-th root; the shapes cannot be the same size"
        )
    shapes: List[Tuple[int, ...]] = []
    for k in range(u - v + 1):
        grown = root ** (v + k)
        shapes.append((grown,) * (a * v) + (l,) * (a * (u - v - k)))
    return shapes


def _square_chain_step_factor(
    current: Tuple[int, ...], a: int, v: int, root: int
) -> GeneralReductionFactor:
    """The explicit general-reduction decomposition used for one chain step.

    ``current`` is the shape of ``I_k``: ``a·v`` long dimensions followed by
    plain-``l`` dimensions.  The step consumes ``a`` of the plain dimensions
    (the multiplier sublist), factors each into ``v`` copies of ``root`` and
    multiplies them onto the ``a·v`` long dimensions.
    """
    long_count = a * v
    plain = current[long_count:]
    multiplier = plain[:a]
    multiplicant = current[:long_count] + plain[a:]
    s_groups = tuple((root,) * v for _ in range(a))
    return GeneralReductionFactor(
        multiplicant=multiplicant, multiplier=multiplier, s_groups=s_groups
    )


def square_lowering_construction(
    guest: CartesianGraph, host: CartesianGraph
) -> Construction:
    """Theorems 48 and 51: a square guest in a square host of lower dimension."""
    _require_square_pair(guest, host)
    d, c = guest.dimension, host.dimension
    if d <= c:
        raise UnsupportedEmbeddingError("square lowering requires dim(guest) > dim(host)")
    l = guest.shape[0]
    predicted = predicted_square_dilation(guest.spec, host.spec)

    if d % c == 0:
        # Theorem 48: simple reduction with groups of d/c copies of l.
        groups = tuple(((l,) * (d // c)) for _ in range(c))
        made = simple_lowering_construction(guest, host, SimpleReductionFactor(groups))
        return made._replace(
            strategy="square-lowering:simple-reduction",
            predicted_dilation=predicted,
            notes={**made.notes, "theorem": "48"},
        )

    # Theorem 51: chain of general reductions.
    a = math.gcd(d, c)
    u, v = d // a, c // a
    root = exact_nth_root(l, v)
    if root is None:  # pragma: no cover - equal sizes guarantee the root exists
        raise UnsupportedEmbeddingError("missing integer root for the Theorem 51 chain")
    shapes = square_lowering_intermediate_shapes(d, c, l)
    # Intermediate kinds: keep the guest's kind until the final graph, which is
    # the host itself (so a torus guest headed for a mesh host only pays the
    # factor-2 penalty on the last step, matching the paper's analysis).
    graphs = [guest, *(make_graph(guest.kind, shape) for shape in shapes[1:-1]), host]
    chain: Optional[Construction] = None
    for step_guest, step_host in zip(graphs, graphs[1:]):
        factor = _square_chain_step_factor(tuple(step_guest.shape), a, v, root)
        step = general_lowering_construction(step_guest, step_host, factor)
        chain = step if chain is None else composition(
            chain.build(guest, step_guest), step.build(step_guest, step_host)
        )
    assert chain is not None
    return chain._replace(
        strategy="square-lowering:general-reduction-chain",
        predicted_dilation=predicted,
        notes={
            **chain.notes,
            "theorem": "51",
            "intermediate_shapes": shapes,
            "dilation_is_upper_bound": True,
        },
    )


def embed_square_lowering(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """Theorems 48 and 51: :func:`square_lowering_construction`, built."""
    return square_lowering_construction(guest, host).build(guest, host)


# --------------------------------------------------------------------------- #
# Increasing dimension
# --------------------------------------------------------------------------- #
def square_increasing_construction(
    guest: CartesianGraph, host: CartesianGraph
) -> Construction:
    """Theorems 52 and 53: a square guest in a square host of higher dimension."""
    _require_square_pair(guest, host)
    d, c = guest.dimension, host.dimension
    if d >= c:
        raise UnsupportedEmbeddingError("square increasing requires dim(guest) < dim(host)")
    l = guest.shape[0]
    m = host.shape[0]
    predicted = predicted_square_dilation(guest.spec, host.spec)

    if c % d == 0:
        # Theorem 52: expansion with V_i = (m, ..., m), c/d copies.
        factor = ExpansionFactor(tuple(((m,) * (c // d)) for _ in range(d)))
        made = increasing_construction(guest, host, factor)
        return made._replace(
            strategy="square-increasing:expansion",
            predicted_dilation=predicted,
            notes={**made.notes, "theorem": "52"},
        )

    # Theorem 53: expand into G' (dimension c·u, side l^(1/v)), then lower into H.
    a = math.gcd(d, c)
    u, v = d // a, c // a
    root = exact_nth_root(l, v)
    if root is None:  # pragma: no cover - Lemma 50 guarantees existence
        raise UnsupportedEmbeddingError("missing integer root for the Theorem 53 construction")
    intermediate_kind = (
        GraphKind.TORUS if guest.is_torus and host.is_torus else GraphKind.MESH
    )
    intermediate = make_graph(intermediate_kind, (root,) * (v * d))
    expansion = ExpansionFactor(tuple(((root,) * v) for _ in range(d)))
    first = embed_increasing(guest, intermediate, expansion)
    second = embed_square_lowering(intermediate, host)
    chain = composition(first, second)
    return chain._replace(
        strategy="square-increasing:expand-then-reduce",
        predicted_dilation=predicted,
        notes={
            **chain.notes,
            "theorem": "53",
            "intermediate_shape": intermediate.shape,
            "dilation_is_upper_bound": True,
        },
    )


def embed_square_increasing(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """Theorems 52 and 53: :func:`square_increasing_construction`, built."""
    return square_increasing_construction(guest, host).build(guest, host)


def square_construction(guest: CartesianGraph, host: CartesianGraph) -> Construction:
    """The Section 5 construction for a pair of same-size square graphs."""
    _require_square_pair(guest, host)
    d, c = guest.dimension, host.dimension
    if d == c:
        return same_shape_construction(guest, host)
    if d > c:
        return square_lowering_construction(guest, host)
    return square_increasing_construction(guest, host)


def embed_square(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """Embed between same-size square graphs using the appropriate Section 5 strategy."""
    return square_construction(guest, host).build(guest, host)
