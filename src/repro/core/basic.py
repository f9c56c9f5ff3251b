"""Basic embeddings: a line or a ring in a mesh or a torus (Section 3).

The section's results, all reproduced here:

* ``f_L`` (Definition 9) embeds a **line** in an ``L``-mesh or ``L``-torus
  with **dilation 1** (Theorem 13).
* ``g_L = f_L ∘ t_n`` (Definitions 14–15) embeds a **ring** in an ``L``-mesh
  with **dilation 2** (Theorem 17); this is optimal when the mesh has odd
  size or is a line of size > 2.
* ``r_L`` (Definition 20) embeds a ring in a 2-dimensional mesh whose first
  dimension is even with **dilation 1** (Lemma 21) and always has unit
  ``δt``-spread (Lemma 26).
* ``h_L`` (Definition 22) embeds a ring in a mesh of dimension ≥ 2 whose
  first dimension is even with **dilation 1** (Lemma 23, Theorem 24), and a
  ring in any ``L``-torus with **dilation 1** (Lemma 27, Theorem 28).

Each ``*_value`` function is the pointwise map of the paper; the
``*_sequence`` helpers materialize the whole sequence; the
``*_construction`` functions pair each map with its memoized digit table
(:func:`~repro.numbering.batch.sequence_table`) as a
:class:`~repro.core.embedding.Construction`, and the high-level builders
return the built :class:`~repro.core.embedding.Embedding` with the theorem's
predicted dilation attached.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..exceptions import InvalidRadixError, UnsupportedEmbeddingError
from ..graphs.base import CartesianGraph, Line, Ring
from ..numbering.arrays import digit_weights
from ..numbering.batch import placed_weights, separable_ranks
from ..numbering.graycode import reflected_digit
from ..numbering.radix import RadixBase
from ..types import Node
from ..utils.listops import apply_permutation, concat, invert_permutation
from .embedding import Construction, Embedding

__all__ = [
    "t_value",
    "t_sequence",
    "f_value",
    "f_sequence",
    "g_value",
    "g_sequence",
    "r_value",
    "r_sequence",
    "h_value",
    "h_sequence",
    "even_first_permutation",
    "line_construction",
    "line_in_graph_embedding",
    "ring_construction",
    "ring_in_graph_embedding",
    "predicted_ring_dilation",
]


# --------------------------------------------------------------------------- #
# t_n : [n] -> [n]  (Definition 14)
# --------------------------------------------------------------------------- #
def t_value(n: int, x: int) -> int:
    """The function ``t_n`` of Definition 14.

    ``t_n`` lists ``0, 2, 4, ...`` followed by the odd numbers in decreasing
    order, so that as a *cyclic* sequence of the integers ``0..n-1`` its
    spread (maximum absolute difference of successive elements) is 2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= x < n:
        raise ValueError(f"x={x} out of range [0, {n})")
    if n % 2 == 0:
        if x <= n // 2 - 1:
            return 2 * x
        return 2 * (n - x) - 1
    if x <= (n - 1) // 2:
        return 2 * x
    return 2 * (n - x) - 1


def t_sequence(n: int) -> List[int]:
    """The full sequence ``t_n(0), ..., t_n(n-1)``."""
    return [t_value(n, x) for x in range(n)]


# --------------------------------------------------------------------------- #
# f_L : [n] -> Ω_L  (Definition 9)
# --------------------------------------------------------------------------- #
def _as_base(base: RadixBase | Sequence[int]) -> RadixBase:
    return base if isinstance(base, RadixBase) else RadixBase(base)


def f_value(base: RadixBase | Sequence[int], x: int) -> Node:
    """``f_L(x)`` — the mixed-radix reflected Gray code (Definition 9)."""
    base = _as_base(base)
    if not 0 <= x < base.size:
        raise InvalidRadixError(f"x={x} out of range [0, {base.size})")
    return tuple(reflected_digit(base, x, i) for i in range(1, base.dimension + 1))


def f_sequence(base: RadixBase | Sequence[int]) -> List[Node]:
    """The sequence ``f_L(0), ..., f_L(n-1)`` (unit δm- and δt-spread)."""
    base = _as_base(base)
    return [f_value(base, x) for x in range(base.size)]


# --------------------------------------------------------------------------- #
# g_L = f_L ∘ t_n : [n] -> Ω_L  (Definition 15)
# --------------------------------------------------------------------------- #
def g_value(base: RadixBase | Sequence[int], x: int) -> Node:
    """``g_L(x) = f_L(t_n(x))`` (Definition 15); cyclic δm-spread 2."""
    base = _as_base(base)
    return f_value(base, t_value(base.size, x))


def g_sequence(base: RadixBase | Sequence[int]) -> List[Node]:
    """The cyclic sequence ``g_L`` (δm-spread 2)."""
    base = _as_base(base)
    return [g_value(base, x) for x in range(base.size)]


# --------------------------------------------------------------------------- #
# r_L : [n] -> Ω_L for 2-dimensional L  (Definition 20)
# --------------------------------------------------------------------------- #
def r_value(base: RadixBase | Sequence[int], x: int) -> Node:
    """``r_L(x)`` for a 2-dimensional radix-base ``L = (l_1, l_2)`` (Definition 20).

    The sequence walks down the first column of the ``(l_1, l_2)``-mesh and
    then snakes through the remaining ``(l_1, l_2 - 1)`` sub-mesh with
    ``f``.  Its cyclic δm-spread is 1 when ``l_1`` is even (Lemma 21) and its
    cyclic δt-spread is always 1 (Lemma 26).
    """
    base = _as_base(base)
    if base.dimension != 2:
        raise InvalidRadixError("r_L is only defined for 2-dimensional radix-bases")
    l1, l2 = base.radices
    n = base.size
    if not 0 <= x < n:
        raise InvalidRadixError(f"x={x} out of range [0, {n})")
    if l2 > 2:
        if x < l1:
            return (l1 - 1 - x, 0)
        x1, x2 = f_value(RadixBase((l1, l2 - 1)), x - l1)
        return (x1, x2 + 1)
    # l2 == 2: the remaining nodes form a single column, filled bottom-to-top.
    if x < l1:
        return (l1 - 1 - x, 0)
    return (x - l1, 1)


def r_sequence(base: RadixBase | Sequence[int]) -> List[Node]:
    """The full cyclic sequence ``r_L``."""
    base = _as_base(base)
    return [r_value(base, x) for x in range(base.size)]


# --------------------------------------------------------------------------- #
# h_L : [n] -> Ω_L  (Definition 22)
# --------------------------------------------------------------------------- #
def h_value(base: RadixBase | Sequence[int], x: int) -> Node:
    """``h_L(x)`` (Definition 22).

    For ``d >= 3`` the construction sweeps the ``(l_1, l_2)``-planes of the
    graph in a forward pass (filling ``l_1 l_2 - 1`` nodes per plane,
    alternating direction between successive planes) followed by a backward
    pass that fills the remaining node of each plane.  For ``d = 2`` it is
    ``r_L``; for ``d = 1`` it is the identity.

    Its cyclic δm-spread is 1 whenever ``l_1`` is even (Lemma 23) and its
    cyclic δt-spread is always 1 (Lemma 27).
    """
    base = _as_base(base)
    n = base.size
    if not 0 <= x < n:
        raise InvalidRadixError(f"x={x} out of range [0, {n})")
    d = base.dimension
    if d == 1:
        return (x,)
    if d == 2:
        return r_value(base, x)
    l1, l2 = base.radices[0], base.radices[1]
    plane_base = RadixBase((l1, l2))
    tail_base = RadixBase(base.radices[2:])
    m = tail_base.size
    plane_fill = l1 * l2 - 1  # nodes filled per plane during the forward pass
    a = x // plane_fill
    b = x % plane_fill
    if x < m * plane_fill:
        if a % 2 == 0:
            return concat(r_value(plane_base, b), f_value(tail_base, a))
        return concat(r_value(plane_base, l1 * l2 - b - 2), f_value(tail_base, a))
    return concat(r_value(plane_base, l1 * l2 - 1), f_value(tail_base, n - x - 1))


def h_sequence(base: RadixBase | Sequence[int]) -> List[Node]:
    """The full cyclic sequence ``h_L``."""
    base = _as_base(base)
    return [h_value(base, x) for x in range(base.size)]


# --------------------------------------------------------------------------- #
# High-level builders
# --------------------------------------------------------------------------- #
def even_first_permutation(shape: Sequence[int]) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Find a reordering of ``shape`` whose first length is even.

    Returns ``(reordered_shape, perm)`` where ``perm`` is the permutation
    (in :func:`~repro.utils.listops.apply_permutation` convention) with
    ``apply_permutation(perm, reordered_shape) == shape``; or ``None`` when
    every dimension length is odd.  This realizes the paper's "let ``L*`` be
    a list such that ``π(L*) = L`` and the first component of ``L*`` is even"
    (Theorem 24).
    """
    shape = tuple(shape)
    even_positions = [i for i, length in enumerate(shape) if length % 2 == 0]
    if not even_positions:
        return None
    first = even_positions[0]
    order = (first,) + tuple(i for i in range(len(shape)) if i != first)
    reordered = tuple(shape[i] for i in order)
    perm = invert_permutation(order)
    return reordered, perm


def line_construction(host: CartesianGraph) -> Construction:
    """``f_L``: a line of the host's size in the host, dilation 1 (Theorem 13)."""
    return Construction(
        "line:f_L",
        1,
        {},
        lambda node: f_value(host.radix_base, node[0]),
        lambda: separable_ranks([("f", host.shape, digit_weights(host.shape))]),
    )


def line_in_graph_embedding(host: CartesianGraph) -> Embedding:
    """Embed a line of the host's size in the host with dilation 1 (Theorem 13).

    The array backend weighs the memoized digit table of the reflected
    sequence ``f_L`` by the host digit weights; the per-node loop is the
    retained reference implementation (force it with
    ``use_context(backend="loop")``).
    """
    return line_construction(host).build(Line(host.size), host)


def predicted_ring_dilation(host: CartesianGraph) -> int:
    """The dilation cost promised by Section 3 for embedding a ring in ``host``."""
    if host.is_torus:
        return 1
    if host.size == 2:
        return 1
    if host.dimension >= 2 and host.size % 2 == 0:
        return 1
    return 2


def ring_construction(host: CartesianGraph) -> Construction:
    """The optimal Section-3 construction of a ring of the host's size in the host.

    * host torus → ``h_L`` (dilation 1, Theorem 28);
    * host mesh, even size, dimension ≥ 2 → ``π ∘ h_{L*}`` with an even
      dimension permuted to the front (dilation 1, Theorem 24);
    * otherwise (odd-size mesh or a line) → ``g_L`` (dilation 2, Theorem 17,
      optimal in these cases).
    """
    shape = host.shape
    if host.is_torus:
        return Construction(
            "ring:h_L",
            1,
            {},
            lambda node: h_value(host.radix_base, node[0]),
            lambda: separable_ranks([("h", shape, digit_weights(shape))]),
        )
    # Host is a mesh.
    if host.dimension >= 2 and host.size % 2 == 0:
        reordering = even_first_permutation(shape)
        if reordering is None:  # pragma: no cover - even size guarantees an even length
            raise UnsupportedEmbeddingError(
                f"mesh {shape} has even size but no even dimension length"
            )
        reordered_shape, perm = reordering
        base = RadixBase(reordered_shape)
        return Construction(
            "ring:π∘h_L*",
            1,
            {"reordered_shape": reordered_shape, "permutation": perm},
            lambda node: apply_permutation(perm, h_value(base, node[0])),
            lambda: separable_ranks(
                [("h", reordered_shape, placed_weights(digit_weights(shape), perm))]
            ),
        )
    return Construction(
        "ring:g_L",
        predicted_ring_dilation(host),
        {"dilation_is_upper_bound": host.size <= 2},
        lambda node: g_value(host.radix_base, node[0]),
        lambda: separable_ranks([("g", shape, digit_weights(shape))]),
    )


def ring_in_graph_embedding(host: CartesianGraph) -> Embedding:
    """Embed a ring of the host's size in the host with :func:`ring_construction`.

    The ambient context selects the batch-kernel array backend or the
    per-node loop reference, as for :func:`line_in_graph_embedding`.
    """
    return ring_construction(host).build(Ring(host.size), host)
