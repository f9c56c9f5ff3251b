"""Functional (non-materialized) embeddings for very large graphs.

The paper closes with the observation that *"given any argument in the
corresponding domains of our embedding functions, the numbers of operations
needed to evaluate the functions are all proportional to the dimension of
H"* — i.e. the constructions are usable pointwise without ever materializing
the full node mapping.  The :class:`Embedding` class materializes the map (so
it can be validated and measured exhaustively), which is the right default
for graphs up to a few hundred thousand nodes but not for, say, a
``(1024, 1024, 1024)``-torus.

:func:`functional_embed` returns a :class:`FunctionalEmbedding` — a thin
wrapper around the per-node ``image`` of the construction that
:func:`repro.core.dispatch.plan` chooses (the same map the loop backend
materializes) — for the plan families whose pointwise form is direct:

* 1-dimensional guests (lines and rings): ``f_L``, ``g_L``, ``π ∘ h_{L*}``;
* same-shape pairs: identity or ``T_L``;
* shapes that are permutations of each other;
* increasing dimension under the expansion condition: ``π ∘ {F,G,H}_V``;
* lowering dimension under the simple-reduction condition: ``U_V ∘ [T] ∘ τ``.

(The general-reduction and square-chain strategies build intermediate
mappings and are only available in materialized form; requesting them raises
:class:`UnsupportedEmbeddingError` with a pointer to :func:`repro.core.embed`.)

A :class:`FunctionalEmbedding` can evaluate single nodes in O(dim H) time,
estimate its dilation by sampling random guest edges, and materialize itself
into a full :class:`Embedding` on demand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..exceptions import ShapeMismatchError, UnsupportedEmbeddingError
from ..graphs.base import CartesianGraph, graph_from_spec
from ..numbering.distance import mesh_distance, torus_distance
from ..numbering.radix import RadixBase
from ..types import Node, ShapedGraphSpec
from .dispatch import plan
from .embedding import Embedding

__all__ = ["POINTWISE_FAMILIES", "FunctionalEmbedding", "functional_embed"]


@dataclass
class FunctionalEmbedding:
    """A pointwise embedding ``guest -> host`` that is never materialized.

    The mapping function evaluates one node in time proportional to the host
    dimension, as promised by the paper's concluding remark.
    """

    guest: ShapedGraphSpec
    host: ShapedGraphSpec
    mapping: Callable[[Node], Node]
    strategy: str
    predicted_dilation: Optional[int] = None

    def __call__(self, node: Node) -> Node:
        return self.mapping(tuple(node))

    def map_index(self, index: int) -> Node:
        """Image of the guest node with natural-order rank ``index``."""
        return self.mapping(RadixBase(self.guest.shape).to_digits(index))

    def host_distance(self, a: Node, b: Node) -> int:
        """Distance between two host nodes under the host's metric."""
        if self.host.is_torus:
            return torus_distance(a, b, self.host.shape)
        return mesh_distance(a, b)

    def sample_dilation(self, samples: int = 1024, *, seed: int = 0) -> int:
        """Maximum host distance over ``samples`` randomly chosen guest edges.

        A lower bound on the true dilation (and usually equal to it, because
        the constructions stretch a constant fraction of the edges); useful
        when the guest is too large to enumerate.
        """
        rng = random.Random(seed)
        guest_base = RadixBase(self.guest.shape)
        shape = self.guest.shape
        worst = 0
        for _ in range(samples):
            node = list(guest_base.to_digits(rng.randrange(guest_base.size)))
            dim = rng.randrange(len(shape))
            neighbor = list(node)
            if self.guest.is_torus:
                neighbor[dim] = (neighbor[dim] + 1) % shape[dim]
            else:
                if node[dim] + 1 >= shape[dim]:
                    node[dim] -= 1
                    neighbor[dim] = node[dim] + 1
                else:
                    neighbor[dim] = node[dim] + 1
            if tuple(node) == tuple(neighbor):
                continue
            worst = max(
                worst, self.host_distance(self.mapping(tuple(node)), self.mapping(tuple(neighbor)))
            )
        return worst

    def materialize(self) -> Embedding:
        """Build the full :class:`Embedding` (requires enumerating the guest)."""
        guest_graph = graph_from_spec(self.guest)
        host_graph = graph_from_spec(self.host)
        return Embedding.from_callable(
            guest_graph,
            host_graph,
            self.mapping,
            strategy=self.strategy,
            predicted_dilation=self.predicted_dilation,
        )


def _spec_of(graph_or_spec) -> ShapedGraphSpec:
    if isinstance(graph_or_spec, CartesianGraph):
        return graph_or_spec.spec
    return graph_or_spec


#: The :func:`~repro.core.dispatch.plan` families whose construction maps
#: each node directly, without building an intermediate embedding.
POINTWISE_FAMILIES = frozenset(
    {"same-shape", "permute-dimensions", "basic", "increasing", "lowering-simple"}
)


def functional_embed(guest, host) -> FunctionalEmbedding:
    """A pointwise embedding between the two graphs (specs or graph objects).

    Evaluates the per-node map of the construction
    :func:`~repro.core.dispatch.plan` chooses, for the families listed in the
    module docstring; raises :class:`UnsupportedEmbeddingError` for pairs
    that need an intermediate materialized mapping (general reduction,
    square chains) or that the paper does not cover.
    """
    guest_spec = _spec_of(guest)
    host_spec = _spec_of(host)
    if guest_spec.size != host_spec.size:
        raise ShapeMismatchError(
            f"guest has {guest_spec.size} nodes but host has {host_spec.size}"
        )
    chosen = plan(graph_from_spec(guest_spec), graph_from_spec(host_spec))
    if chosen.family not in POINTWISE_FAMILIES:
        # The plan has decided; the dimensions only choose the message.
        guest_shape, host_shape = guest_spec.shape, host_spec.shape
        if guest_spec.dimension < host_spec.dimension:
            raise UnsupportedEmbeddingError(
                f"{host_shape} is not an expansion of {guest_shape}; use repro.core.embed "
                "for the square-graph chain strategies"
            )
        raise UnsupportedEmbeddingError(
            f"{host_shape} is not a simple reduction of {guest_shape}; the general-reduction "
            "and square-chain strategies are only available through repro.core.embed"
        )
    construction = chosen.construct()
    return FunctionalEmbedding(
        guest_spec,
        host_spec,
        construction.image,
        construction.strategy,
        construction.predicted_dilation,
    )
