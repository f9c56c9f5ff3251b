"""The host machine model: a torus or mesh of processors.

A :class:`HostNetwork` wraps a :class:`~repro.graphs.base.CartesianGraph`
(the processor/link topology) together with a :class:`~repro.netsim.models.CostModel`.
Links are *directed*: the link ``(u, v)`` carries traffic from ``u`` to
``v``; its reverse is a distinct resource, matching full-duplex hardware
channels.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..exceptions import SimulationError
from ..graphs.base import CartesianGraph
from ..types import Node
from .models import CostModel

__all__ = ["HostNetwork", "DirectedLink"]

#: A directed link between two adjacent processors.
DirectedLink = Tuple[Node, Node]


class HostNetwork:
    """A parallel machine whose processors form a torus or mesh.

    ``link_weights`` (a :class:`~repro.netsim.weights.LinkWeightSpec`, or
    ``None`` for homogeneous links) assigns every directed link a latency
    multiplier; a hop then occupies its link for
    ``cost_model.link_occupancy(size) * weight`` time units.
    """

    def __init__(
        self,
        topology: CartesianGraph,
        cost_model: CostModel | None = None,
        link_weights=None,
    ):
        self._topology = topology
        self._cost_model = cost_model or CostModel()
        self._link_weights = link_weights
        self._link_space = None
        self._weight_array = None

    @property
    def topology(self) -> CartesianGraph:
        """The processor/link graph."""
        return self._topology

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    @property
    def link_weights(self):
        """The per-link latency weight spec, or ``None`` for uniform links."""
        return self._link_weights

    def link_weight(self, source: Node, target: Node) -> float:
        """Latency multiplier of one directed link (1.0 when unweighted)."""
        if self._link_weights is None:
            return 1.0
        return self._link_weights.weight_of(self._topology, source, target)

    def link_weight_array(self):
        """Per-slot weights over the link-index space, or ``None`` (cached)."""
        if self._link_weights is None:
            return None
        if self._weight_array is None:
            self._weight_array = self._link_weights.weight_array(
                self.link_index_space()
            )
        return self._weight_array

    @property
    def num_processors(self) -> int:
        return self._topology.size

    def processors(self) -> Iterator[Node]:
        """All processor coordinates."""
        return self._topology.nodes()

    def links(self) -> Iterator[DirectedLink]:
        """All directed links (both orientations of every edge)."""
        for u, v in self._topology.edges():
            yield (u, v)
            yield (v, u)

    def num_links(self) -> int:
        return 2 * self._topology.num_edges()

    def validate_processor(self, node: Node) -> None:
        if not self._topology.contains(node):
            raise SimulationError(f"{node!r} is not a processor of {self._topology!r}")

    def link_exists(self, link: DirectedLink) -> bool:
        u, v = link
        return self._topology.contains(u) and self._topology.contains(v) and (
            self._topology.distance(u, v) == 1
        )

    def empty_link_loads(self) -> Dict[DirectedLink, float]:
        """A zero-initialized per-link load accumulator."""
        return {link: 0.0 for link in self.links()}

    def link_index_space(self):
        """The flat directed-link id space of this topology (cached).

        Used by the vectorized routing and load kernels
        (:mod:`repro.netsim.kernels`).
        """
        if self._link_space is None:
            from .kernels import LinkIndexSpace

            self._link_space = LinkIndexSpace(self._topology)
        return self._link_space

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HostNetwork({self._topology!r}, {self._cost_model!r})"
