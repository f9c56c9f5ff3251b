"""Per-link latency weights: heterogeneous links for the netsim models.

A :class:`LinkWeightSpec` assigns every *directed* link of a topology a
latency multiplier: a message's per-hop occupancy becomes
``cost_model.link_occupancy(size) * weight(link)``.  Three families:

``uniform``
    Every weight is 1.0 — the homogeneous default, numerically identical
    to running without weights at all.
``dimension``
    ``1 + scale * j`` for a link along dimension ``j`` — models machines
    whose higher dimensions are slower (e.g. board-crossing channels).
``random``
    ``1 + scale * u`` with ``u ∈ [0, 1)`` drawn per link id from a
    splitmix64-style integer hash of ``(link id, seed)`` — heterogeneous
    links with no RNG state, so the scalar (loop) and vectorized (array)
    evaluations are bit-for-bit identical by construction.

Weights are keyed by the flat directed-link id of
:class:`~repro.netsim.kernels.LinkIndexSpace` (``(2j + [dir<0])·n + rank``),
the same id space the vectorized kernels accumulate over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidShapeError
from ..graphs.base import CartesianGraph
from ..types import Node

__all__ = ["LinkWeightSpec", "directed_slot_id"]

_KINDS = ("uniform", "dimension", "random")
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_SCALE = 2.0**-64


def directed_slot_id(topology: CartesianGraph, source: Node, target: Node) -> int:
    """The flat directed-link id of the hop ``source -> target`` (pure Python).

    Mirrors the :class:`~repro.netsim.kernels.LinkIndexSpace` layout without
    requiring NumPy, so the loop backend can price weighted hops.
    """
    source = tuple(source)
    target = tuple(target)
    changed = [j for j, (a, b) in enumerate(zip(source, target)) if a != b]
    if len(changed) != 1:
        raise InvalidShapeError(
            f"{source!r} -> {target!r} is not a single-dimension hop"
        )
    j = changed[0]
    if topology.is_torus:
        # Routing never takes the ``-`` direction of an extent-2 ring, so
        # both hops of such a ring are ``+`` steps (one of them wraps).
        positive = (source[j] + 1) % topology.shape[j] == target[j]
    else:
        # On an extent-2 mesh line the modular test would class 1 -> 0 as
        # a ``+`` step; a mesh never wraps, so compare the coordinates.
        positive = target[j] > source[j]
    channel = 2 * j + (0 if positive else 1)
    return channel * topology.size + topology.node_index(source)


def _hash_unit(value: int) -> float:
    """splitmix64 finalizer of ``value``, folded to a float in ``[0, 1)``."""
    z = (value + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    z = z ^ (z >> 31)
    return float(z) * _SCALE


@dataclass(frozen=True)
class LinkWeightSpec:
    """A deterministic per-directed-link latency multiplier assignment."""

    kind: str = "uniform"
    scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidShapeError(
                f"unknown link-weight kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.scale < 0:
            raise InvalidShapeError("link-weight scale must be non-negative")

    @property
    def token(self) -> str:
        return f"{self.kind}:{self.scale:g}:{self.seed}"

    @classmethod
    def from_token(cls, token: str) -> "LinkWeightSpec":
        """Parse ``kind[:scale[:seed]]`` (e.g. ``"random:0.5:3"``)."""
        parts = token.split(":")
        if not 1 <= len(parts) <= 3:
            raise InvalidShapeError(
                f"invalid link-weight token {token!r}; expected 'kind[:scale[:seed]]'"
            )
        kind = parts[0]
        scale = float(parts[1]) if len(parts) > 1 else 0.5
        seed = int(parts[2]) if len(parts) > 2 else 0
        return cls(kind, scale, seed)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def weight_of_slot(self, topology: CartesianGraph, slot_id: int) -> float:
        """The weight of one directed-link id (scalar, pure Python)."""
        if self.kind == "uniform":
            return 1.0
        dimension = (slot_id // topology.size) // 2
        if self.kind == "dimension":
            return 1.0 + self.scale * dimension
        return 1.0 + self.scale * _hash_unit(slot_id + self.seed * _GOLDEN)

    def weight_of(self, topology: CartesianGraph, source: Node, target: Node) -> float:
        """The weight of the directed hop ``source -> target``."""
        if self.kind == "uniform":
            return 1.0
        return self.weight_of_slot(topology, directed_slot_id(topology, source, target))

    def weight_array(self, space):
        """Weights of every slot of a link-index space (vectorized).

        Bit-for-bit equal to :meth:`weight_of_slot` over ``range(num_slots)``:
        the hash is pure modular integer arithmetic (``uint64`` wraparound
        matches Python's masked big ints) and the float fold multiplies by an
        exact power of two.
        """
        slots = np.arange(space.num_slots, dtype=np.uint64)
        if self.kind == "uniform":
            return np.ones(space.num_slots, dtype=np.float64)
        if self.kind == "dimension":
            dimensions = (slots.astype(np.int64) // space.num_nodes) // 2
            return 1.0 + self.scale * dimensions
        z = slots + np.uint64((self.seed * _GOLDEN + _GOLDEN) & _MASK)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
        z = z ^ (z >> np.uint64(31))
        return 1.0 + self.scale * (z.astype(np.float64) * _SCALE)
