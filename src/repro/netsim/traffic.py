"""Workload generation: traffic patterns derived from guest task graphs.

The paper's application scenario is a task graph whose structure is itself a
torus or mesh (stencil computations, image processing pipelines, scientific
relaxation sweeps — the references of its Section 1).  In such computations
every task exchanges a boundary message with each of its task-graph
neighbours once per iteration; :func:`neighbor_exchange_traffic` generates
exactly that pattern, one message per directed guest edge.  Two contrast
workloads complete the family: :func:`transpose_traffic` (long-range,
diameter-dominated — the negative control) and
:func:`all_to_all_in_groups_traffic` (the dense collective of
sub-communicator algorithms, sensitive to how the embedding clusters each
group).  The three register themselves in the runtime's plugin registry
(:data:`repro.runtime.registry.TRAFFIC_PATTERNS`) — the single table the
simulation survey suite, the experiment harness and the CLI resolve names
against; :func:`traffic_pattern` is the package-local resolver over it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..core.embedding import Embedding
from ..exceptions import SimulationError
from ..graphs.base import CartesianGraph
from ..numbering.arrays import digit_weights, digits_to_indices
from ..runtime.registry import register_traffic, traffic_names as _registered_names
from ..types import Node, Shape

__all__ = [
    "Message",
    "TrafficPattern",
    "neighbor_exchange_traffic",
    "transpose_traffic",
    "all_to_all_in_groups_traffic",
    "random_permutation_traffic",
    "hotspot_traffic",
    "bursty_traffic",
    "traffic_pattern",
    "traffic_pattern_names",
    "traffic_rank_arrays",
]


@dataclass(frozen=True)
class Message:
    """One task-to-task message.

    ``source`` and ``destination`` are *guest* (task) nodes; the embedding
    translates them to processors when the traffic is placed on a network.
    """

    source: Node
    destination: Node
    size: float = 1.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SimulationError("message size must be positive")


@dataclass(frozen=True)
class TrafficPattern:
    """A named collection of messages produced in one communication phase."""

    name: str
    messages: tuple[Message, ...]

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)

    def total_volume(self) -> float:
        """Sum of all message sizes."""
        return sum(message.size for message in self.messages)

    def endpoint_rank_arrays(self, guest_shape: Shape):
        """Validated guest endpoint ranks and sizes as flat arrays.

        Returns ``(source_ranks, target_ranks, sizes)`` — ``int64`` natural
        order ranks in the guest base plus a ``float64`` size array.  All
        endpoint validation of a phase happens *here*, once per pattern
        placement; the per-message routing paths downstream trust the placed
        endpoints (see :func:`repro.netsim.routing.route_message`).  The
        converted arrays are cached on the (immutable) pattern, so placing
        the same pattern under several embeddings — the survey and CLI
        comparison loops — converts and validates the messages only once.
        """
        cached = getattr(self, "_endpoint_cache", None)
        if cached is not None and cached[0] == tuple(guest_shape):
            return cached[1]
        if not self.messages:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), np.zeros(0, dtype=np.float64)
        sources = np.asarray([m.source for m in self.messages])
        targets = np.asarray([m.destination for m in self.messages])
        for endpoints in (sources, targets):
            if not np.issubdtype(endpoints.dtype, np.integer):
                # Casting would silently truncate e.g. (1.9, 0) to (1, 0);
                # reject like the dict path's failed lookup would.
                raise SimulationError("message endpoints must be integer node tuples")
            if endpoints.ndim != 2 or endpoints.shape[1] != len(guest_shape):
                raise SimulationError(
                    "message endpoints do not match the guest graph's dimension"
                )
            if (endpoints < 0).any() or (endpoints >= guest_shape).any():
                raise SimulationError("message endpoints must be nodes of the guest graph")
        sizes = np.asarray([m.size for m in self.messages], dtype=np.float64)
        arrays = (
            digits_to_indices(sources.astype(np.int64), guest_shape),
            digits_to_indices(targets.astype(np.int64), guest_shape),
            sizes,
        )
        # The dataclass is frozen but not slotted; cache through the base
        # setattr so identical placements skip the per-message conversion.
        object.__setattr__(self, "_endpoint_cache", (tuple(guest_shape), arrays))
        return arrays

    def placed(self, embedding: Embedding) -> List[tuple[Node, Node, float]]:
        """Translate task endpoints to processors via the embedding.

        The loop backend's per-message placement: each endpoint is looked up
        in the embedding's mapping (a ``KeyError`` for a non-node).  The
        array path never places messages one by one; it gathers whole phases
        from :meth:`endpoint_rank_arrays`.
        """
        return [
            (embedding[message.source], embedding[message.destination], message.size)
            for message in self.messages
        ]


@register_traffic("neighbor-exchange")
def neighbor_exchange_traffic(
    guest: CartesianGraph, *, message_size: float = 1.0
) -> TrafficPattern:
    """One message per directed edge of the guest task graph.

    This is the per-iteration communication of a stencil computation whose
    data decomposition has the guest's shape: every task sends its boundary
    layer to each neighbour.
    """
    messages: List[Message] = []
    for a, b in guest.edges():
        messages.append(Message(a, b, message_size))
        messages.append(Message(b, a, message_size))
    return TrafficPattern(name=f"neighbor-exchange{guest.shape}", messages=tuple(messages))


@register_traffic("transpose")
def transpose_traffic(
    guest: CartesianGraph, *, message_size: float = 1.0
) -> TrafficPattern:
    """Each task sends one message to the task with reversed coordinates.

    A simple long-range pattern (akin to a matrix transpose) used as a
    contrast workload: its cost is dominated by the host diameter rather than
    the embedding's dilation, so the paper's embeddings should show little
    advantage on it — a useful negative control in the simulation benchmark.
    """
    messages: List[Message] = []
    for node in guest.nodes():
        partner = tuple(reversed(node)) if len(set(guest.shape)) == 1 else tuple(
            (length - 1 - coordinate) for coordinate, length in zip(node, guest.shape)
        )
        if partner != node:
            messages.append(Message(node, partner, message_size))
    return TrafficPattern(name=f"transpose{guest.shape}", messages=tuple(messages))


@register_traffic("all-to-all-groups")
def all_to_all_in_groups_traffic(
    guest: CartesianGraph,
    *,
    group_size: Optional[int] = None,
    message_size: float = 1.0,
) -> TrafficPattern:
    """Every ordered pair of distinct tasks within each group exchanges a message.

    Groups are consecutive blocks of the guest's natural (lexicographic) node
    order; the default group size is the last dimension's length, so each
    group is one "pencil" of tasks sharing all but their final coordinate —
    the sub-communicator of row-wise collectives (FFT transposes within rows,
    ADI line sweeps, block reductions).  A good embedding keeps each pencil's
    images clustered in the host, so unlike :func:`transpose_traffic` this
    dense pattern still rewards low dilation.
    """
    size = guest.size
    if group_size is None:
        group_size = guest.shape[-1]
    if group_size < 1 or size % group_size != 0:
        raise SimulationError(
            f"group size {group_size} must be positive and divide the "
            f"guest's {size} nodes"
        )
    messages: List[Message] = []
    for start in range(0, size, group_size):
        group = [guest.index_node(rank) for rank in range(start, start + group_size)]
        for source in group:
            for destination in group:
                if source != destination:
                    messages.append(Message(source, destination, message_size))
    return TrafficPattern(
        name=f"all-to-all-groups{guest.shape}/{group_size}", messages=tuple(messages)
    )


# --------------------------------------------------------------------- #
# Randomized / adversarial workloads
# --------------------------------------------------------------------- #
# The three patterns below stress embeddings from directions the structured
# workloads above cannot: a seeded random permutation (no locality at all),
# a hotspot sink (maximal contention on one processor's links) and seeded
# traffic bursts (sudden fan-in).  Each draws its endpoint *ranks* from a
# pure-Python helper seeded by a string key — PYTHONHASHSEED-independent —
# that both the tuple builder and the vectorized rank generator call, so the
# two forms agree message for message by construction.

_BURSTY_BURSTS = 3


def _random_permutation_pairs(guest: CartesianGraph, seed: int):
    rng = random.Random(f"random-permutation|{seed}|{guest.shape}")
    targets = list(range(guest.size))
    rng.shuffle(targets)
    return [(source, target) for source, target in enumerate(targets) if source != target]


def _hotspot_pairs(guest: CartesianGraph):
    return [(source, 0) for source in range(1, guest.size)]


def _bursty_pairs(guest: CartesianGraph, seed: int):
    rng = random.Random(f"bursty|{seed}|{guest.shape}")
    size = guest.size
    pairs = []
    for _ in range(_BURSTY_BURSTS):
        target = rng.randrange(size)
        senders = rng.sample(range(size), max(1, size // 4))
        pairs.extend((sender, target) for sender in senders if sender != target)
    return pairs


def _pattern_from_pairs(guest: CartesianGraph, name: str, pairs, message_size: float):
    messages = tuple(
        Message(guest.index_node(source), guest.index_node(target), message_size)
        for source, target in pairs
    )
    return TrafficPattern(name=name, messages=messages)


@register_traffic("random-permutation")
def random_permutation_traffic(
    guest: CartesianGraph, *, message_size: float = 1.0, seed: int = 0
) -> TrafficPattern:
    """Each task sends one message under a seeded random permutation.

    The classic adversarial workload for locality-preserving placements:
    endpoints are uniformly scrambled, so hop counts concentrate around the
    host's mean distance regardless of the embedding — like
    :func:`transpose_traffic`, a negative control, but an *average-case* one
    (fixed points are dropped).
    """
    return _pattern_from_pairs(
        guest,
        f"random-permutation{guest.shape}/s{seed}",
        _random_permutation_pairs(guest, seed),
        message_size,
    )


@register_traffic("hotspot")
def hotspot_traffic(
    guest: CartesianGraph, *, message_size: float = 1.0
) -> TrafficPattern:
    """Every other task sends one message to task 0 (the hotspot sink).

    Maximal fan-in: the sink's incident links serialize all traffic, so the
    makespan measures how the embedding spreads the sink's neighbourhood
    rather than its dilation — contention-dominated by design.
    """
    return _pattern_from_pairs(
        guest, f"hotspot{guest.shape}", _hotspot_pairs(guest), message_size
    )


@register_traffic("bursty")
def bursty_traffic(
    guest: CartesianGraph, *, message_size: float = 1.0, seed: int = 0
) -> TrafficPattern:
    """Seeded traffic bursts: a quarter of the tasks fan in on one target.

    Three bursts per phase; each draws a target and ``max(1, size // 4)``
    distinct senders from a seeded generator (self-messages dropped), giving
    repeated sudden fan-in — the transient congestion regime between the
    steady hotspot and the uniform permutation.
    """
    return _pattern_from_pairs(
        guest,
        f"bursty{guest.shape}/s{seed}",
        _bursty_pairs(guest, seed),
        message_size,
    )


# --------------------------------------------------------------------- #
# Vectorized endpoint-rank generators
# --------------------------------------------------------------------- #
# The builders above materialize one `Message` tuple per task pair — the
# right representation for inspection and for the loop reference, but pure
# per-message Python.  The generators below produce the *placed-phase input*
# (`(source_ranks, target_ranks, sizes)` flat arrays, exactly what
# `TrafficPattern.endpoint_rank_arrays` would return for the corresponding
# pattern, message for message in the same order) straight from mixed-radix
# arithmetic, so batched survey shards never build the tuples at all.  The
# differential suite pins the two forms equal for every pattern.


def _neighbor_exchange_ranks(guest: CartesianGraph):
    """Sources/targets of one message per directed guest edge.

    Reproduces ``guest.edges()`` order exactly — nodes in natural order,
    neighbours by dimension then direction (wrap neighbours deduplicated for
    length-2 torus dimensions — the contract of
    :meth:`CartesianGraph.neighbor_rank_matrix`), edges kept at their
    lower-rank endpoint — with the two directed messages of each edge
    adjacent (a->b then b->a), as :func:`neighbor_exchange_traffic` emits
    them.
    """
    neighbors, valid = guest.neighbor_rank_matrix()
    ranks = np.arange(guest.size, dtype=np.int64)
    # Each edge once, at its lower-rank endpoint.
    valid = valid & (neighbors > ranks[:, None])
    lower = np.broadcast_to(ranks[:, None], neighbors.shape)[valid]
    upper = neighbors[valid]
    sources = np.empty(2 * lower.size, dtype=np.int64)
    targets = np.empty(2 * lower.size, dtype=np.int64)
    sources[0::2] = lower
    sources[1::2] = upper
    targets[0::2] = upper
    targets[1::2] = lower
    return sources, targets


def _transpose_ranks(guest: CartesianGraph):
    """Sources/targets of the transpose pattern, in natural node order."""
    digits = guest.node_digit_array()
    weights = digit_weights(guest.shape)
    if len(set(guest.shape)) == 1:
        partners = digits[:, ::-1] @ weights
    else:
        lengths = np.asarray(guest.shape, dtype=np.int64)
        partners = (lengths - 1 - digits) @ weights
    ranks = np.arange(guest.size, dtype=np.int64)
    keep = partners != ranks
    return ranks[keep], partners[keep]


def _all_to_all_groups_ranks(guest: CartesianGraph):
    """Sources/targets of the within-group all-to-all, default group size."""
    group_size = guest.shape[-1]
    num_groups = guest.size // group_size
    local_source = np.repeat(np.arange(group_size, dtype=np.int64), group_size)
    local_target = np.tile(np.arange(group_size, dtype=np.int64), group_size)
    keep = local_source != local_target
    local_source = local_source[keep]
    local_target = local_target[keep]
    group_starts = np.arange(num_groups, dtype=np.int64)[:, None] * group_size
    return (
        (group_starts + local_source[None, :]).ravel(),
        (group_starts + local_target[None, :]).ravel(),
    )


def _pairs_to_rank_arrays(pairs):
    """Rank-pair list -> the two flat endpoint arrays (shared seeded draws)."""
    if not pairs:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    array = np.asarray(pairs, dtype=np.int64)
    return np.ascontiguousarray(array[:, 0]), np.ascontiguousarray(array[:, 1])


def _random_permutation_rank_arrays(guest: CartesianGraph):
    return _pairs_to_rank_arrays(_random_permutation_pairs(guest, 0))


def _hotspot_rank_arrays(guest: CartesianGraph):
    return _pairs_to_rank_arrays(_hotspot_pairs(guest))


def _bursty_rank_arrays(guest: CartesianGraph):
    return _pairs_to_rank_arrays(_bursty_pairs(guest, 0))


_RANK_GENERATORS = {
    "neighbor-exchange": _neighbor_exchange_ranks,
    "transpose": _transpose_ranks,
    "all-to-all-groups": _all_to_all_groups_ranks,
    "random-permutation": _random_permutation_rank_arrays,
    "hotspot": _hotspot_rank_arrays,
    "bursty": _bursty_rank_arrays,
}


def traffic_rank_arrays(
    name: str, guest: CartesianGraph, *, message_size: float = 1.0
):
    """``(source_ranks, target_ranks, sizes)`` of a named pattern, or ``None``.

    Equals ``traffic_pattern(name, guest, message_size=...)
    .endpoint_rank_arrays(guest.shape)`` element for element (and in the same
    message order), computed without materializing a single
    :class:`Message`.  Returns ``None`` for patterns without a vectorized
    generator — callers fall back to the builder.
    """
    generator = _RANK_GENERATORS.get(name)
    if generator is None:
        return None
    sources, targets = generator(guest)
    return sources, targets, np.full(sources.size, message_size, dtype=np.float64)


def traffic_pattern(
    name: str, guest: CartesianGraph, *, message_size: float = 1.0
) -> TrafficPattern:
    """Build the named traffic pattern for a guest task graph.

    Resolution goes through the runtime's plugin registry, so patterns added
    with :func:`repro.runtime.registry.register_traffic` are immediately
    available to the survey suite and the CLI as well.
    """
    from ..runtime.registry import traffic_builder

    try:
        builder = traffic_builder(name)
    except KeyError:
        raise SimulationError(
            f"unknown traffic pattern {name!r}; choose from {', '.join(traffic_pattern_names())}"
        ) from None
    return builder(guest, message_size=message_size)


def traffic_pattern_names() -> Tuple[str, ...]:
    """The pattern names accepted by :func:`traffic_pattern`."""
    return _registered_names()
