"""Store-and-forward simulation of one communication phase.

Two complementary evaluations of a placed traffic pattern are provided:

* :func:`analytic_phase_estimate` — closed-form statistics: hop counts,
  per-link loads and the standard lower-bound completion-time estimate
  ``max(most loaded link busy time, slowest uncontended message)``;
* :func:`simulate_phase` — a discrete-time store-and-forward simulation in
  which every directed link transfers one message at a time (FIFO per link,
  deterministic tie-breaking), yielding an actual makespan that accounts for
  queueing.

Both place each message on the dimension-ordered route between the images of
its endpoints under the supplied embedding, so the guest-edge hop counts are
bounded by the embedding's dilation — the mechanism by which the paper's
low-dilation embeddings translate into faster communication phases.

Both evaluations resolve their implementation from the ambient execution
context (:mod:`repro.runtime.context`), the same switch as the construction
builders and cost measures.  The array backend has one simulation path,
:func:`simulate_endpoint_phases`: it places, routes, detours around faults
and prices any number of phases over flat directed-link ids
(:mod:`repro.netsim.kernels`), drains them through
:func:`simulate_phases_rounds` and reduces each phase's link loads with
:func:`~repro.netsim.kernels.accumulate_link_loads`.  Routing expands the
messages of every phase on one link-index space together, in blocks of
8,192 with one :func:`~repro.netsim.kernels.expand_routes` call each, so
its (messages x dimensions) temporaries never outgrow one block; the
blocks' hops and link ids are concatenated once, into the arrays the
phases keep.  The drain is
round-based: a phase whose hops all share one occupancy (every built-in
pattern on a network without link weights) runs in integer ticks and reads
its times from a table of repeated float sums; any other phase runs the
float round loop.  Completion times stay float64 arrays
(:attr:`SimulationResult.completion_times`); the tuple
:attr:`~SimulationResult.per_message_completion` is built only when read.
:func:`simulate_phase` runs it with a single phase;
:func:`analytic_phase_estimate` shares its placement, routing and pricing
without the drain.  The loop backend's heap is the retained per-message
reference, cross-checked hop-for-hop and float-for-float by the
differential tests.  Force it with ``use_context(backend="loop")``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from ..core.embedding import Embedding, use_array_path
from ..exceptions import SimulationError
from ..numbering.arrays import shape_tables
from .kernels import (
    RouteArrays,
    _repeated_sums,
    _shared_hop_value,
    accumulate_link_loads,
    apply_fault_detours,
    expand_routes,
)
from .network import DirectedLink, HostNetwork
from .routing import route_message
from .traffic import TrafficPattern

__all__ = [
    "PhaseStatistics",
    "SimulationResult",
    "analytic_phase_estimate",
    "simulate_phase",
    "simulate_endpoint_phases",
    "simulate_phases_rounds",
]


@dataclass(frozen=True)
class PhaseStatistics:
    """Analytic statistics of a placed communication phase."""

    num_messages: int
    total_hops: int
    max_hops: int
    mean_hops: float
    max_link_load_messages: int
    max_link_load_volume: float
    max_link_busy_time: float
    max_uncontended_message_time: float
    estimated_completion_time: float

    def as_row(self) -> Dict[str, object]:
        return {
            "messages": self.num_messages,
            "max hops": self.max_hops,
            "mean hops": round(self.mean_hops, 3),
            "max link msgs": self.max_link_load_messages,
            "est. time": round(self.estimated_completion_time, 3),
        }


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of the discrete-time store-and-forward simulation.

    ``completion_times`` is every message's completion time, in message
    order, as a float64 array; :attr:`per_message_completion` is the same
    times as a tuple of floats, built on first access.  Two results are
    equal when their makespans, statistics and completion times are.
    """

    makespan: float
    statistics: PhaseStatistics
    completion_times: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def per_message_completion(self) -> Tuple[float, ...]:
        return tuple(self.completion_times.tolist())

    def __eq__(self, other):
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return (
            self.makespan == other.makespan
            and self.statistics == other.statistics
            and self.per_message_completion == other.per_message_completion
        )

    def as_row(self) -> Dict[str, object]:
        row = self.statistics.as_row()
        row["makespan"] = round(self.makespan, 3)
        return row


def _check_topology(network: HostNetwork, embedding: Embedding) -> None:
    if embedding.host.shape != network.topology.shape or embedding.host.kind != network.topology.kind:
        raise SimulationError(
            "the embedding's host graph does not match the network topology"
        )


def _routes_for(
    network: HostNetwork, embedding: Embedding, traffic: TrafficPattern, faults=None
) -> List[Tuple[List[DirectedLink], float]]:
    """Per-message loop reference: placed endpoints routed one message at a time.

    :meth:`TrafficPattern.placed` looked every endpoint up in the
    embedding's mapping, so the per-message routing trusts the placed
    endpoints (``validate=False``).
    """
    _check_topology(network, embedding)
    routes: List[Tuple[List[DirectedLink], float]] = []
    for source, destination, size in traffic.placed(embedding):
        routes.append(
            (
                route_message(
                    network, source, destination, validate=False, faults=faults
                ),
                size,
            )
        )
    return routes


def _check_faults(network: HostNetwork, faults) -> None:
    if faults is not None and faults.graph != network.topology:
        raise SimulationError(
            f"faults were materialized for {faults.graph!r}, "
            f"not {network.topology!r}"
        )


#: Messages per :func:`expand_routes` call when :func:`_priced_phases`
#: expands a link-index space's routes: small enough that one call's
#: (messages x dimensions) temporaries stay in cache, large enough to
#: amortize the per-call overhead.
_ROUTE_BLOCK = 8192


def _endpoint_blocks(placements):
    """The host endpoint ranks of consecutive blocks of many phases' messages.

    ``placements`` holds one ``(images, source_ranks, target_ranks)`` per
    phase: the host rank of every guest rank, and the guest endpoint ranks
    of its messages.  Their concatenation is cut into blocks of
    :data:`_ROUTE_BLOCK` messages and a shorter tail; a block runs on from
    one phase into the next.  Yields each block's ``(sources, targets)``
    host ranks, never concatenating more than one block.
    """
    filled = 0
    sources, targets = [], []
    for images, source_ranks, target_ranks in placements:
        start = 0
        while start < source_ranks.size:
            stop = min(source_ranks.size, start + _ROUTE_BLOCK - filled)
            sources.append(images[source_ranks[start:stop]])
            targets.append(images[target_ranks[start:stop]])
            filled += stop - start
            start = stop
            if filled == _ROUTE_BLOCK:
                yield np.concatenate(sources), np.concatenate(targets)
                filled = 0
                sources, targets = [], []
    if filled:
        yield np.concatenate(sources), np.concatenate(targets)


def _expanded_in_blocks(space, placements):
    """The hop counts and link ids of every message of ``placements``.

    ``placements`` is as in :func:`_endpoint_blocks`, every phase on
    ``space``; the result is one ``hops`` and one ``link_ids`` array over
    all their messages, in order.  Expansion is row-wise, so each block's
    :func:`expand_routes` call gives exactly its slice of the whole batch's
    routes, and only one block's (messages x dimensions) temporaries are
    alive at a time.  The blocks' hops and link ids are concatenated once.
    """
    digits = shape_tables(space.shape).digits
    # Seeded with empty parts: the phases may hold no message at all.
    hops, link_ids = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for sources, targets in _endpoint_blocks(placements):
        block = expand_routes(space, digits[sources], digits[targets])
        hops.append(block.hops)
        link_ids.append(block.link_ids)
    return np.concatenate(hops), np.concatenate(link_ids)


def _priced_phases(phases):
    """Placed, routed and priced data of many phases for the array backend.

    ``phases`` holds ``(network, embedding, (source_ranks, target_ranks,
    sizes), faults)`` entries: guest endpoint ranks as
    :meth:`~repro.netsim.traffic.TrafficPattern.endpoint_rank_arrays`
    returns them, and a materialized :class:`~repro.graphs.faults.Faults`
    of the host topology or ``None``.  All phases sharing one link-index
    space expand their routes together, in blocks of :data:`_ROUTE_BLOCK`
    messages that run across phase boundaries
    (:func:`_expanded_in_blocks`); fault detours and link weights then
    apply per phase.

    Returns one ``(space, routes, sizes, occupancy, hop_occupancy)`` per
    phase — the directed-link id space, the CSR route arrays (detours
    applied), the per-message size and link-occupancy arrays, and the
    per-hop occupancy (``None`` for homogeneous links, where the
    per-message value repeats).  Each phase's ``hops`` and ``link_ids``
    are views into its link-index space's arrays.  Without faults or link
    weights, the call's memory peak exceeds what it returns by one block's
    working set and the blocks' link ids at their concatenation.
    """
    # Per link-index space: the space, its phases' indices and placements.
    groups: Dict[int, Tuple[object, List[int], List[tuple]]] = {}
    for index, entry in enumerate(phases):
        network, embedding, (source_ranks, target_ranks, _), faults = entry
        _check_topology(network, embedding)
        _check_faults(network, faults)
        space = network.link_index_space()
        _space, members, placements = groups.setdefault(id(space), (space, [], []))
        members.append(index)
        placements.append((embedding.host_index_array(), source_ranks, target_ranks))
    expanded: List = [None] * len(phases)
    for space, members, placements in groups.values():
        hops, link_ids = _expanded_in_blocks(space, placements)
        lower = hop_lower = 0
        for index, (_images, source_ranks, _targets) in zip(members, placements):
            upper = lower + source_ranks.size
            starts = np.zeros(source_ranks.size + 1, dtype=np.int64)
            np.cumsum(hops[lower:upper], out=starts[1:])
            hop_upper = hop_lower + int(starts[-1])
            expanded[index] = RouteArrays(
                hops=hops[lower:upper],
                starts=starts,
                link_ids=link_ids[hop_lower:hop_upper],
            )
            lower, hop_lower = upper, hop_upper
    priced = []
    for index, (network, embedding, endpoints, faults) in enumerate(phases):
        source_ranks, target_ranks, sizes = endpoints
        space = network.link_index_space()
        routes = expanded[index]
        if faults is not None:
            images = embedding.host_index_array()
            routes = apply_fault_detours(
                space, routes, faults, images[source_ranks], images[target_ranks]
            )
        # CostModel.link_occupancy is pure arithmetic, so it vectorizes as-is:
        # one source of truth for the per-hop cost on both backend paths.
        occupancy = network.cost_model.link_occupancy(sizes)
        weights = network.link_weight_array()
        hop_occupancy = None
        if weights is not None:
            hop_occupancy = np.repeat(occupancy, routes.hops) * weights[routes.link_ids]
        priced.append((space, routes, sizes, occupancy, hop_occupancy))
    return priced


def _statistics_from_arrays(
    space, routes, sizes, occupancy, hop_occupancy
) -> PhaseStatistics:
    """Fully vectorized analytic statistics (no per-message Python)."""
    num_messages = routes.num_messages
    if num_messages == 0:
        return PhaseStatistics(
            num_messages=0,
            total_hops=0,
            max_hops=0,
            mean_hops=0.0,
            max_link_load_messages=0,
            max_link_load_volume=0.0,
            max_link_busy_time=0.0,
            max_uncontended_message_time=0.0,
            estimated_completion_time=0.0,
        )
    counts, volume, busy = accumulate_link_loads(
        space, routes, sizes, occupancy, hop_occupancy=hop_occupancy
    )
    hops = routes.hops
    max_link_busy = float(busy.max())
    if hop_occupancy is None:
        max_uncontended = float((hops * occupancy).max())
    else:
        # Heterogeneous links: a message's uncontended time is the sum of its
        # per-hop occupancies.  bincount adds in hop order, matching the loop
        # reference's sequential accumulation float for float.
        message_of_hop = np.repeat(np.arange(num_messages, dtype=np.int64), hops)
        max_uncontended = float(
            np.bincount(
                message_of_hop, weights=hop_occupancy, minlength=num_messages
            ).max()
        )
    total_hops = int(hops.sum())
    return PhaseStatistics(
        num_messages=num_messages,
        total_hops=total_hops,
        max_hops=int(hops.max()),
        mean_hops=total_hops / num_messages,
        max_link_load_messages=int(counts.max()),
        max_link_load_volume=float(volume.max()),
        max_link_busy_time=max_link_busy,
        max_uncontended_message_time=max_uncontended,
        estimated_completion_time=max(max_link_busy, max_uncontended),
    )


def analytic_phase_estimate(
    network: HostNetwork,
    embedding: Embedding,
    traffic: TrafficPattern,
    *,
    faults=None,
) -> PhaseStatistics:
    """Hop counts, link loads and the standard completion-time lower bound.

    The array backend accumulates every per-link quantity with one
    ``np.bincount`` scatter-add over the flat directed-link id space; the
    loop backend is the retained per-message reference.  Both produce
    identical statistics (the scatter-add visits hops in the same
    ``(message, hop)`` order the loop adds them, so even the float sums
    agree bit for bit).

    With ``faults`` (a materialized :class:`~repro.graphs.faults.Faults` of
    the host topology), cut routes take their BFS detours; heterogeneous
    per-link weights come from the network's ``link_weights`` spec.
    """
    if use_array_path():
        endpoints = traffic.endpoint_rank_arrays(embedding.guest.shape)
        return _statistics_from_arrays(
            *_priced_phases([(network, embedding, endpoints, faults)])[0]
        )
    _check_faults(network, faults)
    return _statistics_from_routes(
        network.cost_model,
        _routes_for(network, embedding, traffic, faults=faults),
        link_weight=network.link_weight if network.link_weights is not None else None,
    )


def _statistics_from_routes(model, routes, link_weight=None) -> PhaseStatistics:
    """Loop-reference analytic statistics over per-message route lists.

    ``link_weight`` (a ``(source, target) -> float`` callable, or ``None``)
    prices heterogeneous links: each hop's occupancy is the model occupancy
    times its link's weight, and a message's uncontended time accumulates
    hop by hop.
    """
    link_messages: Dict[DirectedLink, int] = {}
    link_volume: Dict[DirectedLink, float] = {}
    link_busy: Dict[DirectedLink, float] = {}
    total_hops = 0
    max_hops = 0
    max_uncontended = 0.0
    for links, size in routes:
        hops = len(links)
        total_hops += hops
        max_hops = max(max_hops, hops)
        if link_weight is None:
            max_uncontended = max(max_uncontended, model.uncontended_time(size, hops))
            for link in links:
                link_messages[link] = link_messages.get(link, 0) + 1
                link_volume[link] = link_volume.get(link, 0.0) + size
                link_busy[link] = link_busy.get(link, 0.0) + model.link_occupancy(size)
        else:
            uncontended = 0.0
            for link in links:
                occupancy = model.link_occupancy(size) * link_weight(*link)
                uncontended += occupancy
                link_messages[link] = link_messages.get(link, 0) + 1
                link_volume[link] = link_volume.get(link, 0.0) + size
                link_busy[link] = link_busy.get(link, 0.0) + occupancy
            max_uncontended = max(max_uncontended, uncontended)
    num_messages = len(routes)
    max_link_busy = max(link_busy.values(), default=0.0)
    return PhaseStatistics(
        num_messages=num_messages,
        total_hops=total_hops,
        max_hops=max_hops,
        mean_hops=total_hops / num_messages if num_messages else 0.0,
        max_link_load_messages=max(link_messages.values(), default=0),
        max_link_load_volume=max(link_volume.values(), default=0.0),
        max_link_busy_time=max_link_busy,
        max_uncontended_message_time=max_uncontended,
        estimated_completion_time=max(max_link_busy, max_uncontended),
    )


def simulate_endpoint_phases(
    phases, *, max_events: int = 5_000_000
) -> List[SimulationResult]:
    """Simulate many placed phases, sharing one vectorized event loop.

    ``phases`` is a sequence of ``(network, embedding, (source_ranks,
    target_ranks, sizes), faults)`` entries: the guest endpoint arrays a
    :meth:`~repro.netsim.traffic.TrafficPattern.endpoint_rank_arrays` call
    (or the vectorized generators of
    :func:`~repro.netsim.traffic.traffic_rank_arrays`) would produce, and a
    materialized :class:`~repro.graphs.faults.Faults` of the host topology
    or ``None``.  This is the array backend's one simulation path, for a
    whole survey shard or a single :func:`simulate_phase`: no
    :class:`Message` tuples exist at any point, and every phase advances
    through one shared round loop (:func:`simulate_phases_rounds`; their
    link-id blocks are disjoint, so merging only amortizes the per-round
    overhead).  The results equal the loop backend's ``simulate_phase``
    over the equivalent patterns field for field.
    """
    priced = _priced_phases(phases)
    outcomes = simulate_phases_rounds(
        [
            (space, routes, occupancy, hop_occupancy)
            for space, routes, _sizes, occupancy, hop_occupancy in priced
        ],
        max_events=max_events,
    )
    return [
        SimulationResult(
            makespan=makespan,
            statistics=_statistics_from_arrays(*phase),
            completion_times=completion,
        )
        for phase, (makespan, completion) in zip(priced, outcomes)
    ]


@dataclass(order=True)
class _LinkRequest:
    """A pending hop of a message, ordered for deterministic scheduling."""

    ready_time: float
    message_index: int
    hop_index: int = field(compare=False)


def simulate_phases_rounds(phases, *, max_events: int = 5_000_000):
    """Round-based vectorized event loop over one or many expanded phases.

    ``phases`` is a sequence of ``(space, routes, occupancy,
    hop_occupancy)`` entries: the link-index space, the expanded routes,
    the per-message occupancy, and the per-*hop* occupancy (aligned with
    ``routes.link_ids``) of heterogeneous links or ``None`` for homogeneous
    links, where each message's occupancy repeats over its hops.  The
    result is one ``(makespan, completion_times)`` pair per phase, in the
    order of ``phases``: a float and a float64 array, one time per message.

    Each phase's own occupancies choose its drain, and each drain runs all
    of its phases in a single loop: link ids are offset into disjoint
    blocks, so the phases cannot interact, and merging them only makes each
    round's batch larger.

    * A phase whose hops all share one occupancy ``o``, with ``o > 0`` and
      ``2·H·o`` finite for its ``H`` hops (every built-in pattern on a
      network without link weights), drains in integer ticks
      (:func:`_drain_ticks`): every time the heap loop computes for it is
      ``S[t]``, ``t`` copies of ``o`` added one at a time
      (:func:`~repro.netsim.kernels._repeated_sums`), and ``S`` is strictly
      increasing on ``[0, H]`` (``S[t] < 2^53·o`` there, so adding ``o``
      always rounds up), so ticks order, tie and maximize exactly as the
      times do.  Its completion times are read from ``S``.
    * Every other phase — occupancies that differ (weighted links, unequal
      message sizes), zero or non-finite — drains in floats
      (:func:`_drain_floats`), the heap's arithmetic on every hop.

    Makespans and completion times are therefore bit-for-bit identical to
    the heap loop on both drains.

    The ``max_events`` budget is enforced per phase (an event is one served
    hop, as in the heap loop).  Every hop is served exactly once, so it is
    checked once, against each phase's hop count, before either drain
    starts.  Exceeding it raises :class:`~repro.exceptions.SimulationError`
    for the whole call.
    """
    # A phase fails when its hop count exceeds the budget; one without hops
    # serves no event at all.
    if any(entry[1].total_hops > max(max_events, 0) for entry in phases):
        raise SimulationError(
            f"simulation exceeded {max_events} events; the configuration is too large"
        )
    results = [(0.0, np.zeros(0, dtype=np.float64)) for _ in phases]
    steps = {}  # tick-drained phase index -> its one occupancy
    floats = []
    for index, (_space, routes, occupancy, hop_occupancy) in enumerate(phases):
        if not routes.num_messages:
            continue
        step = _shared_hop_value(routes, occupancy, hop_occupancy)
        if (
            step is not None
            and step > 0
            and math.isfinite(2.0 * routes.total_hops * step)
        ):
            steps[index] = step
        else:
            floats.append(index)
    if steps:
        ticks = _drain_ticks([phases[index] for index in steps])
        for (index, step), finish in zip(steps.items(), ticks):
            sums = _repeated_sums(step, int(finish.max()))
            results[index] = (float(sums[-1]), sums[finish])
    if floats:
        drained = _drain_floats([phases[index] for index in floats])
        for index, outcome in zip(floats, drained):
            results[index] = outcome
    return results


def _merged_routes(phases):
    """One hop space for the routes of many :func:`simulate_phases_rounds` entries.

    Returns the concatenated link ids (each phase's offset into its own
    block of slots), every message's first and one-past-last hop, and the
    total slot count.
    """
    link_offset = hop_offset = 0
    link_parts, first_parts, last_parts = [], [], []
    for space, routes, *_ in phases:
        link_parts.append(routes.link_ids + link_offset)
        first_parts.append(routes.starts[:-1] + hop_offset)
        last_parts.append(routes.starts[1:] + hop_offset)
        link_offset += space.num_slots
        hop_offset += routes.total_hops
    return (
        np.concatenate(link_parts),
        np.concatenate(first_parts),
        np.concatenate(last_parts),
        link_offset,
    )


def _per_phase(merged, phases):
    """Slice a merged per-message array back into per-phase views."""
    bounds = np.cumsum([0] + [entry[1].num_messages for entry in phases])
    return [merged[lower:upper] for lower, upper in zip(bounds[:-1], bounds[1:])]


#: Set on the link id of every message's last hop in :func:`_drain_ticks`;
#: above every link id and every tick.
_PARKED = 1 << 62


def _drain_ticks(phases):
    """Completion ticks of every message of :func:`simulate_phases_rounds` entries.

    The float drain at unit occupancy, in integers: a hop ready at tick
    ``r`` on a link free at tick ``f`` finishes at ``max(r, f) + 1``.  Round
    ``k`` serves every request ready at tick ``k`` — the requests it spawns
    are ready at ``k + 1`` or later — in the heap's ``(link, message
    index)`` order.  A round in which no two requests share a link
    (detected with a per-link stamp, no sort) is one vectorized step;
    otherwise :func:`_serve_tick_queues` serves every queue at once.  No
    occupancy array, no float and no lockstep queue drain.  Every tick is
    at most the phase's hop count: each counts one earlier served hop of a
    dependency chain.
    """
    link_ids, first_hop, last_hop, num_slots = _merged_routes(phases)
    # The working set, as aligned arrays (see _drain_floats): every message
    # with hops, its ready tick and its next hop.  The link id of each
    # message's last hop carries the parking bit, and serving that hop
    # passes the bit on to the finish tick: the message is never the
    # earliest again, and its completion tick is its ready tick without the
    # bit.  Parked entries are compacted away once they are a quarter of
    # the set.  The per-message hop bounds are dropped once it is built:
    # the rounds run at the drain's memory peak.
    ids = np.flatnonzero(first_hop < last_hop)
    link_ids[last_hop[ids] - 1] |= _PARKED
    hop_a = first_hop[ids]
    completion = np.zeros(first_hop.size, dtype=np.int64)
    del first_hop, last_hop
    ready_a = np.zeros(ids.size, dtype=np.int64)
    positions = np.arange(ids.size, dtype=np.int64)
    link_free = np.zeros(num_slots, dtype=np.int64)
    # stamp[link]: a batch position that requested the link this round.
    # Written before it is read in every round, so it needs no reset.
    stamp = np.empty(num_slots, dtype=np.int64)
    alive = ids.size
    dead = 0
    while alive:
        tick = ready_a.min()
        sel = np.flatnonzero(ready_a == tick)
        hop_b = hop_a[sel]
        parking = link_ids[hop_b]
        links = parking & (_PARKED - 1)
        batch = positions[: sel.size]
        stamp[links] = batch
        if (stamp[links] == batch).all():
            finish_b = np.maximum(link_free[links], tick)
            finish_b += 1
            link_free[links] = finish_b
        else:
            finish_b = _serve_tick_queues(links, tick, link_free)
        parking &= _PARKED
        finish_b |= parking
        done = int(np.count_nonzero(parking))
        hop_b += 1
        hop_a[sel] = hop_b
        ready_a[sel] = finish_b
        alive -= done
        dead += done
        if dead * 4 >= ids.size and alive:
            keep = ready_a < _PARKED
            parked = ~keep
            completion[ids[parked]] = ready_a[parked] ^ _PARKED
            ids = ids[keep]
            ready_a = ready_a[keep]
            hop_a = hop_a[keep]
            dead = 0
    completion[ids] = ready_a ^ _PARKED
    return _per_phase(completion, phases)


def _serve_tick_queues(links, tick, link_free):
    """Finish ticks of one round's requests when some of them share a link.

    Every request is ready at ``tick`` and the batch is ascending by
    message index, so sorting the unique key ``link · 2^b + position``
    (``2^b`` above the batch size) orders each link's queue as the heap
    does, and a shift and a mask recover both parts.  Each run of equal
    links is one queue: its ``p``-th request (from 0) finishes at
    ``max(tick, link_free) + p + 1``, and the link is next free when the
    whole queue is — every queue in one step.
    """
    size = links.size
    shift = size.bit_length()
    positions = np.arange(size, dtype=np.int64)
    key = links << shift
    key |= positions
    key.sort()
    order = key & ((1 << shift) - 1)
    key >>= shift
    head = np.empty(size, dtype=bool)
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    run_start = np.flatnonzero(head)
    run_link = key[run_start]
    base = np.maximum(link_free[run_link], tick)
    run_length = np.diff(run_start, append=size)
    link_free[run_link] = base + run_length
    # Sorted position i of the queue that starts at s finishes at
    # base + (i - s) + 1.
    base -= run_start - 1
    finish = np.empty(size, dtype=np.int64)
    finish[order] = np.repeat(base, run_length) + positions
    return finish


def _drain_floats(phases):
    """The float drain: ``(makespan, completion)`` of every phase.

    ``phases`` holds :func:`simulate_phases_rounds` entries with messages.

    Each round advances *every* ready message at once instead of popping one
    heap event per hop.  Correctness relies on the batch window: with
    ``t_min`` the earliest pending request time and ``occ_min`` the smallest
    pending occupancy, every request with ``ready < t_min + occ_min`` can be
    served this round, because any request spawned by the round finishes at
    ``max(ready, link_free) + occ >= t_min + occ_min`` (float addition is
    monotone) — strictly after every batch member, exactly where the heap
    would order it.  Within the round, requests are served in the heap's
    per-link order ``(link, ready, message index)``: a round in which no two
    requests share a link (detected with a per-link stamp, no sort) is one
    vectorized step; otherwise a stable lexsort on ``(link, ready)`` groups
    each link's queue into a run, and every queue is drained one *queue
    position* per inner step, the
    runs leaving the lockstep as they empty (``start = max(ready,
    link_free)``, the same float ops in the same order).  Degenerate cases
    where the window collapses (zero occupancy, or times too large for the
    sum to round up) fall back to serving exactly one request — the global
    ``(ready, index)`` minimum — per round, which is verbatim heap order.
    """
    link_ids, first_hop, last_hop, num_slots = _merged_routes(phases)
    occ_parts = []
    for _space, routes, occupancy, hop_part in phases:
        # The loop works in per-hop occupancy throughout; for homogeneous
        # links the per-message value repeats over its hops, producing the
        # exact same floats the per-message form would gather.
        if hop_part is None:
            hop_part = np.repeat(np.asarray(occupancy, dtype=np.float64), routes.hops)
        occ_parts.append(np.asarray(hop_part, dtype=np.float64))
    hop_occupancy = np.concatenate(occ_parts)
    completion = np.zeros(first_hop.size, dtype=np.float64)
    link_free = np.zeros(num_slots, dtype=np.float64)
    # stamp[link]: a batch position that requested the link this round.
    # Written before it is read in every round, so it needs no reset.
    stamp = np.empty(num_slots, dtype=np.int64)

    # The working set, as *aligned* arrays: the global index, ready time,
    # occupancy and hop pointers of every message with hops left.  All
    # per-round work happens on these compact arrays (no gathers through the
    # full message space); completed entries are parked at ready = +inf and
    # physically compacted once a quarter of the set is dead.  The batch
    # window uses the one-time global occupancy minimum: messages only ever
    # leave the working set, so the true pending minimum can only grow, and
    # a smaller-than-necessary window stays correct — it just splits work
    # across more rounds.
    ids = np.flatnonzero(first_hop < last_hop)
    ready_a = np.zeros(ids.size, dtype=np.float64)
    hop_a = first_hop[ids]
    last_a = last_hop[ids]
    positions = np.arange(ids.size, dtype=np.int64)
    occ_floor = hop_occupancy.min() if hop_occupancy.size else 0.0
    alive = ids.size
    dead = 0
    while alive:
        t_min = ready_a.min()
        window = t_min + occ_floor
        if window > t_min:
            sel = np.flatnonzero(ready_a < window)
        else:
            # Degenerate window: serve the single (ready, index)-minimal
            # request this round — verbatim heap semantics, never fast but
            # always exact.
            sel = np.flatnonzero(ready_a == t_min)[:1]
        hop_b = hop_a[sel]
        links = link_ids[hop_b]
        r_b = ready_a[sel]
        o_b = hop_occupancy[hop_b]
        batch = positions[: sel.size]
        stamp[links] = batch
        if (stamp[links] == batch).all():
            # No two requests share a link: every one starts at
            # max(ready, link_free) in one step.
            finish_b = np.maximum(r_b, link_free[links])
            finish_b += o_b
            link_free[links] = finish_b
        else:
            finish_b = _serve_link_queues(links, r_b, o_b, link_free)
        hop_b += 1
        hop_a[sel] = hop_b
        finished = hop_b == last_a[sel]
        done = int(np.count_nonzero(finished))
        if done:
            completion[ids[sel[finished]]] = finish_b[finished]
            finish_b[finished] = np.inf  # park: never batched again
            alive -= done
            dead += done
        ready_a[sel] = finish_b
        if dead * 4 >= ids.size and alive:
            keep = hop_a < last_a
            ids = ids[keep]
            ready_a = ready_a[keep]
            hop_a = hop_a[keep]
            last_a = last_a[keep]
            dead = 0

    return [
        (float(phase_completion.max()), phase_completion)
        for phase_completion in _per_phase(completion, phases)
    ]


def _serve_link_queues(links, ready, occupancy, link_free):
    """Finish times of one round's requests when some of them share a link.

    The batch is ascending by message index, so a stable lexsort on
    ``(link, ready)`` gives the heap's ``(link, ready, index)`` order.
    Each run of equal links is one queue: position ``p`` of every queue
    longer than ``p`` is served in one step, which chains off the
    ``link_free`` the step before left — the heap's arithmetic, one
    vectorized step per queue depth.
    """
    size = links.size
    order = np.lexsort((ready, links))
    sorted_links = links[order]
    head = np.empty(size, dtype=bool)
    head[0] = True
    np.not_equal(sorted_links[1:], sorted_links[:-1], out=head[1:])
    # Per queue: the sorted position of its next request, its end and link.
    served = np.flatnonzero(head)
    run_end = np.append(served[1:], size)
    run_link = sorted_links[served]
    finish = np.empty(size, dtype=np.float64)
    while served.size:
        request = order[served]
        ended = np.maximum(ready[request], link_free[run_link])
        ended += occupancy[request]
        link_free[run_link] = ended
        finish[request] = ended
        served += 1
        longer = np.flatnonzero(served < run_end)
        served, run_end, run_link = served[longer], run_end[longer], run_link[longer]
    return finish


def simulate_phase(
    network: HostNetwork,
    embedding: Embedding,
    traffic: TrafficPattern,
    *,
    max_events: int = 5_000_000,
    faults=None,
) -> SimulationResult:
    """Discrete-event store-and-forward simulation of one communication phase.

    Every directed link serves at most one message at a time; a message
    occupies a link for ``alpha + size/bandwidth`` time units per hop and may
    only request its next link after the previous hop completes.  Contention
    is resolved first-come-first-served with ties broken by message index, so
    the simulation is fully deterministic — and identical under both
    backend implementations.

    Placement and routing are shared between the analytic statistics and
    the event loop, so each phase expands its routes exactly once.  The
    array backend runs the phase as a one-phase
    :func:`simulate_endpoint_phases` call; the node-tuple heap loop of the
    loop backend is its cross-checked reference.

    ``faults`` (a materialized :class:`~repro.graphs.faults.Faults` of the
    host topology) reroutes cut messages over BFS detours; heterogeneous
    per-link weights come from the network's ``link_weights`` spec and
    scale each hop's occupancy.
    """
    if use_array_path():
        endpoints = traffic.endpoint_rank_arrays(embedding.guest.shape)
        (result,) = simulate_endpoint_phases(
            [(network, embedding, endpoints, faults)], max_events=max_events
        )
        return result

    _check_faults(network, faults)
    model = network.cost_model
    link_weight = network.link_weight if network.link_weights is not None else None
    routes = _routes_for(network, embedding, traffic, faults=faults)
    statistics = _statistics_from_routes(model, routes, link_weight=link_weight)
    link_free_at: Dict[DirectedLink, float] = {}
    completion = [0.0] * len(routes)

    # Event queue of pending hop requests.
    queue: List[_LinkRequest] = []
    for index, (links, _size) in enumerate(routes):
        if links:
            heapq.heappush(queue, _LinkRequest(0.0, index, 0))
        else:
            completion[index] = 0.0

    events = 0
    while queue:
        events += 1
        if events > max_events:
            raise SimulationError(
                f"simulation exceeded {max_events} events; the configuration is too large"
            )
        request = heapq.heappop(queue)
        links, size = routes[request.message_index]
        link = links[request.hop_index]
        start = max(request.ready_time, link_free_at.get(link, 0.0))
        if link_weight is None:
            finish = start + model.link_occupancy(size)
        else:
            finish = start + model.link_occupancy(size) * link_weight(*link)
        link_free_at[link] = finish
        if request.hop_index + 1 < len(links):
            heapq.heappush(
                queue,
                _LinkRequest(finish, request.message_index, request.hop_index + 1),
            )
        else:
            completion[request.message_index] = finish

    makespan = max(completion, default=0.0)
    return SimulationResult(
        makespan=makespan,
        statistics=statistics,
        completion_times=np.asarray(completion, dtype=np.float64),
    )
