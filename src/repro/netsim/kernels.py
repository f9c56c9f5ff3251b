"""Vectorized network-simulation kernels: batched routing and link loads.

The per-message reference path (:func:`repro.netsim.routing.route_message`)
builds node-tuple paths one hop at a time; at survey scale that per-hop
Python dominates the whole simulation layer.  This module rebuilds the hot
path on flat ``int64`` arrays:

* :class:`LinkIndexSpace` — a flat index space for the *directed* links of a
  torus/mesh: link ``(dimension j, direction ±1, source rank r)`` gets the id
  ``(2 j + [direction < 0]) · n + r``, so per-link accumulators are plain
  arrays instead of dicts keyed by ``(node, node)`` tuples;
* :func:`expand_routes` — batched dimension-ordered routing: per-dimension
  signed offsets (:func:`repro.numbering.arrays.signed_offset_digits`, torus
  wraparound included) expanded into a CSR-style array of per-hop link ids,
  with no per-hop Python;
* :func:`accumulate_link_loads` — message counts, byte volume and busy time
  per directed link via ``np.bincount`` scatter-adds over the expanded hops.

Everything here reproduces the loop reference *exactly* — same hop order,
same tie-breaks, bit-for-bit equal link statistics — which the differential
tests in ``tests/test_netsim_kernels.py`` assert node-for-node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..graphs.base import CartesianGraph
from ..graphs.faults import Faults
from ..numbering.arrays import (
    digit_weights,
    indices_to_digits,
    signed_offset_digits,
)
from ..types import Node

__all__ = [
    "LinkIndexSpace",
    "RouteArrays",
    "expand_routes",
    "accumulate_link_loads",
    "dead_slot_mask",
    "apply_fault_detours",
]


class LinkIndexSpace:
    """Flat ids for the directed links of a torus/mesh.

    A directed link is identified by its *source* node rank, the dimension it
    travels along and its direction; the id layout is::

        id = (2 * dimension + (1 if direction < 0 else 0)) * n + source_rank

    giving ``2 d n`` slots.  Slots that no physical link occupies (mesh
    boundary steps, and the ``-`` direction of length-2 torus dimensions,
    which routing never takes) simply stay at zero load — the accumulators
    are dense arrays, not per-link records.
    """

    def __init__(self, topology: CartesianGraph):
        self.topology = topology
        self.shape = topology.shape
        self.is_torus = topology.is_torus
        self.num_nodes = topology.size
        self.dimension = topology.dimension
        self.lengths = np.asarray(self.shape, dtype=np.int64)
        self.weights = digit_weights(self.shape)

    @property
    def num_slots(self) -> int:
        """Total directed-link id slots: ``2 * dimension * num_nodes``."""
        return 2 * self.dimension * self.num_nodes

    def decode(self, link_ids):
        """Source and destination node ranks of each link id (vectorized).

        Only meaningful for ids actually produced by routing (mesh boundary
        slots would decode to out-of-range coordinates).
        """
        ids = np.asarray(link_ids, dtype=np.int64)
        channel, source = np.divmod(ids, self.num_nodes)
        dim, negative = np.divmod(channel, 2)
        delta = np.where(negative == 1, -1, 1)
        weight = self.weights[dim]
        length = self.lengths[dim]
        coord = (source // weight) % length
        moved = coord + delta
        if self.is_torus:
            moved %= length
        return source, source + (moved - coord) * weight

    def link_tuples(self, link_ids) -> List[Tuple[Node, Node]]:
        """The ``(source, destination)`` node-tuple form of each link id."""
        sources, targets = self.decode(link_ids)
        source_digits = indices_to_digits(sources, self.shape)
        target_digits = indices_to_digits(targets, self.shape)
        return [
            (tuple(source), tuple(target))
            for source, target in zip(source_digits.tolist(), target_digits.tolist())
        ]


@dataclass(frozen=True)
class RouteArrays:
    """CSR-style batch of routes.

    ``link_ids[starts[i]:starts[i + 1]]`` are the directed-link ids message
    ``i`` traverses, in hop order, and ``hops[i]`` is their count.
    :func:`expand_routes` builds dimension-ordered routes (dimension 0
    corrected first, exactly the order of
    :func:`repro.graphs.paths.dimension_order_path`), each as long as the
    host graph distance; :func:`apply_fault_detours` swaps the cut ones for
    their detours.
    """

    hops: "object"
    starts: "object"
    link_ids: "object"

    @property
    def num_messages(self) -> int:
        return len(self.hops)

    @property
    def total_hops(self) -> int:
        return len(self.link_ids)


def expand_routes(space: LinkIndexSpace, src_digits, dst_digits) -> RouteArrays:
    """Batched dimension-ordered routing over mixed-radix coordinates.

    ``src_digits`` / ``dst_digits`` are ``(m, d)`` digit rows of placed
    message endpoints in the host base.  The expansion works per run (one
    run = one message × one dimension): while dimension ``j`` is being
    corrected, dimensions ``< j`` already sit at the target digits and
    dimensions ``>= j`` still at the source digits, so the ``k``-th hop of
    the run leaves the node whose dimension-``j`` coordinate is
    ``a_j + direction · k`` (mod ``l_j`` on a torus) on the fixed axis line
    through that position.  Its link id therefore advances by the signed
    digit weight ``direction · w_j`` every hop, less one ring ``l_j · w_j``
    at the torus wrap.  The per-hop work is one ``repeat`` of the per-run
    steps and one running sum, with each run's first id written in as a
    jump — no per-hop division or gather, one full-length array, and no
    per-hop Python.
    """
    src_digits = np.asarray(src_digits, dtype=np.int64)
    dst_digits = np.asarray(dst_digits, dtype=np.int64)
    m, d = src_digits.shape
    weights = space.weights

    # Each (m, d) temporary alive at once raises the call's memory peak, so
    # the runs are read out of the offsets before anything else is built.
    offsets = signed_offset_digits(
        src_digits, dst_digits, space.shape, torus=space.is_torus
    )
    runs = np.abs(offsets)
    hops = runs.sum(axis=1)
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(hops, out=starts[1:])
    # One entry per non-empty run: its flat (message, dimension) position,
    # its length and its direction.
    run = np.flatnonzero(runs)
    if run.size == 0:
        return RouteArrays(
            hops=hops, starts=starts, link_ids=np.zeros(0, dtype=np.int64)
        )
    length = runs.ravel()[run]
    backward = offsets.ravel()[run] < 0
    del offsets, runs

    # Flat host rank of the position from which the dimension-j run departs
    # (dims < j at the target, dims >= j at the source): the source node of
    # the run's first hop.
    delta_flat = dst_digits - src_digits
    delta_flat *= weights
    departure = np.zeros((m, d), dtype=np.int64)
    np.cumsum(delta_flat[:, :-1], axis=1, out=departure[:, 1:])
    del delta_flat
    departure += (src_digits @ weights)[:, None]
    first_link = departure.ravel()[run]
    del departure

    # Per run: the per-hop id step (the signed digit weight) and the link
    # ids of its first and last hops.
    dim = run % d
    step = weights[dim]
    np.negative(step, out=step, where=backward)
    first_link += (2 * dim + backward) * space.num_nodes
    if space.is_torus:
        coord = src_digits.ravel()[run]
        ring = space.lengths[dim]
    del run, dim
    last_link = (length - 1) * step
    last_link += first_link
    run_start = np.cumsum(length)
    run_start -= length

    # Within a run the id advances by the step every hop, so the ids are a
    # running sum of the repeated steps, with each run's first id entering
    # as the jump from the previous run's last.
    link_ids = np.repeat(step, length)
    if space.is_torus:
        # A run is at most half a ring long, so it wraps at most once: at
        # the hop whose source coordinate would leave [0, l_j), the id
        # moves one ring against the direction of travel.
        before_wrap = np.where(backward, coord + 1, ring - coord)
        wrap = np.flatnonzero(before_wrap < length)
        wrap_jump = ring[wrap] * step[wrap]
        link_ids[run_start[wrap] + before_wrap[wrap]] -= wrap_jump
        last_link[wrap] -= wrap_jump
    link_ids[0] = first_link[0]
    first_link[1:] -= last_link[:-1]
    link_ids[run_start[1:]] = first_link[1:]
    np.cumsum(link_ids, out=link_ids)
    return RouteArrays(hops=hops, starts=starts, link_ids=link_ids)


def accumulate_link_loads(
    space: LinkIndexSpace, routes: RouteArrays, sizes, occupancy, *, hop_occupancy=None
):
    """Per-directed-link message counts, volume and busy time.

    ``sizes`` and ``occupancy`` are per-*message* arrays; each is repeated
    over its message's hops and scatter-added onto the flat link id space
    with ``np.bincount`` (additions happen in ``(message, hop)`` order, the
    same order the loop reference accumulates its dicts, so the float sums
    agree bit for bit).  ``hop_occupancy`` (aligned with ``link_ids``)
    overrides the repeated per-message occupancy for heterogeneous links,
    where each hop's busy time carries its own link weight.  Returns
    ``(counts, volume, busy)`` arrays of length
    :attr:`LinkIndexSpace.num_slots`.
    """
    slots = space.num_slots
    counts = np.bincount(routes.link_ids, minlength=slots)
    volume = np.bincount(
        routes.link_ids, weights=np.repeat(sizes, routes.hops), minlength=slots
    )
    if hop_occupancy is None:
        hop_occupancy = np.repeat(occupancy, routes.hops)
    busy = np.bincount(routes.link_ids, weights=hop_occupancy, minlength=slots)
    return counts, volume, busy


def dead_slot_mask(space: LinkIndexSpace, faults: Faults):
    """Boolean mask over the slot space: True where the directed link is dead.

    Both orientations of every dead undirected link are marked, plus every
    link into or out of a dead node.  The fault sets are small, so this is a
    short Python loop over them — the per-hop work stays vectorized in
    :func:`apply_fault_detours`.
    """
    from .weights import directed_slot_id

    mask = np.zeros(space.num_slots, dtype=bool)
    topology = space.topology
    pairs = set()
    for u, v in faults.dead_links:
        pairs.add((u, v))
        pairs.add((v, u))
    for rank in faults.dead_nodes:
        node = topology.index_node(rank)
        for neighbor in topology.neighbors(node):
            other = topology.node_index(neighbor)
            pairs.add((rank, other))
            pairs.add((other, rank))
    for u, v in pairs:
        mask[directed_slot_id(topology, topology.index_node(u), topology.index_node(v))] = True
    return mask


def apply_fault_detours(
    space: LinkIndexSpace, routes: RouteArrays, faults: Faults, source_ranks, target_ranks
) -> RouteArrays:
    """Replace every route cut by the faults with its surviving BFS detour.

    The batched dimension-ordered expansion stays untouched for unaffected
    messages; cut messages (detected with one mask gather over the expanded
    hops) are re-routed through the *same* deterministic
    :meth:`~repro.graphs.faults.Faults.shortest_detour` the loop backend
    uses, so both backends traverse identical link sequences.  A dead
    endpoint, or a disconnected pair, raises
    :class:`~repro.exceptions.SimulationError`.

    Returns ``routes`` itself when no route is cut, else new arrays whose
    ``hops``/``starts``/``link_ids`` describe the detoured routes.
    """
    from .weights import directed_slot_id

    if faults.dead_nodes:
        dead = np.zeros(space.num_nodes, dtype=bool)
        dead[list(faults.dead_nodes)] = True
        if bool(dead[source_ranks].any() or dead[target_ranks].any()):
            raise SimulationError("a message endpoint is a dead node")
    if routes.num_messages == 0:
        return routes
    mask = dead_slot_mask(space, faults)
    hop_dead = mask[routes.link_ids]
    if not bool(hop_dead.any()):
        return routes
    m = routes.num_messages
    message_of_hop = np.repeat(np.arange(m, dtype=np.int64), routes.hops)
    cut = np.bincount(message_of_hop, weights=hop_dead, minlength=m) > 0

    topology = space.topology
    pieces = np.split(routes.link_ids, routes.starts[1:-1])
    for index in np.flatnonzero(cut):
        ranks = faults.shortest_detour(
            int(source_ranks[index]), int(target_ranks[index])
        )
        if ranks is None:
            raise SimulationError(
                "no surviving route between two message endpoints; "
                "the faults disconnect them"
            )
        pieces[int(index)] = np.asarray(
            [
                directed_slot_id(
                    topology, topology.index_node(a), topology.index_node(b)
                )
                for a, b in zip(ranks, ranks[1:])
            ],
            dtype=np.int64,
        )
    hops = np.asarray([piece.size for piece in pieces], dtype=np.int64)
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(hops, out=starts[1:])
    link_ids = (
        np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
    )
    return RouteArrays(hops=hops, starts=starts, link_ids=link_ids)
