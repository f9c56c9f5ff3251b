"""The compiled tier's kernel sources: plain Python over flat arrays.

These three functions are the *single algorithmic source of truth* of the
compiled backend, and the differential reference of its C lowering
(:mod:`repro.compiled.ckernels`).  Each is written in a restricted subset
that maps line for line onto C — preallocated NumPy arrays in and out,
scalar locals, ``for``/``while`` loops, no Python objects — and each states
the exact float/integer arithmetic order of the array/loop reference it
replaces, so the bit-for-bit differential contract of PRs 2–8 carries over:

* :func:`drain` — the event loop of ``simulate_phases_rounds``: a binary
  min-heap of ``(ready_time, message_index)`` requests over preallocated CSR
  route arrays, the verbatim semantics of the retained heap references
  (``start = max(ready, link_free)``, ``finish = start + occupancy``, FIFO
  per link with ties broken by message index);
* :func:`expand_fill` — the per-hop body of CSR ``expand_routes``: walk each
  message's per-dimension signed runs, emitting the directed-link id of
  every hop in dimension order;
* :func:`accumulate` — fused per-link count/volume/busy accumulation,
  adding in ``(message, hop)`` order exactly like the three ``np.bincount``
  scatter-adds it replaces.

The functions are also *callable uncompiled* (they are ordinary Python), and
``tests/test_compiled_backend.py`` runs them interpreted on small inputs in
every environment — so even a lane with no toolchain at all pins these
sources against the array backend.

Status returns are ``int`` codes rather than exceptions (C has none):
``0`` is success, ``1`` means the event budget was exceeded
(the caller raises :class:`~repro.exceptions.SimulationError`).
"""

from __future__ import annotations

__all__ = [
    "drain",
    "expand_fill",
    "accumulate",
    "KERNEL_NAMES",
]

#: The table of kernel entry points every tier must provide, in one place so
#: the C adapters and the dispatch facade can never drift apart.
KERNEL_NAMES = ("drain", "expand_fill", "accumulate")


def drain(
    next_hop,
    last_hop,
    link_ids,
    hop_occupancy,
    phase_of,
    link_free,
    heap_time,
    heap_msg,
    completion,
    events,
    max_events,
):
    """Heap event loop over merged CSR routes; returns 0, or 1 on budget.

    ``next_hop``/``last_hop`` are the per-message hop cursors (``next_hop``
    is mutated), ``link_ids``/``hop_occupancy`` the merged per-hop arrays,
    ``phase_of`` the phase index of each message (for the per-phase
    ``events`` budget), ``link_free`` the per-slot busy-until times (zeroed
    by the caller).  ``heap_time``/``heap_msg`` are scratch arrays of at
    least one slot per message.

    The heap key is ``(ready_time, message_index)`` — each message has at
    most one pending request, so keys are strictly ordered and any correct
    min-heap pops the exact sequence ``heapq`` would.  The float arithmetic
    (``start = max(ready, free)``, ``finish = start + cost``) matches the
    loop/array references operation for operation.
    """
    size = 0
    num_messages = next_hop.shape[0]
    for index in range(num_messages):
        if next_hop[index] < last_hop[index]:
            heap_time[size] = 0.0
            heap_msg[size] = index
            size += 1
    while size > 0:
        ready = heap_time[0]
        index = heap_msg[0]
        # Pop: move the last entry to the root and sift it down.
        size -= 1
        hole_time = heap_time[size]
        hole_msg = heap_msg[size]
        pos = 0
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            right = child + 1
            if right < size and (
                heap_time[right] < heap_time[child]
                or (
                    heap_time[right] == heap_time[child]
                    and heap_msg[right] < heap_msg[child]
                )
            ):
                child = right
            if heap_time[child] < hole_time or (
                heap_time[child] == hole_time and heap_msg[child] < hole_msg
            ):
                heap_time[pos] = heap_time[child]
                heap_msg[pos] = heap_msg[child]
                pos = child
            else:
                break
        heap_time[pos] = hole_time
        heap_msg[pos] = hole_msg
        # Serve the popped request.
        phase = phase_of[index]
        events[phase] += 1
        if events[phase] > max_events:
            return 1
        hop = next_hop[index]
        link = link_ids[hop]
        free_at = link_free[link]
        start = ready if ready >= free_at else free_at
        finish = start + hop_occupancy[hop]
        link_free[link] = finish
        next_hop[index] = hop + 1
        if hop + 1 < last_hop[index]:
            # Push (finish, index): sift up from the new slot.
            pos = size
            size += 1
            while pos > 0:
                parent = (pos - 1) // 2
                if finish < heap_time[parent] or (
                    finish == heap_time[parent] and index < heap_msg[parent]
                ):
                    heap_time[pos] = heap_time[parent]
                    heap_msg[pos] = heap_msg[parent]
                    pos = parent
                else:
                    break
            heap_time[pos] = finish
            heap_msg[pos] = index
        else:
            completion[index] = finish
    return 0


def expand_fill(
    src_digits,
    offsets,
    starts,
    lengths,
    weights,
    num_nodes,
    torus,
    link_ids,
    digit_scratch,
):
    """Fill the CSR ``link_ids`` of batched dimension-ordered routes.

    ``src_digits``/``offsets`` are the ``(m, d)`` endpoint digits and signed
    per-dimension step counts (``signed_offset_digits`` output — the torus
    tie-break toward increasing coordinates is already encoded in the sign);
    ``starts`` the precomputed CSR row starts.  Each message walks its
    dimensions in order, maintaining the current digit and flat rank
    incrementally — the emitted ids equal the vectorized expansion's element
    for element (all-integer arithmetic).
    """
    num_messages = src_digits.shape[0]
    dims = src_digits.shape[1]
    pos = 0
    for index in range(num_messages):
        rank = 0
        for j in range(dims):
            digit_scratch[j] = src_digits[index, j]
            rank += src_digits[index, j] * weights[j]
        for j in range(dims):
            off = offsets[index, j]
            if off == 0:
                continue
            if off > 0:
                direction = 1
                channel = 2 * j
                count = off
            else:
                direction = -1
                channel = 2 * j + 1
                count = -off
            length = lengths[j]
            weight = weights[j]
            for _step in range(count):
                link_ids[pos] = channel * num_nodes + rank
                pos += 1
                coord = digit_scratch[j] + direction
                if torus != 0:
                    coord = coord % length
                rank += (coord - digit_scratch[j]) * weight
                digit_scratch[j] = coord
    return 0


def accumulate(
    starts,
    link_ids,
    sizes,
    occupancy,
    hop_occupancy,
    use_hop,
    counts,
    volume,
    busy,
):
    """Fused per-link loads: counts, volume and busy time in one pass.

    Adds in ``(message, hop)`` order — the same sequential order the three
    ``np.bincount`` scatter-adds (and the loop reference's dict updates)
    accumulate, so the float sums agree bit for bit.  ``use_hop`` selects
    the per-hop occupancy array (heterogeneous links) over the per-message
    one.
    """
    num_messages = starts.shape[0] - 1
    for index in range(num_messages):
        for hop in range(starts[index], starts[index + 1]):
            link = link_ids[hop]
            counts[link] += 1
            volume[link] += sizes[index]
            if use_hop != 0:
                busy[link] += hop_occupancy[hop]
            else:
                busy[link] += occupancy[index]
    return 0
