"""Kernel-tier selection and the array-level facade the hot paths call.

:func:`active_kernels` is the single question every hook site asks: *is the
compiled backend in effect, and did a kernel tier actually load?*  It
returns a :class:`KernelSet` (or ``None`` — the caller then runs its array
path unchanged), so the ported simulator kernels degrade per call site with
zero configuration:

* the ambient context must resolve to ``backend="compiled"`` (the context
  already warned and fell back to ``"array"`` when no toolchain exists, so
  reaching a hook site under ``"compiled"`` normally implies a tier); and
* the C/cffi library must load.  A *load* failure (a compiler that errors
  out) is reported with one RuntimeWarning and blacklisted for the process,
  and the array path takes over.

:class:`KernelSet` owns every array-normalization detail — contiguity,
``int64``/``float64`` dtypes, scratch allocation — so the C tier and the
interpreted sources the tests drive share one calling convention and the
kernels themselves stay monomorphic.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Optional

import numpy as np

from ..numbering.arrays import digit_weights
from . import toolchain
from .kernels_py import KERNEL_NAMES

__all__ = ["KernelSet", "active_kernels", "load_kernels", "interpreted_kernels"]


class KernelSet:
    """High-level entry points over one tier's kernel table.

    ``tier`` is ``"cffi"`` or ``"python"`` (the interpreted sources, used by
    tests); ``table`` maps the names of
    :data:`~repro.compiled.kernels_py.KERNEL_NAMES` to callables with the
    ``kernels_py`` signatures.
    """

    __slots__ = ("tier", "_table")

    def __init__(self, tier: str, table: Dict[str, Callable]):
        missing = [name for name in KERNEL_NAMES if name not in table]
        if missing:
            raise ValueError(f"kernel table is missing {missing}")
        self.tier = tier
        self._table = table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelSet({self.tier!r})"

    # ------------------------------------------------------------------ #
    # Simulator: the merged event-loop drain
    # ------------------------------------------------------------------ #
    def drain(
        self,
        first_hop,
        last_hop,
        link_ids,
        hop_occupancy,
        phase_of,
        num_links: int,
        num_phases: int,
        max_events: int,
    ):
        """Run the heap drain; returns ``(status, completion, events)``.

        ``status`` is 0 on success, 1 when some phase exceeded
        ``max_events`` (the caller raises).  ``completion`` is the merged
        per-message finish-time array; messages with no hops stay 0.0.
        """
        next_hop = np.ascontiguousarray(first_hop, dtype=np.int64).copy()
        last = np.ascontiguousarray(last_hop, dtype=np.int64)
        ids = np.ascontiguousarray(link_ids, dtype=np.int64)
        occupancy = np.ascontiguousarray(hop_occupancy, dtype=np.float64)
        phases = np.ascontiguousarray(phase_of, dtype=np.int64)
        messages = next_hop.shape[0]
        link_free = np.zeros(num_links, dtype=np.float64)
        heap_time = np.empty(messages, dtype=np.float64)
        heap_msg = np.empty(messages, dtype=np.int64)
        completion = np.zeros(messages, dtype=np.float64)
        events = np.zeros(num_phases, dtype=np.int64)
        status = self._table["drain"](
            next_hop,
            last,
            ids,
            occupancy,
            phases,
            link_free,
            heap_time,
            heap_msg,
            completion,
            events,
            max_events,
        )
        return int(status), completion, events

    # ------------------------------------------------------------------ #
    # Netsim: CSR route expansion and fused link loads
    # ------------------------------------------------------------------ #
    def expand_link_ids(
        self, src_digits, offsets, starts, shape, num_nodes: int, torus: bool
    ):
        """The per-hop ``link_ids`` array of the CSR route expansion."""
        src = np.ascontiguousarray(src_digits, dtype=np.int64)
        offs = np.ascontiguousarray(offsets, dtype=np.int64)
        row_starts = np.ascontiguousarray(starts, dtype=np.int64)
        lengths = np.asarray(tuple(shape), dtype=np.int64)
        weights = np.ascontiguousarray(digit_weights(shape), dtype=np.int64)
        link_ids = np.empty(int(row_starts[-1]), dtype=np.int64)
        scratch = np.empty(lengths.shape[0], dtype=np.int64)
        self._table["expand_fill"](
            src,
            offs,
            row_starts,
            lengths,
            weights,
            int(num_nodes),
            1 if torus else 0,
            link_ids,
            scratch,
        )
        return link_ids

    def link_loads(
        self, num_slots: int, starts, link_ids, sizes, occupancy, hop_occupancy=None
    ):
        """Fused ``(counts, volume, busy)`` accumulation over the CSR hops."""
        row_starts = np.ascontiguousarray(starts, dtype=np.int64)
        ids = np.ascontiguousarray(link_ids, dtype=np.int64)
        message_sizes = np.ascontiguousarray(sizes, dtype=np.float64)
        message_occupancy = np.ascontiguousarray(occupancy, dtype=np.float64)
        use_hop = hop_occupancy is not None
        per_hop = (
            np.ascontiguousarray(hop_occupancy, dtype=np.float64)
            if use_hop
            else np.zeros(0, dtype=np.float64)
        )
        counts = np.zeros(num_slots, dtype=np.int64)
        volume = np.zeros(num_slots, dtype=np.float64)
        busy = np.zeros(num_slots, dtype=np.float64)
        self._table["accumulate"](
            row_starts,
            ids,
            message_sizes,
            message_occupancy,
            per_hop,
            1 if use_hop else 0,
            counts,
            volume,
            busy,
        )
        return counts, volume, busy


# --------------------------------------------------------------------------- #
# Tier loading
# --------------------------------------------------------------------------- #
_LOADED: Optional[KernelSet] = None
_BROKEN = False


def load_kernels() -> Optional[KernelSet]:
    """The C kernel tier, or ``None`` when it is absent or broken.

    A load failure (as opposed to mere absence) warns once per process and
    blacklists the tier, so a broken toolchain degrades exactly like a
    missing one instead of failing every call.
    """
    global _LOADED, _BROKEN
    if not toolchain._HAVE_CFFI or _BROKEN:
        return None
    if _LOADED is None:
        try:
            from . import ckernels

            _LOADED = KernelSet("cffi", ckernels.function_table())
        except Exception as error:  # pragma: no cover - environment-specific
            _BROKEN = True
            warnings.warn(
                f"the cffi kernel tier failed to load ({error}); "
                "falling back to the array backend",
                RuntimeWarning,
                stacklevel=2,
            )
    return _LOADED


def active_kernels() -> Optional[KernelSet]:
    """The kernel set to use right now, honouring the ambient context.

    ``None`` unless the resolved backend is ``"compiled"`` *and* a tier
    loads — the hook sites treat ``None`` as "run the array path".
    """
    from ..runtime.context import current

    if current().resolved_backend() != "compiled":
        return None
    return load_kernels()


def interpreted_kernels() -> KernelSet:
    """The uncompiled kernel sources as a :class:`KernelSet`.

    Slow — for differential tests only: it lets every environment (even one
    with no toolchain at all) pin the shared kernel sources against the
    array backend on small inputs.
    """
    from . import kernels_py

    return KernelSet(
        "python", {name: getattr(kernels_py, name) for name in KERNEL_NAMES}
    )
