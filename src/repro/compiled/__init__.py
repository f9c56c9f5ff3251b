"""Compiled kernel tier for the simulator's hot loops (``backend="compiled"``).

The package ports the simulator's irregular kernels — the event-loop drain
and CSR route expansion + link-load accumulation — to a compiled C tier
(the metric and optimizer kernels are array-only: their table-driven NumPy
form outruns a per-row C loop):

* :mod:`~repro.compiled.kernels_py` — the kernel sources (plain Python over
  flat arrays; the algorithmic contract and the C tier's differential
  reference);
* :mod:`~repro.compiled.ckernels` — C-via-cffi tier (content-hashed shared
  library, built once per machine);
* :mod:`~repro.compiled.dispatch` — tier loading and the
  :class:`~repro.compiled.dispatch.KernelSet` facade the hook sites call;
* :mod:`~repro.compiled.toolchain` — the detection flag, monkeypatchable
  for degradation tests.

Results are pinned bit-for-bit against the array backend; when no toolchain
is available the runtime context falls back to ``"array"`` with one
RuntimeWarning per process.
"""

from __future__ import annotations

from .dispatch import KernelSet, active_kernels, interpreted_kernels, load_kernels
from .toolchain import HAVE_CFFI, compiled_tier_available

__all__ = [
    "KernelSet",
    "active_kernels",
    "interpreted_kernels",
    "load_kernels",
    "HAVE_CFFI",
    "compiled_tier_available",
]
