"""C tier: the kernel sources lowered to C, built once, ``dlopen``-ed.

The compiled tier for machines with cffi and a C compiler (the ROADMAP's
"generated C via cffi" option, in the spirit of Exo's ``LoopIR_compiler``
lowering).  The C bodies below are line-for-line translations of
:mod:`repro.compiled.kernels_py` — same loops, same float/integer operation
order (``pymod`` reproduces Python's nonnegative ``%`` where the sources
rely on it) — so the two are interchangeable under the differential tests.

Build model: the source is hashed, compiled with ``$CC -O2 -shared -fPIC``
into a content-addressed shared library under the user cache directory
(``$REPRO_COMPILED_CACHE`` overrides), and loaded with ``ffi.dlopen``.  A
rebuild happens only when the source (or its hash inputs) change; the
compile-to-temporary + ``os.replace`` dance keeps concurrent processes from
ever seeing a torn library (the same atomicity discipline as
``utils/atomicio.py``).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Dict

from .toolchain import find_c_compiler

__all__ = ["function_table", "library_path"]

_CDEF = """
int64_t repro_drain(int64_t num_messages, int64_t *next_hop,
                    const int64_t *last_hop, const int64_t *link_ids,
                    const double *hop_occupancy, const int64_t *phase_of,
                    double *link_free, double *heap_time, int64_t *heap_msg,
                    double *completion, int64_t *events, int64_t max_events);
void repro_expand_fill(int64_t num_messages, int64_t dims,
                       const int64_t *src_digits, const int64_t *offsets,
                       const int64_t *starts, const int64_t *lengths,
                       const int64_t *weights, int64_t num_nodes,
                       int64_t torus, int64_t *link_ids,
                       int64_t *digit_scratch);
void repro_accumulate(int64_t num_messages, const int64_t *starts,
                      const int64_t *link_ids, const double *sizes,
                      const double *occupancy, const double *hop_occupancy,
                      int64_t use_hop, int64_t *counts, double *volume,
                      double *busy);
"""

_SOURCE = r"""
#include <stdint.h>

/* Python's modulo: the result carries the divisor's sign (always
 * nonnegative here, lengths being positive) — C's %% truncates instead. */
static int64_t pymod(int64_t value, int64_t length) {
    int64_t r = value % length;
    return r < 0 ? r + length : r;
}

int64_t repro_drain(int64_t num_messages, int64_t *next_hop,
                    const int64_t *last_hop, const int64_t *link_ids,
                    const double *hop_occupancy, const int64_t *phase_of,
                    double *link_free, double *heap_time, int64_t *heap_msg,
                    double *completion, int64_t *events, int64_t max_events) {
    int64_t size = 0;
    for (int64_t index = 0; index < num_messages; index++) {
        if (next_hop[index] < last_hop[index]) {
            heap_time[size] = 0.0;
            heap_msg[size] = index;
            size++;
        }
    }
    while (size > 0) {
        double ready = heap_time[0];
        int64_t index = heap_msg[0];
        /* Pop: move the last entry to the root and sift it down. */
        size--;
        double hole_time = heap_time[size];
        int64_t hole_msg = heap_msg[size];
        int64_t pos = 0;
        for (;;) {
            int64_t child = 2 * pos + 1;
            if (child >= size) break;
            int64_t right = child + 1;
            if (right < size &&
                (heap_time[right] < heap_time[child] ||
                 (heap_time[right] == heap_time[child] &&
                  heap_msg[right] < heap_msg[child])))
                child = right;
            if (heap_time[child] < hole_time ||
                (heap_time[child] == hole_time && heap_msg[child] < hole_msg)) {
                heap_time[pos] = heap_time[child];
                heap_msg[pos] = heap_msg[child];
                pos = child;
            } else {
                break;
            }
        }
        heap_time[pos] = hole_time;
        heap_msg[pos] = hole_msg;
        /* Serve the popped request. */
        int64_t phase = phase_of[index];
        events[phase]++;
        if (events[phase] > max_events) return 1;
        int64_t hop = next_hop[index];
        int64_t link = link_ids[hop];
        double free_at = link_free[link];
        double start = ready >= free_at ? ready : free_at;
        double finish = start + hop_occupancy[hop];
        link_free[link] = finish;
        next_hop[index] = hop + 1;
        if (hop + 1 < last_hop[index]) {
            /* Push (finish, index): sift up from the new slot. */
            pos = size;
            size++;
            while (pos > 0) {
                int64_t parent = (pos - 1) / 2;
                if (finish < heap_time[parent] ||
                    (finish == heap_time[parent] && index < heap_msg[parent])) {
                    heap_time[pos] = heap_time[parent];
                    heap_msg[pos] = heap_msg[parent];
                    pos = parent;
                } else {
                    break;
                }
            }
            heap_time[pos] = finish;
            heap_msg[pos] = index;
        } else {
            completion[index] = finish;
        }
    }
    return 0;
}

void repro_expand_fill(int64_t num_messages, int64_t dims,
                       const int64_t *src_digits, const int64_t *offsets,
                       const int64_t *starts, const int64_t *lengths,
                       const int64_t *weights, int64_t num_nodes,
                       int64_t torus, int64_t *link_ids,
                       int64_t *digit_scratch) {
    int64_t pos = 0;
    (void)starts;
    for (int64_t index = 0; index < num_messages; index++) {
        int64_t rank = 0;
        for (int64_t j = 0; j < dims; j++) {
            digit_scratch[j] = src_digits[index * dims + j];
            rank += src_digits[index * dims + j] * weights[j];
        }
        for (int64_t j = 0; j < dims; j++) {
            int64_t off = offsets[index * dims + j];
            if (off == 0) continue;
            int64_t direction, channel, count;
            if (off > 0) {
                direction = 1;
                channel = 2 * j;
                count = off;
            } else {
                direction = -1;
                channel = 2 * j + 1;
                count = -off;
            }
            int64_t length = lengths[j];
            int64_t weight = weights[j];
            for (int64_t step = 0; step < count; step++) {
                link_ids[pos++] = channel * num_nodes + rank;
                int64_t coord = digit_scratch[j] + direction;
                if (torus != 0) coord = pymod(coord, length);
                rank += (coord - digit_scratch[j]) * weight;
                digit_scratch[j] = coord;
            }
        }
    }
}

void repro_accumulate(int64_t num_messages, const int64_t *starts,
                      const int64_t *link_ids, const double *sizes,
                      const double *occupancy, const double *hop_occupancy,
                      int64_t use_hop, int64_t *counts, double *volume,
                      double *busy) {
    for (int64_t index = 0; index < num_messages; index++) {
        for (int64_t hop = starts[index]; hop < starts[index + 1]; hop++) {
            int64_t link = link_ids[hop];
            counts[link]++;
            volume[link] += sizes[index];
            busy[link] += use_hop != 0 ? hop_occupancy[hop] : occupancy[index];
        }
    }
}
"""


def _cache_dir() -> Path:
    """Where compiled libraries live: ``$REPRO_COMPILED_CACHE`` or user cache."""
    override = os.environ.get("REPRO_COMPILED_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "repro-compiled"
    try:
        return Path.home() / ".cache" / "repro-compiled"
    except RuntimeError:  # pragma: no cover - no resolvable home directory
        return Path(tempfile.gettempdir()) / "repro-compiled"


def library_path() -> Path:
    """The content-addressed shared-library path (existing or to be built)."""
    digest = hashlib.sha256((_CDEF + _SOURCE).encode("utf-8")).hexdigest()[:16]
    return _cache_dir() / f"repro_kernels_{digest}.so"


def _build_library(path: Path) -> None:
    """Compile the kernel source into ``path`` (atomic via temp + replace)."""
    compiler = find_c_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (set $CC or install cc/gcc/clang)")
    path.parent.mkdir(parents=True, exist_ok=True)
    source_path = path.with_suffix(".c")
    source_path.write_text(_SOURCE, encoding="utf-8")
    fd, temp_name = tempfile.mkstemp(
        prefix=path.stem, suffix=".so.tmp", dir=str(path.parent)
    )
    os.close(fd)
    try:
        completed = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", temp_name, str(source_path)],
            capture_output=True,
            text=True,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed to build the compiled kernels: "
                f"{completed.stderr.strip()}"
            )
        os.replace(temp_name, path)
    finally:
        if os.path.exists(temp_name):  # pragma: no cover - error-path cleanup
            os.unlink(temp_name)


_LIB = None
_FFI = None


def _library():
    """The loaded kernel library (built on first use, cached per process)."""
    global _LIB, _FFI
    if _LIB is None:
        import cffi

        _FFI = cffi.FFI()
        _FFI.cdef(_CDEF)
        path = library_path()
        if not path.exists():
            _build_library(path)
        _LIB = _FFI.dlopen(str(path))
    return _LIB


def function_table() -> Dict[str, Callable]:
    """Kernel name -> adapter matching the ``kernels_py`` call signatures.

    The adapters only cast: the dispatch facade already normalized every
    array to a contiguous ``int64``/``float64`` buffer, so each call is a
    handful of pointer casts plus the foreign call.  The adapters keep
    references to the arrays for the duration of the call, so the buffers
    cannot be collected mid-kernel.
    """
    lib = _library()
    ffi = _FFI

    def i64(array):
        return ffi.cast("int64_t *", array.ctypes.data)

    def f64(array):
        return ffi.cast("double *", array.ctypes.data)

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
        return lib.repro_drain(
            next_hop.shape[0],
            i64(next_hop),
            i64(last_hop),
            i64(link_ids),
            f64(hop_occupancy),
            i64(phase_of),
            f64(link_free),
            f64(heap_time),
            i64(heap_msg),
            f64(completion),
            i64(events),
            max_events,
        )

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
        lib.repro_expand_fill(
            src_digits.shape[0],
            src_digits.shape[1],
            i64(src_digits),
            i64(offsets),
            i64(starts),
            i64(lengths),
            i64(weights),
            num_nodes,
            torus,
            i64(link_ids),
            i64(digit_scratch),
        )
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
        lib.repro_accumulate(
            starts.shape[0] - 1,
            i64(starts),
            i64(link_ids),
            f64(sizes),
            f64(occupancy),
            f64(hop_occupancy),
            use_hop,
            i64(counts),
            f64(volume),
            f64(busy),
        )
        return 0

    return {
        "drain": drain,
        "expand_fill": expand_fill,
        "accumulate": accumulate,
    }
