"""Compiled-tier toolchain detection: cffi plus a C compiler.

The compiled backend (``ExecutionContext(backend="compiled")``) needs cffi
and a C compiler at runtime: the kernel sources of
:mod:`repro.compiled.kernels_py` are hand lowered to C
(:mod:`repro.compiled.ckernels`), built once into a shared library keyed by
a content hash and ``dlopen``-ed (the ``LoopIR_compiler``-style lowering the
ROADMAP names).

Neither is a hard dependency.  This module only *detects* them — a
module-spec lookup and a ``$CC``/``cc``/``gcc``/``clang`` search — and
exposes the result as the monkeypatchable module global ``_HAVE_CFFI``, so
tests can simulate a toolchain-less environment without uninstalling
anything.  Actual compilation is deferred to
:func:`repro.compiled.dispatch.load_kernels`.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
from typing import Optional

__all__ = [
    "HAVE_CFFI",
    "compiled_tier_available",
    "find_c_compiler",
]


def _module_exists(name: str) -> bool:
    # find_spec instead of an import: detection must not drag the toolchain
    # module into every `import repro`.  A module that exists but fails to
    # import is caught at load time and blacklisted by
    # :func:`repro.compiled.dispatch.load_kernels`.
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):  # pragma: no cover - broken metadata
        return False


def find_c_compiler() -> Optional[str]:
    """The first working C compiler on PATH (``$CC`` wins), or ``None``."""
    candidates = [os.environ.get("CC"), "cc", "gcc", "clang"]
    for candidate in candidates:
        if candidate and shutil.which(candidate):
            return candidate
    return None


HAVE_CFFI = _module_exists("cffi") and find_c_compiler() is not None

#: Patchable alias: tests flip it to simulate a machine without a kernel
#: toolchain.
_HAVE_CFFI = HAVE_CFFI


def compiled_tier_available() -> bool:
    """Can ``backend="compiled"`` actually compile kernels on this machine?"""
    return _HAVE_CFFI
