"""Environment stamp recorded with every result, so that numbers taken on
different machines or toolchains are never compared by mistake."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import shutil
import subprocess
from pathlib import Path
from typing import Dict, Optional


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def _source_digest(src: Path) -> str:
    """sha256 over the program's Python sources — identifies the code even
    where no git metadata exists."""
    hasher = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _present(module: str) -> bool:
    return importlib.util.find_spec(module) is not None


def environment(root: Path) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cffi": _present("cffi"),
        "gcc": shutil.which("gcc") is not None,
        "numba": _present("numba"),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
    }
