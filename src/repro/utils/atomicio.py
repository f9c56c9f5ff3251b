"""Atomic file replacement — torn-write protection for every artifact writer.

Survey shard files, merged result documents and construction-cache pickles
are all written by long-running processes that can be killed at any byte
(Ctrl-C mid-sweep, OOM, a pre-empted CI runner).  Writing in place turns
such a kill into a *torn file*: a shard that silently fails the resume
check and costs a full recompute, or a cache pickle that cold-starts the
next invocation.

:func:`atomic_write` closes that window.  The payload is written to a
temporary file **in the same directory** as the destination (same
filesystem, so the final rename cannot degrade to a copy) and moved over
the destination with :func:`os.replace` — atomic on POSIX and Windows —
only after the handle has been flushed and closed.  A crash at any earlier
point leaves the previous file intact and at worst a stray ``*.tmp``
sibling, never a half-written artifact.  After the replace the containing
*directory* is fsynced too: the rename itself lives in the directory
inode, and a power cut right after a snapshot could otherwise silently
undo it (the classic "rename then lose the rename" crash window).

The temp file gets the permissions a plain ``open()`` would give the
destination (``0o666`` less the umask, applied by the kernel at creation)
or, when the destination exists, that file's own mode, so a replace does
not change who may read it.

The write path carries the chaos plane's ``store.write`` injection point:
under an active :class:`~repro.runtime.chaos.ChaosPlan`, a ``torn_write``
fault aborts the write after the payload hit the temp file but *before*
the rename — exactly the crash the machinery defends against — and a
``slow_io`` fault stretches the write.  Both are no-ops without a plan.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Optional, Tuple, Union

__all__ = ["atomic_write"]

PathLike = Union[str, Path]


@contextmanager
def atomic_write(
    path: PathLike,
    mode: str = "w",
    encoding: Optional[str] = "utf-8",
    newline: Optional[str] = None,
) -> Iterator[IO]:
    """Open a temp file that replaces ``path`` atomically on clean exit.

    ``mode`` is ``"w"`` for text or ``"wb"`` for binary (``encoding`` and
    ``newline`` apply to text mode only).  Parent directories are created.
    If the body raises, the temp file is removed and the destination is
    left exactly as it was.
    """
    # Imported here, not at module level: the runtime's cache persists
    # through this writer, so a top-level import would be circular.
    from ..runtime.chaos import inject, raise_fault

    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_write mode must be 'w' or 'wb', got {mode!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        kept_mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        kept_mode = None
    descriptor, temp_name = _create_sibling(path)
    try:
        if mode == "wb":
            handle = os.fdopen(descriptor, mode)
        else:
            handle = os.fdopen(descriptor, mode, encoding=encoding, newline=newline)
        try:
            if kept_mode is not None:
                os.fchmod(handle.fileno(), kept_mode)
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            handle.close()
        # The payload is safely in the temp file; a torn_write fault models
        # the process dying in exactly this window — before the rename.
        raise_fault(
            inject("store.write", kinds=("torn_write", "slow_io")), "store.write"
        )
        os.replace(temp_name, path)
        _fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _create_sibling(path: Path) -> Tuple[int, str]:
    """Create a fresh ``.NAME.RANDOM.tmp`` file beside ``path``; ``(fd, name)``.

    ``O_EXCL`` makes the name ours alone, and the ``0o666`` mode lets the
    kernel apply the process umask exactly as it does for ``open()``
    (``tempfile.mkstemp`` would force ``0o600``, and changing the umask is
    process-wide, racing any other thread that creates files).
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        name = str(path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp")
        try:
            return os.open(name, flags, 0o666), name
        except FileExistsError:
            continue


def _fsync_directory(directory: Path) -> None:
    """Flush a rename to disk: fsync the directory that recorded it.

    ``os.replace`` makes the swap atomic against concurrent *readers*, but
    the new directory entry still lives in the page cache until the
    directory inode is synced — a crash in that window can resurrect the
    old file with the new one already gone.  Best-effort: directories are
    not fsync-able on some platforms (notably Windows), where the historic
    behaviour is kept.
    """
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)
