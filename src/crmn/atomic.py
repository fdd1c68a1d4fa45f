"""Crash-safe file writes: a reader sees either the old file or the whole new one."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temp file beside ``path`` for writing; on success rename it onto ``path``.

    The temp file is fsynced before the rename and its directory after, so an
    OS crash cannot leave a renamed file whose data never reached the disk.
    If the body raises, ``path`` keeps its old contents and the temp file is
    removed. The temp file lives in the target's directory, so the rename
    never crosses a file system. A symlink is written through, and a target
    that is not a regular file (``/dev/null``, a pipe) is written directly,
    since a rename would replace it.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    head, tail = os.path.split(os.path.realpath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, os.path.join(head, tail))
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(head, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
