"""Atomic artifact writes: a reader sees the old file or the new one, never
a partial one."""

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open `<path>.tmp` for writing and move it onto `path` when the block
    finishes; on any failure the temporary file is removed and `path` keeps
    its previous content."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
