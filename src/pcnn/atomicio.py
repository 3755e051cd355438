"""Artifact integrity: atomic writes, so a reader sees the old file or the
new one, never a partial one; and the one length-and-sha256 check of a blob
artifact (store payload, checkpoint, classifier matrix) against its header."""

import contextlib
import hashlib
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


def sha256(blob):
    return hashlib.sha256(blob).hexdigest()


def write_blob(blob_path, blob, header_path, header_text):
    """Write the blob, then its header (JSON text), each atomically."""
    with atomic_open(blob_path, "wb") as fh:
        fh.write(blob)
    with atomic_open(header_path) as fh:
        fh.write(header_text)


def check_blob(blob, nbytes, digest, where, error):
    """Raise `error`, naming `where`, unless the blob has `nbytes` bytes and
    the sha256 `digest`."""
    if len(blob) != nbytes:
        raise error(f"{where}: {len(blob)} bytes, expected {nbytes}")
    if sha256(blob) != digest:
        raise error(f"{where}: sha256 checksum differs from the recorded one")
