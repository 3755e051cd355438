"""Probable-class nearest-neighbor re-ranking with a trainable pair comparator."""

from . import blas  # noqa: F401  pins numpy's OpenBLAS to one thread

__version__ = "0.1.0"
