"""numpy's bundled OpenBLAS, pinned to one thread when `pcnn` is imported.

A GEMM that OpenBLAS splits over threads sums in a thread-count-dependent
order, so its last bits, and with them checkpoints and scores, would depend
on `OPENBLAS_NUM_THREADS`. Pinned, every artifact is byte-identical at any
thread setting, and the comparator spends the second core on scoring
instead (`comparator.score_rows`). Where numpy's library does not export
the thread calls nothing is pinned and `PINNED` is False.
"""

import ctypes
import glob
import os

import numpy as np


def _thread_calls():
    """The (set, get) thread-count calls of numpy's bundled OpenBLAS, or
    (None, None) when numpy ships none that exports them."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if all(hasattr(lib, f"scipy_openblas_{op}_num_threads64_") for op in ("set", "get")):
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None, None


_set_threads, _get_threads = _thread_calls()


def threads():
    """The number of threads OpenBLAS computes with, or None when unknown."""
    return None if _get_threads is None else _get_threads()


def _pin():
    """Pin OpenBLAS to one thread; whether the pin took."""
    if _set_threads is None:
        return False
    _set_threads(1)
    return threads() == 1


PINNED = _pin()
