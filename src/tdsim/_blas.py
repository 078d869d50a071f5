"""The thread count of numpy's OpenBLAS, set for the length of a ``with`` block.

After a threaded product OpenBLAS's worker threads spin for a while before they sleep.
A run whose hot loop is single-threaded numpy code (the FFT matvec of
:class:`~tdsim.kernels.LatticeGenerator`) with small BLAS products in between leaves a
worker spinning through every matvec, so it keeps two cores busy to use one, and where
cores are shared its time swings with the load next to it.  On a 2-vCPU Xeon VM a
3000-atom exp run took 34 ms per call on idle cores either way; next to a busy loop on
one core it took 38-40 ms with one BLAS thread and 72 ms with two.

Where numpy's BLAS is not OpenBLAS, or its library is not found, :func:`blas_threads`
does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np

# (get, set) symbol pairs of the OpenBLAS builds numpy wheels ship, newest first
_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
            for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                                   ("openblas", ""))]


@functools.cache
def _openblas():
    """OpenBLAS's (get, set) thread-count functions from numpy's bundled library, or None."""
    base = os.path.dirname(np.__file__)
    paths = (glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*openblas*"))
             + glob.glob(os.path.join(base, ".dylibs", "*openblas*")))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def blas_threads(count: int):
    """OpenBLAS runs on at most ``count`` threads inside the block; the count it had before
    comes back after it.  The setting is process-wide."""
    funcs = _openblas()
    if funcs is None:
        yield
        return
    get, put = funcs
    before = get()
    put(min(count, before))
    try:
        yield
    finally:
        put(before)
