"""The thread count of the OpenBLAS that numpy loaded, read and set
through ctypes. Without one (numpy built on another BLAS, or without its
bundled ``numpy.libs``) the count reads None and nothing is set."""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

import numpy as np

# (get, set) symbol pairs, the first found wins: the scipy-openblas that
# numpy wheels bundle, then 64-bit-integer and plain OpenBLAS builds
_SYMBOLS = (("scipy_openblas_get_num_threads64_",
             "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _functions():
    """(get, set) of the OpenBLAS in ``numpy.libs``, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(os.listdir(libdir))
    except OSError:
        return None
    for name in names:
        if "openblas" not in name:
            continue
        lib = ctypes.CDLL(os.path.join(libdir, name))
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, set_
    return None


def threads() -> int | None:
    """The OpenBLAS thread count (``OPENBLAS_NUM_THREADS``, or the core
    count by default), or None when numpy's OpenBLAS is not found."""
    fns = _functions()
    return None if fns is None else int(fns[0]())


@contextmanager
def single_thread():
    """Hold OpenBLAS to one thread inside the block, process-wide, and
    restore the count it had on exit, also when the block raises. This
    is the global setter: in OpenBLAS 0.3.31 as numpy 2.4 bundles it,
    ``openblas_set_num_threads_local`` called from a worker thread changed
    the count that the main thread saw."""
    fns = _functions()
    if fns is None:
        yield
        return
    get, set_ = fns
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
