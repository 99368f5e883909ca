"""numpy's bundled OpenBLAS, reached through ctypes: its thread count.

Same-seed tensors differ in low bits between one OpenBLAS thread and two,
and BLAS threads would compete for the cores that ``autodiff``'s row runs
already use. Importing the package therefore sets one thread, for library
calls and ``megagcl`` commands alike; a caller who wants another count
calls ``set_threads`` after the import.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np


def _function(names):
    """The first of ``names`` that a bundled OpenBLAS library exports, or
    None when no such library or function is found."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                return fn
    return None


def threads():
    """The number of threads OpenBLAS uses, or "unknown" when no getter is
    found."""
    getter = _function(("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"))
    if getter is None:
        return "unknown"
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def set_threads(n):
    """Make OpenBLAS use ``n`` threads; False when no setter is found."""
    setter = _function(("scipy_openblas_set_num_threads64_",
                        "openblas_set_num_threads64_",
                        "openblas_set_num_threads"))
    if setter is None:
        return False
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(n)
    return True
