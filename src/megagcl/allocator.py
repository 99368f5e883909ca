"""Fixed glibc malloc thresholds, so large temporaries stay in the heap.

A training step allocates and frees many arrays of a few megabytes (an
(N, F) float64 block is 1.6 MB for 6400 nodes and 32 features). By default
glibc serves blocks above 128 KB with a fresh ``mmap`` and returns them on
``free``; it raises that threshold to the largest block freed so far and
trims the top of the heap once more than twice the threshold lies free
there. Which blocks get mapped or trimmed then depends on the process's
whole allocation history, so the same training call either runs on
reused pages or faults in every page of every temporary anew (millions of
minor faults a minute). On a 2-vCPU host the same ``ccl`` epoch on
150-250-node graphs ran at one speed or at about 1.5x that, from process
to process.

``keep_freed_memory`` fixes both thresholds, which also turns off glibc's
own adjustment: blocks up to ``MMAP_THRESHOLD`` come from the heap and
freed memory stays there for reuse until ``TRIM_THRESHOLD`` of it lies
free at the top. Peak resident memory stayed within 2% of glibc's defaults
on MUTAG and on 128 graphs of 150-250 nodes. The package calls it
once on import. It does nothing off glibc, or where the process was started
with ``MALLOC_MMAP_THRESHOLD_`` or ``MALLOC_TRIM_THRESHOLD_`` set, so a
setting made there wins.
"""

from __future__ import annotations

import ctypes
import os

# mallopt parameter numbers, from glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20

ENV_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def keep_freed_memory(environ=os.environ):
    """Set glibc's mmap and trim thresholds; True when both were set."""
    if any(var in environ for var in ENV_VARS):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
