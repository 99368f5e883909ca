import os
import platform
import resource

import numpy as np
import pytest

import megagcl  # noqa: F401  (importing the package sets the thresholds)
from megagcl import allocator

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="mallopt thresholds are glibc's")


@pytest.mark.parametrize("var", allocator.ENV_VARS)
def test_keep_freed_memory_yields_to_a_threshold_set_at_start(var):
    assert allocator.keep_freed_memory({var: "131072"}) is False


@glibc_only
@pytest.mark.skipif(any(v in os.environ for v in allocator.ENV_VARS),
                    reason="thresholds were set at process start")
def test_freed_temporaries_are_reused_without_faulting_pages_in():
    # glibc's own thresholds map each 4 MB block anew, or, once a block of
    # that size was freed, trim the 12 MB freed at the heap's top on every
    # round: either way each round faults in 3072 fresh pages
    def round_of_temporaries():
        blocks = [np.ones(1 << 19) for _ in range(3)]
        return sum(b.sum() for b in blocks)

    rounds, pages = 10, 3 * (4 << 20) // resource.getpagesize()
    round_of_temporaries()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(rounds):
        round_of_temporaries()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < rounds * pages // 10


@glibc_only
def test_keep_freed_memory_sets_both_thresholds():
    assert allocator.keep_freed_memory({}) is True
