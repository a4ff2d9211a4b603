"""Freed temporaries keep their pages: an epoch-shaped allocation loop
reuses warm heap memory instead of faulting it back in each time."""

import platform
import resource

import numpy as np
import pytest

import repro.tensor  # noqa: F401  (applies retain_freed_pages on import)
from repro.tensor.heap import retain_freed_pages

glibc_only = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="tunes glibc malloc only"
)

WORKING_SET = 48  # MiB, about one reddit-sim x1 epoch at 4 parts


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def epoch():
    """Allocate, touch and free a working set of 1 MiB arrays."""
    live = [np.ones(1 << 17) for _ in range(WORKING_SET)]
    del live


@glibc_only
def test_repeated_working_set_does_not_refault():
    epoch()  # the first pass may grow the heap
    before = minor_faults()
    for _ in range(5):
        epoch()
    pages = WORKING_SET * (1 << 20) // resource.getpagesize()
    # Handing the pages back after each pass would cost about 5 * pages.
    assert minor_faults() - before < pages // 2


@glibc_only
def test_thresholds_apply():
    # Runs after the test above, which must see the import's effect.
    assert retain_freed_pages()
