"""Keep the pages of freed temporaries in the heap between epochs.

A training epoch allocates and frees the same working set of
temporaries every time: activations, dropout masks, SpMM outputs and
gradients, about 48 MB per epoch on ``reddit-sim`` at 4 parts.  glibc's
``malloc`` hands the top of its heap back to the kernel whenever more
than its trim threshold lies free there.  When the working set ends up
at the heap top, every epoch therefore faults all of its pages back in
(about 12 k minor faults, which add ~8 ms to a 27 ms epoch); when a
long-lived allocation happens to land above it, nothing is handed back
and no page faults.  Which of the two happens depends on everything
that was allocated before, so epoch time switched between two levels
from one process to the next, and sometimes within one run.

:func:`retain_freed_pages` fixes glibc's thresholds instead of letting
them drift: blocks up to 32 MB come from the heap (the ceiling that
glibc's own dynamic threshold climbs to), and the heap top is handed
back only past 1 GB.  Every epoch then reuses warm pages.  Peak RSS
does not grow, since it already counted the pages of the working set.
It is applied once, when :mod:`repro.tensor` is imported, so every
process that trains (worker processes included) runs with it; on other
C libraries it does nothing.
"""

from __future__ import annotations

import ctypes
import platform

__all__ = ["retain_freed_pages"]

# mallopt parameters, from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling on 64-bit hosts
_TRIM_THRESHOLD = 1 << 30


def retain_freed_pages() -> bool:
    """Fix glibc's mmap and trim thresholds; returns whether it could."""
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    # Setting either threshold switches glibc's dynamic adjustment off,
    # so the mmap threshold goes first: left at its 128 kB start, every
    # larger array would be a fresh mapping.
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )
