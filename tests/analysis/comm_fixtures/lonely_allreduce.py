"""Seeded violation: a collective behind a rank conditional.

Only rank 0 enters the allreduce; every other rank returns
immediately.  Rank 0 blocks receiving from a rank that has already
returned, which the schedule sanitizer confirms as a deadlock instead
of letting the recv time out.
"""

import numpy as np


def lonely_allreduce_worker(ep, payload):
    if ep.rank == 0:
        return ep.allreduce(np.ones(4), "grad")
    return None
