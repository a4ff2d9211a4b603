"""Seeded violation: a ring of blocking sends.

Every rank blocking-sends to its successor before receiving from its
predecessor.  Under MPI-strict rendezvous semantics no send can
complete until its receive is posted, and no receive is ever reached:
a classic head-to-head cycle.  The schedule sanitizer's rendezvous
channels confirm the deadlock and raise ``DeadlockError`` (the repo's
buffered queues would mask it).
"""

import numpy as np


def send_cycle_worker(ep, payload):
    succ = (ep.rank + 1) % ep.num_parts
    pred = (ep.rank - 1) % ep.num_parts
    ep.send(succ, np.ones(2), "ring")
    return ep.recv(pred, "ring")
