"""Clean twins of the violation fixtures: same shapes, zero findings.

Each worker here mirrors one seeded-violation fixture with the bug
fixed — agreeing tags, a non-blocking ring, a collective every rank
reaches, a completed exchange — and must run clean under
``REPRO_SANITIZE=schedule``.
"""

import numpy as np


def matched_tags_worker(ep, payload):
    if ep.rank == 0:
        ep.send(1, np.ones(4), "alpha")
        return None
    if ep.rank == 1:
        return ep.recv(0, "alpha")
    return None


def safe_ring_worker(ep, payload):
    succ = (ep.rank + 1) % ep.num_parts
    pred = (ep.rank - 1) % ep.num_parts
    ticket = ep.isend(succ, np.ones(2), "ring")
    got = ep.recv(pred, "ring")
    delivered = ticket.join(5.0)
    return got, delivered


def shared_allreduce_worker(ep, payload):
    return ep.allreduce(np.ones(4), "grad")


def completed_exchange_worker(ep, payload):
    peers = [j for j in range(ep.num_parts) if j != ep.rank]
    handle = ep.post_exchange(
        {j: np.zeros(1) for j in peers}, peers, "ghost"
    )
    received = ep.complete_exchange(handle)
    return sorted(received)
