"""Seeded violation: a posted exchange handle that escapes uncompleted.

The helper posts the exchange and returns the handle; the worker never
passes it to ``complete_exchange``, so its deferred receives leak.
The schedule sanitizer raises ``ScheduleError`` when the rank returns
with the handle still open.
"""

import numpy as np


def _post_ghost(ep, peers):
    return ep.post_exchange(
        {j: np.zeros(1) for j in peers}, peers, "ghost"
    )


def leak_exchange_worker(ep, payload):
    peers = [j for j in range(ep.num_parts) if j != ep.rank]
    handle = _post_ghost(ep, peers)
    return handle
