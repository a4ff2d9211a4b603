"""Seeded violation: the two ends of a message disagree on the tag.

Rank 0 ships tag ``"alpha"``; rank 1 expects tag ``"beta"`` from rank
0.  The transport's own tag check raises ``TransportError`` on
delivery.
"""

import numpy as np


def crossed_tags_worker(ep, payload):
    if ep.rank == 0:
        ep.send(1, np.ones(4), "alpha")
        return None
    if ep.rank == 1:
        return ep.recv(0, "beta")
    return None
