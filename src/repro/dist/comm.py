"""Metered in-process communication (the "network" of Algorithm 1).

All ranks live in one process, so nothing actually travels — but every
exchange the algorithm *would* perform is recorded here, tagged by its
role:

* ``"sample_sync"`` — the kept-boundary index broadcast (lines 6-7);
* ``"forward"`` / ``"backward"`` — boundary feature/gradient traffic
  (lines 9-10 and the transposed path, which stops at layer 1: layer
  0's input is data, so no gradient is sent for it);
* ``"reduce"`` — the gradient AllReduce (line 14).

Point-to-point traffic is additionally accumulated into a ``(m, m)``
``pairwise`` byte matrix (``pairwise[src, dst]``), which the cluster
cost model turns into per-rank communication time.  The AllReduce is a
collective: its bytes are metered under its tag (ring-allreduce wire
volume) but kept out of ``pairwise`` so the cost model can price it
separately against the model size.

Since the transport refactor this class is one of three interchangeable
:class:`~repro.dist.transport.Transport` implementations — the one
whose "wire" is shared process memory.  Its metering plane *is* the
shared :class:`~repro.dist.transport.ByteMeter`, so its ledgers are
byte-for-byte identical to what :class:`~repro.dist.transport.LocalTransport`
and :class:`~repro.dist.transport.MultiprocessTransport` record when the
same traffic really moves (the transport conformance suite asserts
this).
"""

from __future__ import annotations

from .transport import Transport

__all__ = ["SimulatedCommunicator"]


class SimulatedCommunicator(Transport):
    """Byte-metering stand-in for a NCCL/Gloo communicator.

    Parameters
    ----------
    num_parts:
        Number of simulated ranks.
    dtype:
        The precision the simulated run represents (the library default
        when omitted).  Its scalar width is what the ledger prices, so
        the simulated ledger matches what a real transport would ship:
        8 bytes at float64, 4 at float32.

    The entire behaviour — ``send`` / ``broadcast`` / ``allreduce``
    over scalar counts, ``reset``, ``total_bytes``, ``pairwise`` — is
    inherited from :class:`~repro.dist.transport.Transport`.
    """

    name = "simulated"
