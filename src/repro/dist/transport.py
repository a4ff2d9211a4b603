"""Transport abstraction: one metering model, three wire implementations.

Every trainer in this repo accounts communication through the same
byte-metering model (Eq. 3 made measurable): point-to-point transfers
land in an ``(m, m)`` ``pairwise`` matrix and a per-tag byte ledger,
and the gradient AllReduce is priced with the ring wire-volume formula
``ceil(2 (m-1) n / m)`` scalars per rank.  This module separates that
*model* from the *wire*:

* :class:`ByteMeter` — the metering core, shared verbatim by every
  transport so per-tag totals and pairwise matrices are byte-for-byte
  identical no matter how the data actually moves;
* :class:`Transport` — the interface.  The metering plane
  (:meth:`~Transport.send` / :meth:`~Transport.broadcast` /
  :meth:`~Transport.allreduce` with scalar *counts*) is what the
  in-process trainers consume; the data plane
  (:meth:`~Transport.launch` + per-rank :class:`Endpoint` objects with
  payload-carrying ``send``/``recv``/``allreduce``) is what
  :class:`~repro.dist.executor.ProcessRankExecutor` consumes;
* :class:`LocalTransport` — ranks as threads, queues as wires.  Fast,
  deterministic, no serialisation: the reference data-moving
  implementation for tests;
* :class:`MultiprocessTransport` — ranks as OS processes, pipes as
  wires.  Payloads are pickled through the pipe (including the initial
  per-rank task shipment), so a rank's working set really does leave
  the parent process, like it would leave the machine in a cluster run;
* :class:`SharedMemoryTransport` — ranks as OS processes, but the data
  plane is a mesh of single-producer/single-consumer
  ``multiprocessing.shared_memory`` ring buffers: payloads cross as
  raw numpy frames (a fixed header word carrying length / dtype-id /
  tag-id, then the payload bytes memcpy'd in), so the hot path pays no
  pickle framing and no pipe copies.  The pipes remain, carrying only
  control traffic — the launch payload, the result, doorbell wakeups
  for a blocked ring side, and dead-peer EOF.

The in-process :class:`~repro.dist.comm.SimulatedCommunicator` is the
fourth implementation: it subclasses :class:`Transport` and implements
only the metering plane (its "wire" is shared process memory, so
nothing needs to travel).

Every data-moving transport distinguishes two deadlines:
``recv_timeout`` is the per-receive window (the bound within which a
silent peer must surface as a :class:`TransportError`), and the
``timeout`` argument of :meth:`~Transport.launch` is the deadline for
the launch as a whole — result collection included.  Omitted, the
launch deadline is ``recv_timeout``.

Metering is canonical, not observational: a transport meters the
*model's* wire volume (scalar counts × ``bytes_per_scalar``, ring
formula for the AllReduce) rather than the bytes its implementation
happens to push — pickle framing and pipe overhead never leak into
the measurements.  That is what makes cost-model numbers comparable
across simulated and real runs, and it is asserted by the transport
conformance suite.

``bytes_per_scalar`` itself is honest by construction: it derives
from the transport's configured ``dtype``
(:func:`~repro.tensor.dtype.scalar_nbytes` — 8 for the float64
default, 4 under ``--dtype float32``), so the ledger prices exactly
the scalar width the data plane actually pickles and ships.
"""
# repro-lint: layer=endpoint — this file IS the raw-channel layer the
# metering pass protects; pipes/shm rings are constructed and driven
# here, always behind the ByteMeter accounting above them.

from __future__ import annotations

import atexit
import queue
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sanitizer import (
    begin_schedule_exploration,
    end_schedule_exploration,
    schedule_note_complete,
    schedule_note_post,
    schedule_wait_scope,
)
from ..tensor.dtype import float_dtype_for_nbytes, resolve_dtype, scalar_nbytes

__all__ = [
    "ByteMeter",
    "Endpoint",
    "ExchangeHandle",
    "LocalTransport",
    "MultiprocessTransport",
    "SharedMemoryTransport",
    "Transport",
    "TransportError",
    "resolve_transport",
    "ring_allreduce_scalars",
]


def resolve_transport(transport, num_parts: int, dtype=None,
                      recv_timeout: Optional[float] = None):
    """Normalise a trainer/executor ``transport=`` argument.

    ``None`` yields a fresh metering-only
    :class:`~repro.dist.comm.SimulatedCommunicator`; the strings
    ``"local"`` / ``"multiprocess"`` / ``"shm"`` build the matching
    data-moving transport; an existing :class:`Transport` is validated
    against the partition's rank count and returned as-is (its own
    metering and timeout configuration wins).  A freshly built
    transport meters ``scalar_nbytes(dtype)`` per scalar and waits
    ``recv_timeout`` seconds per receive when given (callers raising
    their launch deadline — e.g. ``ProcessRankExecutor(timeout=...)``
    — widen the per-recv window with it; peer *death* is detected by
    EOF regardless).
    """
    if transport is None:
        from .comm import SimulatedCommunicator

        return SimulatedCommunicator(num_parts, dtype=dtype)
    kwargs = {} if recv_timeout is None else {"recv_timeout": float(recv_timeout)}
    if transport == "local":
        return LocalTransport(num_parts, dtype=dtype, **kwargs)
    if transport == "multiprocess":
        return MultiprocessTransport(num_parts, dtype=dtype, **kwargs)
    if transport == "shm":
        return SharedMemoryTransport(num_parts, dtype=dtype, **kwargs)
    if not isinstance(transport, Transport):
        raise TypeError(f"unknown transport {transport!r}")
    if transport.num_parts != num_parts:
        raise ValueError(
            f"transport has {transport.num_parts} ranks, "
            f"partition has {num_parts}"
        )
    return transport


class TransportError(RuntimeError):
    """A data-plane failure: timeout, tag mismatch, or a dead peer."""


def ring_allreduce_scalars(num_parts: int, num_scalars: int) -> int:
    """Per-rank scalars sent by a ring AllReduce of ``num_scalars``.

    Each of the ``m`` ranks sends ``ceil(2 (m-1) n / m)`` scalars to
    its ring successor (reduce-scatter + allgather).  Degenerate cases
    (one rank, nothing to reduce) send nothing.
    """
    if num_parts < 2 or num_scalars <= 0:
        return 0
    return -(-2 * (num_parts - 1) * int(num_scalars) // num_parts)


class ByteMeter:
    """Pairwise + per-tag byte ledger shared by every transport.

    The recording rules are the contract the conformance suite pins
    down: self-sends and empty sends meter zero, point-to-point bytes
    land in ``pairwise[src, dst]``, and the AllReduce meters the ring
    formula from each rank to its ring successor.
    """

    def __init__(self, num_parts: int, bytes_per_scalar: int) -> None:
        if num_parts < 1:
            raise ValueError(f"num_parts must be >= 1, got {num_parts}")
        self.num_parts = num_parts
        self.bytes_per_scalar = int(bytes_per_scalar)
        self.pairwise: np.ndarray = np.zeros((num_parts, num_parts), dtype=np.int64)
        self.by_tag: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero all counters (called at the top of every epoch)."""
        self.pairwise[:] = 0
        self.by_tag = {}

    def record_send(self, src: int, dst: int, num_scalars: int, tag: str) -> int:
        """Meter a point-to-point transfer of ``num_scalars`` scalars."""
        if src == dst or num_scalars <= 0:
            return 0
        nbytes = int(num_scalars) * self.bytes_per_scalar
        self.pairwise[src, dst] += nbytes
        self.by_tag[tag] = self.by_tag.get(tag, 0) + nbytes
        return nbytes

    def record_broadcast(self, src: int, num_scalars: int, tag: str) -> int:
        """Meter ``src`` sending ``num_scalars`` scalars to every other rank."""
        total = 0
        for dst in range(self.num_parts):
            if dst != src:
                total += self.record_send(src, dst, num_scalars, tag)
        return total

    def record_allreduce_rank(self, src: int, num_scalars: int, tag: str) -> int:
        """Meter one rank's share of a ring AllReduce (to its successor)."""
        per_rank = ring_allreduce_scalars(self.num_parts, num_scalars)
        return self.record_send(src, (src + 1) % self.num_parts, per_rank, tag)

    def record_allreduce(self, num_scalars: int, tag: str) -> int:
        """Meter a full ring AllReduce: every rank's share at once."""
        total = 0
        for src in range(self.num_parts):
            total += self.record_allreduce_rank(src, num_scalars, tag)
        return total

    # ------------------------------------------------------------------
    def total_bytes(self, tag: Optional[str] = None) -> int:
        """Bytes metered under ``tag``, or across all tags when omitted."""
        if tag is not None:
            return self.by_tag.get(tag, 0)
        return sum(self.by_tag.values())

    def merge(self, other: "ByteMeter") -> None:
        """Fold another rank's ledger into this one."""
        if other.num_parts != self.num_parts:
            raise ValueError("cannot merge meters with different num_parts")
        self.pairwise += other.pairwise
        for tag, nbytes in other.by_tag.items():
            self.by_tag[tag] = self.by_tag.get(tag, 0) + nbytes

    def snapshot(self) -> Tuple[np.ndarray, Dict[str, int]]:
        """(pairwise copy, by-tag copy) — one epoch's record."""
        return self.pairwise.copy(), dict(self.by_tag)


class Transport:
    """Interface shared by the simulated, thread and process transports.

    The *metering plane* (this class) mirrors the historical
    ``SimulatedCommunicator`` API — ``send`` / ``broadcast`` /
    ``allreduce`` take scalar **counts** and only touch the meter — so
    any transport can be handed to the in-process trainers.  Data-moving
    implementations additionally provide :meth:`launch`, which runs one
    worker per rank against payload-carrying :class:`Endpoint` objects
    and folds the per-rank meters back into :attr:`meter`.
    """

    name = "abstract"

    def __init__(self, num_parts: int, dtype=None) -> None:
        self.dtype = resolve_dtype(dtype)
        self.meter = ByteMeter(num_parts, scalar_nbytes(self.dtype))
        # Held for the whole of a launch; taken without blocking, so a
        # re-entered launch fails instead of sharing the meter.
        self._launch_lock = threading.Lock()

    # -- metering plane (SimulatedCommunicator-compatible) -------------
    @property
    def num_parts(self) -> int:
        return self.meter.num_parts

    @property
    def bytes_per_scalar(self) -> int:
        return self.meter.bytes_per_scalar

    @property
    def pairwise(self) -> np.ndarray:
        return self.meter.pairwise

    def reset(self) -> None:
        self.meter.reset()

    def send(self, src: int, dst: int, num_scalars: int, tag: str) -> int:
        return self.meter.record_send(src, dst, num_scalars, tag)

    def broadcast(self, src: int, num_scalars: int, tag: str) -> int:
        return self.meter.record_broadcast(src, num_scalars, tag)

    def allreduce(self, num_scalars: int, tag: str) -> int:
        return self.meter.record_allreduce(num_scalars, tag)

    def total_bytes(self, tag: Optional[str] = None) -> int:
        return self.meter.total_bytes(tag)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(m={self.num_parts}, "
            f"total={self.total_bytes()}B)"
        )

    # -- data plane ----------------------------------------------------
    def launch(
        self,
        worker: Callable,
        payloads: Optional[Sequence] = None,
        timeout: Optional[float] = None,
    ) -> List:
        """Run ``worker(endpoint, payload)`` once per rank; return results.

        One launch at a time: a launch re-entered while another is in
        flight (from a second thread, or from inside a worker) raises
        :class:`TransportError`; a sequential relaunch is legal.
        """
        if not self._launch_lock.acquire(blocking=False):
            raise TransportError(
                f"{type(self).__name__}.launch() re-entered while a "
                "launch is in flight"
            )
        try:
            return self._launch(worker, payloads, timeout)
        finally:
            self._launch_lock.release()

    def _launch(self, worker, payloads, timeout) -> List:
        """The launch body.  Only data-moving transports implement it;
        the simulated communicator's ranks live inside the trainers'
        own loop."""
        raise NotImplementedError(
            f"{type(self).__name__} has no data plane; use LocalTransport "
            "or MultiprocessTransport to actually execute ranks"
        )


class _SendTicket:
    """Completion handle of one queued outbound message.

    ``join`` waits like ``threading.Thread.join``; the ``error`` slot
    makes a failed push (dead peer pipe) surface at the join instead of
    vanishing with the sender thread.
    """

    __slots__ = ("dst", "tag", "_done", "error")

    def __init__(self, dst: int, tag: str) -> None:
        self.dst = dst
        self.tag = tag
        self._done = threading.Event()
        self.error: Optional[BaseException] = None

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for completion; True iff the send finished in time."""
        return self._done.wait(timeout)


@dataclass
class ExchangeHandle:
    """In-flight exchange: posted sends plus deferred receives.

    Produced by :meth:`Endpoint.post_exchange`; redeemed by
    :meth:`Endpoint.complete_exchange`.  Holding a handle means the
    outbound payloads are already metered and queued on their channels
    while the caller computes — the overlap the pipelined schedule is
    built on.
    """

    tag: str
    sends: List[_SendTicket] = field(default_factory=list)
    expect: List[int] = field(default_factory=list)
    completed: bool = False


class Endpoint:
    """One rank's handle on a data-moving transport.

    Subclasses supply the raw channel primitives ``_put`` / ``_get``;
    everything else — metering, tag checking, deadlock-free pairwise
    exchange, the ring AllReduce — is shared, so the local and
    multiprocess transports are behaviourally identical by
    construction.

    Outbound messages to one destination travel through a single
    per-destination sender thread fed by a FIFO queue, so posting
    several non-blocking sends to the same peer (the pipelined
    schedule posts every layer's stale features up front) preserves
    their order on the channel — a guarantee thread-per-send cannot
    make.

    :attr:`blocked_seconds` accumulates the wall time this rank spends
    inside ``_get`` waiting for inbound messages; per-epoch deltas of
    it are what split measured epoch time into compute vs
    blocked-in-recv.

    The endpoint enforces its own protocol: once closed, every data op
    raises :class:`TransportError` at once (naming the op) instead of
    queueing onto a stopped sender thread or a dropped ring mapping,
    and a second :meth:`close` raises too.  An exchange handle is
    redeemed at most once (:meth:`complete_exchange`).
    """

    def __init__(self, rank: int, num_parts: int, bytes_per_scalar: int,
                 recv_timeout: float) -> None:
        self.rank = rank
        self.num_parts = num_parts
        self.bytes_per_scalar = bytes_per_scalar
        self.recv_timeout = recv_timeout
        self.meter = ByteMeter(num_parts, bytes_per_scalar)
        self.blocked_seconds = 0.0
        self._send_queues: Dict[int, queue.Queue] = {}
        self._send_threads: Dict[int, threading.Thread] = {}
        self._closed = False

    # -- raw channel (implemented by subclasses) -----------------------
    def _put(self, dst: int, message) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _get(self, src: int):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- ordered outbound queues ---------------------------------------
    def _sender_loop(self, dst: int) -> None:
        # ``task_done`` keeps ``unfinished_tasks`` exact: the shm
        # endpoint's inline fast-path reads it to know whether the
        # channel is idle.
        q = self._send_queues[dst]
        while True:
            item = q.get()
            try:
                if item is None:
                    return
                message, ticket = item
                try:
                    self._put(dst, message)
                except BaseException as exc:  # noqa: BLE001 - surfaced at join
                    ticket.error = exc
                finally:
                    ticket._done.set()
            finally:
                q.task_done()

    def _enqueue(self, dst: int, message, tag: str) -> _SendTicket:
        """Queue a message on the ordered channel to ``dst``."""
        if dst not in self._send_queues:
            self._send_queues[dst] = queue.Queue()
            thread = threading.Thread(
                target=self._sender_loop, args=(dst,), daemon=True
            )
            self._send_threads[dst] = thread
            thread.start()
        ticket = _SendTicket(dst, tag)
        self._send_queues[dst].put((message, ticket))
        return ticket

    def _join_send(self, ticket: _SendTicket) -> None:
        """Wait for a queued send; a send still in flight after the
        receive window (peer not draining — a hang the old bare
        ``thread.join(timeout)`` silently swallowed) or a failed push
        raises :class:`TransportError` instead of being abandoned."""
        with schedule_wait_scope("join", self.rank, ticket.dst):
            delivered = ticket.join(self.recv_timeout)
        if not delivered:
            raise TransportError(
                f"rank {self.rank} send (tag {ticket.tag!r}) to rank "
                f"{ticket.dst} still in flight after {self.recv_timeout}s "
                "(peer not draining?)"
            )
        if ticket.error is not None:
            raise TransportError(
                f"rank {self.rank} failed to ship tag {ticket.tag!r} to "
                f"rank {ticket.dst} (peer died?)"
            ) from ticket.error

    def _require_open(self, op: str) -> None:
        if self._closed:
            raise TransportError(
                f"rank {self.rank} {op}() on a closed endpoint"
            )

    def close(self) -> None:
        """Shut the sender threads down; no data op is legal after."""
        if self._closed:
            raise TransportError(f"rank {self.rank} endpoint closed twice")
        self._closed = True
        for q in self._send_queues.values():
            q.put(None)

    def _check_float_width(self, payload: np.ndarray, tag: str) -> None:
        """Metered == shipped, enforced: a float payload whose scalar
        width differs from the meter's ``bytes_per_scalar`` would be
        silently mis-priced (the pre-dtype-subsystem bug).  Integer
        payloads (index broadcasts) are exempt — they are metered at
        the run's scalar width by convention."""
        if (
            payload.size
            and payload.dtype.kind == "f"
            and payload.dtype.itemsize != self.bytes_per_scalar
        ):
            raise TransportError(
                f"rank {self.rank} shipping a {payload.dtype} payload "
                f"(tag {tag!r}) through a transport metering "
                f"{self.bytes_per_scalar} B/scalar — metered would not "
                "equal shipped; construct the transport with the run's "
                "dtype (or cast the payload)"
            )

    # -- point-to-point ------------------------------------------------
    def send(self, dst: int, payload: np.ndarray, tag: str) -> int:
        """Send ``payload`` to ``dst``; meters ``payload.size`` scalars.

        Empty payloads still travel (receivers stay in lockstep) but
        meter zero bytes, matching the simulated semantics.  Blocks
        until the payload is on the wire (the queued-send join), so a
        peer that never drains raises instead of hanging.
        """
        self._require_open("send")
        if dst == self.rank:
            raise TransportError(f"rank {self.rank} cannot send to itself")
        payload = np.asarray(payload)
        self._check_float_width(payload, tag)
        nbytes = self.meter.record_send(self.rank, dst, payload.size, tag)
        self._join_send(self._enqueue(dst, (tag, payload), tag))
        return nbytes

    def isend(self, dst: int, payload: np.ndarray, tag: str) -> _SendTicket:
        """Non-blocking :meth:`send`: meters now, ships asynchronously.

        Bounded channels (OS pipes) block the writer when full; pushing
        from the per-destination sender thread lets a rank post all its
        outbound traffic before draining inbound, which makes the
        exchange patterns below deadlock-free regardless of payload
        size — and the FIFO queue keeps multiple in-flight messages to
        one peer in posting order.
        """
        self._require_open("isend")
        if dst == self.rank:
            raise TransportError(f"rank {self.rank} cannot send to itself")
        payload = np.asarray(payload)
        self._check_float_width(payload, tag)
        self.meter.record_send(self.rank, dst, payload.size, tag)
        return self._enqueue(dst, (tag, payload), tag)

    def recv(self, src: int, tag: str) -> np.ndarray:
        """Receive the next message from ``src``; the tag must match.

        Time spent waiting on the channel accumulates into
        :attr:`blocked_seconds` (the measured, not modeled, side of the
        compute/communication split).
        """
        self._require_open("recv")
        t0 = time.perf_counter()
        try:
            got_tag, payload = self._get(src)
        finally:
            self.blocked_seconds += time.perf_counter() - t0
        if got_tag != tag:
            raise TransportError(
                f"rank {self.rank} expected tag {tag!r} from {src}, got {got_tag!r}"
            )
        return payload

    def _isend_raw(self, dst: int, payload: np.ndarray, tag: str) -> _SendTicket:
        """Unmetered queued push — for collective-internal traffic
        whose wire volume was already metered canonically."""
        return self._enqueue(dst, (tag, payload), tag)

    def exchange(
        self,
        outgoing: Dict[int, np.ndarray],
        expect: Iterable[int],
        tag: str,
    ) -> Dict[int, np.ndarray]:
        """Send to each key of ``outgoing``; receive from each of ``expect``.

        All sends are posted first, then inbound messages are drained,
        so the pattern cannot deadlock however large the payloads are.
        Equivalent to :meth:`complete_exchange` of a fresh
        :meth:`post_exchange` — the blocking special case.
        """
        self._require_open("exchange")
        return self.complete_exchange(self.post_exchange(outgoing, expect, tag))

    def post_exchange(
        self,
        outgoing: Dict[int, np.ndarray],
        expect: Iterable[int],
        tag: str,
    ) -> ExchangeHandle:
        """Post the sends of an exchange without touching the receives.

        Meters and queues every outbound payload now, records the
        deferred receives, and returns an :class:`ExchangeHandle`.  The
        caller is free to compute while the payloads travel; redeem the
        handle with :meth:`complete_exchange` when the inbound data is
        actually needed.
        """
        self._require_open("post_exchange")
        handle = ExchangeHandle(tag=tag, expect=list(expect))
        handle.sends = [
            self.isend(dst, payload, tag) for dst, payload in outgoing.items()
        ]
        schedule_note_post(self.rank, handle)
        return handle

    def complete_exchange(self, handle: ExchangeHandle) -> Dict[int, np.ndarray]:
        """Drain the deferred receives of ``handle``; join its sends.

        A send still undelivered after the receive window raises
        :class:`TransportError` — an abandoned sender masks a hung peer
        as corruption.
        """
        self._require_open("complete_exchange")
        if handle.completed:
            raise TransportError(
                f"rank {self.rank} completed exchange handle "
                f"(tag {handle.tag!r}) twice"
            )
        handle.completed = True
        schedule_note_complete(self.rank, handle)
        received = {src: self.recv(src, handle.tag) for src in handle.expect}
        for ticket in handle.sends:
            self._join_send(ticket)
        return received

    # -- collectives ---------------------------------------------------
    def allreduce(self, array: np.ndarray, tag: str) -> np.ndarray:
        """Sum ``array`` across all ranks; every rank gets the result.

        The data moves by a real ring (reduce-scatter + allgather),
        metered by the ring formula (:func:`ring_allreduce_scalars`),
        so the ledger is identical across transports.  The reduced buffer
        is bitwise identical on every rank — each chunk is finalised by
        exactly one rank and copies of it are distributed — which is
        what keeps model replicas in lockstep.

        The payload's float dtype is preserved on the wire: fp32
        gradients ship and reduce as fp32 (what the meter prices), with
        no silent fp64 upcast anywhere on the path.
        """
        self._require_open("allreduce")
        arr = np.asarray(array)
        self._check_float_width(arr, tag)
        if arr.dtype.kind != "f":
            # Integer summands reduce as floats; pick the float whose
            # width matches the meter so even this fallback ships
            # exactly what it prices.
            arr = arr.astype(float_dtype_for_nbytes(self.bytes_per_scalar))
        shape = arr.shape
        flat = arr.ravel().copy()
        self.meter.record_allreduce_rank(self.rank, flat.size, tag)
        if self.num_parts == 1 or flat.size == 0:
            return flat.reshape(shape)
        return self._ring_allreduce(flat, tag).reshape(shape)

    def _chunk_slices(self, n: int) -> List[slice]:
        bounds = np.linspace(0, n, self.num_parts + 1).astype(np.int64)
        return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

    def _ring_allreduce(self, buf: np.ndarray, tag: str) -> np.ndarray:
        m, rank = self.num_parts, self.rank
        succ, pred = (rank + 1) % m, (rank - 1) % m
        slices = self._chunk_slices(buf.size)
        # Reduce-scatter: after m-1 steps rank owns chunk (rank+1) % m.
        for step in range(m - 1):
            send_idx = (rank - step) % m
            recv_idx = (rank - step - 1) % m
            ticket = self._isend_raw(succ, buf[slices[send_idx]].copy(), tag)
            buf[slices[recv_idx]] += self.recv(pred, tag)
            self._join_send(ticket)
        # Allgather: circulate the finalised chunks.
        for step in range(m - 1):
            send_idx = (rank + 1 - step) % m
            recv_idx = (rank - step) % m
            ticket = self._isend_raw(succ, buf[slices[send_idx]].copy(), tag)
            buf[slices[recv_idx]] = self.recv(pred, tag)
            self._join_send(ticket)
        return buf


# ----------------------------------------------------------------------
# Threads + queues
# ----------------------------------------------------------------------
class _QueueEndpoint(Endpoint):
    def __init__(self, rank, num_parts, bytes_per_scalar, recv_timeout, queues):
        super().__init__(rank, num_parts, bytes_per_scalar, recv_timeout)
        self._queues = queues

    def _put(self, dst: int, message) -> None:
        self._queues[(self.rank, dst)].put(message)

    def _get(self, src: int):
        try:
            return self._queues[(src, self.rank)].get(timeout=self.recv_timeout)
        except queue.Empty:
            raise TransportError(
                f"rank {self.rank} timed out waiting for rank {src} "
                f"({self.recv_timeout}s)"
            ) from None


class LocalTransport(Transport):
    """Ranks as daemon threads, unbounded queues as wires.

    No serialisation and no OS scheduling noise: the deterministic
    reference for the data-moving path, and the fast engine behind the
    conformance and equivalence tests.
    """

    name = "local"

    def __init__(self, num_parts: int, recv_timeout: float = 60.0,
                 dtype=None) -> None:
        super().__init__(num_parts, dtype=dtype)
        self.recv_timeout = recv_timeout

    def _launch(self, worker, payloads, timeout):
        m = self.num_parts
        timeout = self.recv_timeout if timeout is None else timeout
        payloads = list(payloads) if payloads is not None else [None] * m
        if len(payloads) != m:
            raise ValueError(f"expected {m} payloads, got {len(payloads)}")
        # Under REPRO_SANITIZE=schedule the wires become the explorer's
        # rendezvous channels and the launch gains deadlock detection
        # plus seed-driven interleaving jitter; otherwise plain queues.
        explorer = begin_schedule_exploration(m)
        queues = {
            (i, j): (explorer.make_channel(i, j) if explorer is not None
                     else queue.Queue())
            for i in range(m) for j in range(m) if i != j
        }
        # Per-recv windows stay at the transport's recv_timeout — the
        # bound within which a dropped peer must surface as a
        # TransportError; `timeout` only caps the launch as a whole.
        endpoints = [
            _QueueEndpoint(i, m, self.bytes_per_scalar, self.recv_timeout,
                           queues)
            for i in range(m)
        ]
        results: List = [None] * m
        failures: List[Tuple[int, BaseException, str]] = []
        failed = threading.Event()

        def run(rank: int) -> None:
            try:
                if explorer is not None:
                    explorer.rank_started(rank)
                results[rank] = worker(endpoints[rank], payloads[rank])
                if explorer is not None:
                    # Leaked posted-exchange handles surface here, at
                    # the rank boundary, as this rank's failure.
                    explorer.rank_completed(rank)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                failures.append((rank, exc, traceback.format_exc()))
                failed.set()
            finally:
                if explorer is not None:
                    explorer.rank_finished(rank)

        threads = [
            threading.Thread(target=run, args=(i,), daemon=True) for i in range(m)
        ]
        for t in threads:
            t.start()
        try:
            # One shared deadline for the whole launch; a crashed rank is
            # reported immediately (the daemon threads of the surviving
            # ranks are abandoned to their recv timeouts).
            deadline = _now() + timeout
            while not failed.is_set():
                alive = [t for t in threads if t.is_alive()]
                if not alive:
                    break
                remaining = deadline - _now()
                if remaining <= 0:
                    break
                alive[0].join(min(0.05, remaining))
            if failures:
                rank, exc, tb = failures[0]
                raise TransportError(f"rank {rank} failed:\n{tb}") from exc
            if any(t.is_alive() for t in threads):
                stuck = [i for i, t in enumerate(threads) if t.is_alive()]
                raise TransportError(f"ranks {stuck} still running after {timeout}s")
        finally:
            for ep in endpoints:
                if not ep._closed:
                    ep.close()
            end_schedule_exploration(explorer)
        for ep in endpoints:
            self.meter.merge(ep.meter)
        return results


# ----------------------------------------------------------------------
# Processes + pipes
# ----------------------------------------------------------------------
class _PipeEndpoint(Endpoint):
    def __init__(self, rank, num_parts, bytes_per_scalar, recv_timeout, conns):
        super().__init__(rank, num_parts, bytes_per_scalar, recv_timeout)
        self._conns = conns

    @classmethod
    def _from_launch(cls, rank, num_parts, bytes_per_scalar, recv_timeout,
                     conns, extra):
        return cls(rank, num_parts, bytes_per_scalar, recv_timeout, conns)

    # The per-destination sender thread is the only writer of each pipe
    # (Endpoint routes every outbound message through it), so no send
    # lock is needed.
    def _put(self, dst: int, message) -> None:
        self._conns[dst].send(message)

    def _get(self, src: int):
        conn = self._conns[src]
        try:
            if not conn.poll(self.recv_timeout):
                raise TransportError(
                    f"rank {self.rank} timed out waiting for rank {src} "
                    f"({self.recv_timeout}s)"
                )
            return conn.recv()
        except (EOFError, OSError):
            raise TransportError(
                f"rank {self.rank} lost its connection to rank {src} "
                "(peer died?)"
            ) from None


def _proc_rank_main(worker, rank, num_parts, bytes_per_scalar, recv_timeout,
                    mesh, sibling_result_conns, parent_conn, endpoint_cls,
                    endpoint_extra) -> None:
    """Entry point of one worker process (pipe- or shm-backed).

    The payload arrives through the parent pipe (pickled — the rank's
    working set genuinely leaves the parent), the result and the
    rank's meter travel back the same way.  ``endpoint_cls`` picks the
    data plane: :class:`_PipeEndpoint` moves payloads through the mesh
    pipes; :class:`_ShmEndpoint` moves them through shared-memory
    rings (``endpoint_extra`` names the segments) and uses the mesh
    pipes only to observe peer death.

    Fork duplicated *every* pipe end into this worker (and spawn
    duplicates whatever is in the args), so the ends that belong to
    other ranks are closed first.  Without this, a dead peer's channel
    never drains to EOF — some sibling always still holds a duplicate
    of the write end — and peer death silently degrades into a poll
    timeout instead of an immediate :class:`TransportError`.
    """
    for other_rank, peer_conns in mesh.items():
        if other_rank != rank:
            for conn in peer_conns.values():
                conn.close()
    for conn in sibling_result_conns:
        conn.close()
    conns = mesh[rank]
    endpoint = None
    try:
        endpoint = endpoint_cls._from_launch(
            rank, num_parts, bytes_per_scalar, recv_timeout, conns,
            endpoint_extra,
        )
        payload = parent_conn.recv()
        result = worker(endpoint, payload)
        parent_conn.send(("ok", result, endpoint.meter))
    except BaseException:  # noqa: BLE001 - serialised back to the parent
        try:
            parent_conn.send(("err", traceback.format_exc(), None))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        # Workers only ever close() their shared-memory handles —
        # unlinking is the creator's (the parent's) job, so an
        # abnormal worker exit can never leak or destroy a segment
        # another rank still maps.  A worker may have closed its
        # endpoint itself; only an open one is closed here.
        if endpoint is not None and not endpoint._closed:
            endpoint.close()


class MultiprocessTransport(Transport):
    """Ranks as OS processes, duplex pipes as wires.

    A full mesh of :func:`multiprocessing.Pipe` connections carries
    rank-to-rank traffic; a separate parent pipe per rank ships the
    task payload in (pickled) and the result + byte ledger out.
    ``launch`` enforces its ``timeout`` deadline: a hung
    pipe kills the worker tree and raises :class:`TransportError`
    instead of stalling the caller — which is what lets CI run a smoke
    job against this transport without risking a wedged runner.
    """

    name = "multiprocess"
    _endpoint_cls = _PipeEndpoint

    def __init__(self, num_parts: int, recv_timeout: float = 60.0,
                 dtype=None) -> None:
        super().__init__(num_parts, dtype=dtype)
        self.recv_timeout = recv_timeout

    # -- data-plane hooks (overridden by SharedMemoryTransport) --------
    def _data_plane_setup(self, m: int):
        """Per-launch data-plane state: (per-rank extra arg, cleanup)."""
        return None, lambda: None

    def _launch(self, worker, payloads, timeout):
        import multiprocessing as mp

        m = self.num_parts
        timeout = self.recv_timeout if timeout is None else timeout
        # Per-recv windows stay at the transport's recv_timeout — the
        # bound within which a silent peer must surface as a
        # TransportError; `timeout` only caps the launch as a whole.
        # (Peer *death* surfaces even sooner: the workers close the
        # pipe ends that are not theirs, so a dead peer's channel
        # drains to EOF immediately.)
        payloads = list(payloads) if payloads is not None else [None] * m
        if len(payloads) != m:
            raise ValueError(f"expected {m} payloads, got {len(payloads)}")
        ctx = mp.get_context()
        extra, cleanup = self._data_plane_setup(m)

        mesh: Dict[int, Dict[int, object]] = {i: {} for i in range(m)}
        for i in range(m):
            for j in range(i + 1, m):
                ci, cj = ctx.Pipe(duplex=True)
                mesh[i][j] = ci
                mesh[j][i] = cj
        parent_conns, child_conns, procs = [], [], []
        for rank in range(m):
            parent_end, child_end = ctx.Pipe(duplex=True)
            parent_conns.append(parent_end)
            child_conns.append(child_end)
        for rank in range(m):
            siblings = [c for i, c in enumerate(child_conns) if i != rank]
            procs.append(ctx.Process(
                target=_proc_rank_main,
                args=(worker, rank, m, self.bytes_per_scalar,
                      self.recv_timeout, mesh, siblings, child_conns[rank],
                      self._endpoint_cls, extra),
                daemon=True,
            ))
        try:
            for proc in procs:
                proc.start()
            # The mesh and child-side result ends belong to the workers
            # (fork duplicated them); closing the parent's copies lets a
            # dead peer surface as EOF instead of a silent poll timeout.
            for rank in range(m):
                for conn in mesh[rank].values():
                    conn.close()
                child_conns[rank].close()
            for rank in range(m):
                parent_conns[rank].send(payloads[rank])

            # Collect results as they arrive (not in rank order): a
            # crashed rank is reported immediately with its traceback
            # even while other ranks are still blocked on it.
            deadline = _now() + timeout
            results: List = [None] * m
            pending = {parent_conns[rank]: rank for rank in range(m)}
            while pending:
                remaining = deadline - _now()
                if remaining <= 0:
                    raise TransportError(
                        f"ranks {sorted(pending.values())} produced no "
                        f"result within {timeout}s (hung pipe?)"
                    )
                ready = mp.connection.wait(list(pending), timeout=remaining)
                if not ready:
                    raise TransportError(
                        f"ranks {sorted(pending.values())} produced no "
                        f"result within {timeout}s (hung pipe?)"
                    )
                for conn in ready:
                    rank = pending.pop(conn)
                    try:
                        status, value, meter = conn.recv()
                    except EOFError:
                        raise TransportError(
                            f"rank {rank} died without reporting a result"
                        ) from None
                    if status != "ok":
                        raise TransportError(f"rank {rank} failed:\n{value}")
                    results[rank] = value
                    self.meter.merge(meter)
            for proc in procs:
                proc.join(self.recv_timeout)
            return results
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(1.0)
            cleanup()


# ----------------------------------------------------------------------
# Processes + shared-memory rings
# ----------------------------------------------------------------------
#: Ring segment layout: four int64 control words, then the data bytes.
#: ``head`` counts bytes ever written, ``tail`` bytes ever read — both
#: monotone, so full/empty are never ambiguous and the ring needs no
#: locks with one producer and one consumer.  ``writer_waiting`` /
#: ``reader_waiting`` are the doorbell handshake flags: a side sets
#: its flag before blocking on the control pipe, and the other side
#: rings the pipe (one byte) after making progress only when the flag
#: is up — OS-level wakeup at arrival time, no spinning, no doorbell
#: storms.
#: Width of one framing/control word.  Framing is always int64
#: regardless of the payload dtype — derived, not hard-coded, so the
#: dtype-width lint can hold the rest of the file to the same rule.
_I64 = np.dtype(np.int64).itemsize
_CTRL_HEAD = 0
_CTRL_TAIL = 1
_CTRL_WRITER_WAITING = 2
_CTRL_READER_WAITING = 3
_CTRL_FIELDS = 4
_RING_CTRL_NBYTES = _CTRL_FIELDS * _I64
_MIN_RING_NBYTES = 1 << 12
#: Fixed frame header: payload_nbytes, tag_id, tag_len, dtype_id,
#: dtype_len, ndim (all int64).  Tags and dtype strings are interned
#: per channel — their bytes ride along only the first time an id is
#: used, so a steady-state frame header is 48 bytes + 8·ndim.
_FRAME_FIELDS = 6

_EMPTY_U8 = np.empty(0, dtype=np.uint8)

#: Segments created by this process and not yet unlinked — the atexit
#: backstop for launches torn down by something harsher than `finally`.
_LIVE_SEGMENTS: set = set()


def _unlink_stale_segments() -> None:  # pragma: no cover - shutdown path
    for name in list(_LIVE_SEGMENTS):
        try:
            from multiprocessing import shared_memory

            # This *is* the creator: _LIVE_SEGMENTS only ever holds
            # names this process created, so the re-attach-and-unlink
            # here upholds creator-owns-unlink rather than breaking it.
            # repro-lint: ignore[lifecycle]
            shared_memory.SharedMemory(name=name).unlink()
        except Exception:
            pass
        _LIVE_SEGMENTS.discard(name)


atexit.register(_unlink_stale_segments)


def _attach_segment(name: str):
    """Attach (never create) a segment without registering it with the
    resource tracker: the creator owns the unlink, and a second
    registration would make the *attacher's* tracker unlink — and warn
    about — a segment the parent still owns (the CPython "leaked
    shared_memory" false positive under spawn)."""
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter (bpo-38119)
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


class _RingWaiter:
    """Doorbell/deadline policy for one blocking ring operation.

    When the ring cannot advance, the stalled side raises its waiting
    flag in the segment, re-checks the cursors (the flag-then-recheck
    handshake closes the lost-wakeup race), and blocks on the control
    pipe — which in shm mode carries only doorbell bytes and dead-peer
    EOF.  The other side rings the bell after moving a cursor *only*
    when the flag is up, so steady-state traffic pays zero doorbell
    syscalls and a blocked side wakes at arrival time (OS-level, no
    spinning — on a loaded or single-core host, spinning would steal
    the CPU from the very peer being waited on).  A short poll
    backstop covers the residual reorder window and doorbells drained
    by a sibling thread.  ``progress`` resets the no-progress window,
    so a frame larger than the ring gets ``recv_timeout`` per stalled
    chunk, not per frame.
    """

    __slots__ = ("rank", "peer", "conn", "lock", "timeout", "what",
                 "deadline", "peer_dead")

    _BACKSTOP = 0.005
    _SPIN = 1  # sched_yield rounds before parking on the doorbell

    def __init__(self, rank, peer, conn, lock, timeout, what):
        self.rank = rank
        self.peer = peer
        self.conn = conn
        # Two threads share each control pipe (the endpoint's calling
        # thread reading one ring, the per-destination sender thread
        # writing the other): concurrent recv_bytes would interleave
        # the length-prefixed doorbell frames, so poll + drain is
        # serialised per connection.
        self.lock = lock
        self.timeout = timeout
        self.what = what
        self.deadline = _now() + timeout
        self.peer_dead = False

    def progress(self) -> None:
        self.deadline = _now() + self.timeout

    def _peer_died(self) -> TransportError:
        return TransportError(
            f"rank {self.rank} lost its connection to rank {self.peer} "
            "(peer died?)"
        )

    def ring_doorbell(self) -> None:
        if self.conn is None or self.peer_dead:
            return  # no control channel; the peer backs off on a timer
        try:
            self.conn.send_bytes(b"!")
        except (BrokenPipeError, OSError):
            # A dead peer can't be woken, but that doesn't invalidate
            # the cursor move we just made — our own stall (if any)
            # will surface the death from _sleep.
            self.peer_dead = True

    def wait_readable(self, ring: "_ShmRing") -> None:
        ctrl = ring._ctrl

        def readable() -> bool:
            return int(ctrl[_CTRL_HEAD]) - int(ctrl[_CTRL_TAIL]) > 0

        for _ in range(self._SPIN):
            # Brief yield-spin before parking: a peer mid-copy usually
            # publishes within a scheduler quantum, and catching it
            # here skips the doorbell syscall round-trip entirely.
            time.sleep(0)
            if readable():
                return
        ctrl[_CTRL_READER_WAITING] = 1
        try:
            if readable():
                return  # data landed between the check and the flag
            self._sleep(readable)
        finally:
            ctrl[_CTRL_READER_WAITING] = 0

    def wait_writable(self, ring: "_ShmRing") -> None:
        ctrl = ring._ctrl
        cap = ring.capacity

        def writable() -> bool:
            return cap - (int(ctrl[_CTRL_HEAD]) - int(ctrl[_CTRL_TAIL])) > 0

        for _ in range(self._SPIN):
            time.sleep(0)
            if writable():
                return
        ctrl[_CTRL_WRITER_WAITING] = 1
        try:
            if writable():
                return
            self._sleep(writable)
        finally:
            ctrl[_CTRL_WRITER_WAITING] = 0

    def _sleep(self, ready) -> None:
        conn = self.conn
        if conn is None:
            # No control channel (in-process harness): plain backoff.
            time.sleep(5e-5)
        elif self.peer_dead:
            # The peer's pipe end only closes when its process exits,
            # so every ring write it will ever make is already visible:
            # a ring that still cannot advance never will.
            if not ready():
                raise self._peer_died()
            return
        else:
            # repro-lint: ignore[blocking-in-lock] — serialising both
            # ring directions on one doorbell pipe is the design; the
            # poll is bounded by _BACKSTOP, so the stall is too.
            with self.lock:
                # The sibling thread may have drained our doorbell
                # while it held the lock — recheck before blocking.
                if ready():
                    return
                try:
                    if conn.poll(self._BACKSTOP):
                        # Drain every pending doorbell; EOF here is how
                        # a dead peer surfaces (its pipe end closed).
                        conn.recv_bytes()
                        while conn.poll(0):
                            conn.recv_bytes()
                except (EOFError, OSError):
                    # EOF is a wake-up, not a verdict — the peer may
                    # have published the frame we need and then exited
                    # cleanly.  Recheck the ring; only a stall that
                    # persists (next _sleep) is fatal.
                    self.peer_dead = True
                    return
        if _now() > self.deadline:
            raise TransportError(
                f"rank {self.rank} timed out {self.what} rank {self.peer} "
                f"({self.timeout}s)"
            )


class _ShmRing:
    """Single-producer / single-consumer byte ring over one segment.

    The producer only ever advances ``head``, the consumer only
    ``tail``; each side reads the other's cursor conservatively, so no
    locks are needed.  Writes and reads are chunked against available
    space — a frame larger than the buffer streams through in pieces
    as the reader drains, bounded memory for any frame size.
    """

    __slots__ = ("shm", "name", "capacity", "_ctrl", "_data")

    def __init__(self, shm) -> None:
        self.shm = shm
        self.name = shm.name
        self.capacity = shm.size - _RING_CTRL_NBYTES
        self._ctrl = np.frombuffer(shm.buf, dtype=np.int64, count=_CTRL_FIELDS)
        self._data = np.frombuffer(
            shm.buf, dtype=np.uint8, offset=_RING_CTRL_NBYTES,
            count=self.capacity,
        )

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def create(cls, name: str, nbytes: int) -> "_ShmRing":
        from multiprocessing import shared_memory

        if nbytes < _MIN_RING_NBYTES:
            raise ValueError(
                f"ring_bytes must be >= {_MIN_RING_NBYTES}, got {nbytes}"
            )
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=_RING_CTRL_NBYTES + int(nbytes)
            )
        except OSError as exc:
            raise TransportError(
                f"could not allocate a {nbytes}-byte shared-memory ring "
                f"({exc}); is /dev/shm large enough?"
            ) from exc
        try:
            _LIVE_SEGMENTS.add(shm.name)
            ring = cls(shm)
            ring._ctrl[:] = 0
        except BaseException:
            # The segment exists kernel-side the moment create=True
            # returns; if mapping it fails we must tear it down here or
            # it lingers in /dev/shm until the atexit backstop.
            try:
                shm.close()  # may refuse while half-built views map it
            finally:
                shm.unlink()
                _LIVE_SEGMENTS.discard(shm.name)
            raise
        return ring

    @classmethod
    def attach(cls, name: str) -> "_ShmRing":
        return cls(_attach_segment(name))

    def close(self) -> None:
        """Drop this process's mapping (never the segment itself)."""
        self._ctrl = None
        self._data = None
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a sender thread still maps it
            pass

    def unlink(self) -> None:
        """Destroy the segment — creator only."""
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        _LIVE_SEGMENTS.discard(self.name)

    def free_bytes(self) -> int:
        """Writable bytes right now — producer-side view, conservative
        (the reader can only grow it by draining)."""
        ctrl = self._ctrl
        return self.capacity - (int(ctrl[_CTRL_HEAD]) - int(ctrl[_CTRL_TAIL]))

    # -- producer -------------------------------------------------------
    def write(self, raw: np.ndarray, waiter: _RingWaiter) -> None:
        """Copy ``raw`` (1-d uint8) in, chunking as the reader drains."""
        ctrl, data, cap = self._ctrl, self._data, self.capacity
        n = raw.size
        written = 0
        while written < n:
            head = int(ctrl[_CTRL_HEAD])
            free = cap - (head - int(ctrl[_CTRL_TAIL]))
            if free <= 0:
                waiter.wait_writable(self)
                continue
            k = min(free, n - written)
            pos = head % cap
            first = min(k, cap - pos)
            data[pos:pos + first] = raw[written:written + first]
            if k > first:
                data[:k - first] = raw[written + first:written + k]
            # Publish only after the payload bytes are in place.
            ctrl[_CTRL_HEAD] = head + k
            if ctrl[_CTRL_READER_WAITING]:
                waiter.ring_doorbell()
            written += k
            waiter.progress()

    # -- consumer -------------------------------------------------------
    def read_into(self, out: np.ndarray, waiter: _RingWaiter) -> None:
        """Fill ``out`` (1-d uint8) from the ring, chunk by chunk."""
        ctrl, data, cap = self._ctrl, self._data, self.capacity
        n = out.size
        got = 0
        while got < n:
            tail = int(ctrl[_CTRL_TAIL])
            avail = int(ctrl[_CTRL_HEAD]) - tail
            if avail <= 0:
                waiter.wait_readable(self)
                continue
            k = min(avail, n - got)
            pos = tail % cap
            first = min(k, cap - pos)
            out[got:got + first] = data[pos:pos + first]
            if k > first:
                out[got + first:got + k] = data[:k - first]
            ctrl[_CTRL_TAIL] = tail + k
            if ctrl[_CTRL_WRITER_WAITING]:
                waiter.ring_doorbell()
            got += k
            waiter.progress()


class _ShmEndpoint(Endpoint):
    """One rank's handle on the shared-memory data plane.

    ``_put`` frames a numpy payload into the outbound ring for its
    destination — header word, then interned tag/dtype bytes on first
    use, then the raw payload memcpy'd in; ``_get`` reverses it.  The
    mesh pipes are consulted only when a ring stalls, to turn peer
    death into an immediate :class:`TransportError` (EOF) instead of a
    timeout.  Everything above the raw channel — metering, FIFO send
    tickets, exchanges, collectives, blocked-seconds accounting — is
    the shared :class:`Endpoint` machinery, with one refinement: a
    send whose channel is idle and whose frame fits the ring's free
    space is written inline from the calling thread (see
    :meth:`_enqueue`) instead of paying the queue/condvar handoff.
    """

    def __init__(self, rank, num_parts, bytes_per_scalar, recv_timeout,
                 conns, send_rings, recv_rings):
        super().__init__(rank, num_parts, bytes_per_scalar, recv_timeout)
        self._conns = conns
        self._send_rings = send_rings
        self._recv_rings = recv_rings
        # Per-channel intern tables: ids are assigned in first-use
        # order by the producer and mirrored by the consumer — valid
        # because each directed ring is strictly FIFO.
        self._tags_out: Dict[int, Dict[str, int]] = {d: {} for d in send_rings}
        self._tags_in: Dict[int, List[str]] = {s: [] for s in recv_rings}
        self._dtypes_out: Dict[int, Dict[str, int]] = {d: {} for d in send_rings}
        self._dtypes_in: Dict[int, List[str]] = {s: [] for s in recv_rings}
        # One lock per control pipe: the calling thread (reads) and the
        # per-destination sender thread (writes) both park on the same
        # pipe when their ring stalls, and concurrent recv_bytes would
        # tear the length-prefixed doorbell frames.
        self._conn_locks: Dict[int, threading.Lock] = {
            peer: threading.Lock() for peer in conns
        }

    @classmethod
    def _from_launch(cls, rank, num_parts, bytes_per_scalar, recv_timeout,
                     conns, extra):
        ring_names = extra
        send_rings = {
            j: _ShmRing.attach(ring_names[(rank, j)])
            for j in range(num_parts) if j != rank
        }
        recv_rings = {
            j: _ShmRing.attach(ring_names[(j, rank)])
            for j in range(num_parts) if j != rank
        }
        return cls(rank, num_parts, bytes_per_scalar, recv_timeout, conns,
                   send_rings, recv_rings)

    def _waiter(self, peer: int, what: str) -> _RingWaiter:
        # No control pipe (in-process harness) means no lock either:
        # the waiter only takes the lock to poll that pipe.
        return _RingWaiter(self.rank, peer, self._conns.get(peer),
                           self._conn_locks.get(peer), self.recv_timeout,
                           what)

    # -- ordered outbound, inline fast-path -----------------------------
    def _frame_nbytes(self, dst: int, message) -> int:
        tag, payload = message
        arr = np.asarray(payload)
        n = _I64 * (_FRAME_FIELDS + arr.ndim) + arr.size * arr.dtype.itemsize
        if tag not in self._tags_out[dst]:
            n += len(tag.encode("utf-8"))
        if arr.dtype.str not in self._dtypes_out[dst]:
            n += len(arr.dtype.str.encode("ascii"))
        return n

    def _enqueue(self, dst: int, message, tag: str) -> _SendTicket:
        """Ordered send with an inline fast-path.

        Every send originates on the endpoint's calling thread, so
        whenever the ordered queue to ``dst`` is idle, writing the
        frame right here preserves FIFO by program order — and skips
        the queue/ticket/condvar handoff (two thread wakeups through
        the GIL per message), which on a loaded host costs more than
        the memcpy itself.  The fast-path is taken only when the whole
        frame fits the ring's free space *now*: with the queue idle no
        other writer can shrink it, the reader can only grow it, so
        the inline write cannot block and ``isend`` stays
        non-blocking.  Large frames (above an eighth of the ring) take
        the sender thread even when they would fit: for those the
        copy itself is the cost, and pushing it to the sender thread
        lets the calling thread drain inbound traffic concurrently —
        the overlap that keeps both peers' rings moving.  Oversized or
        queued-behind frames likewise fall back, unchanged.
        """
        q = self._send_queues.get(dst)
        if q is None or q.unfinished_tasks == 0:
            ring = self._send_rings.get(dst)
            if (ring is not None
                    and self._frame_nbytes(dst, message)
                    <= min(ring.free_bytes(), ring.capacity >> 3)):
                ticket = _SendTicket(dst, tag)
                try:
                    self._put(dst, message)
                except BaseException as exc:  # noqa: BLE001 - at join
                    ticket.error = exc
                ticket._done.set()
                return ticket
        return super()._enqueue(dst, message, tag)

    # -- raw channel ----------------------------------------------------
    def _put(self, dst: int, message) -> None:
        tag, payload = message
        arr = np.ascontiguousarray(payload)
        raw = arr.reshape(-1).view(np.uint8) if arr.size else _EMPTY_U8
        tags = self._tags_out[dst]
        tag_id = tags.get(tag)
        tag_bytes = b""
        if tag_id is None:
            tag_id = tags[tag] = len(tags)
            tag_bytes = tag.encode("utf-8")
        dtypes = self._dtypes_out[dst]
        dtype_str = arr.dtype.str
        dtype_id = dtypes.get(dtype_str)
        dtype_bytes = b""
        if dtype_id is None:
            dtype_id = dtypes[dtype_str] = len(dtypes)
            dtype_bytes = dtype_str.encode("ascii")
        header = np.array(
            [raw.size, tag_id, len(tag_bytes), dtype_id, len(dtype_bytes),
             arr.ndim],
            dtype=np.int64,
        )
        shape = np.asarray(arr.shape, dtype=np.int64)
        meta = (header.tobytes() + tag_bytes + dtype_bytes + shape.tobytes())
        ring = self._send_rings[dst]
        waiter = self._waiter(dst, "writing to")
        ring.write(np.frombuffer(meta, dtype=np.uint8), waiter)
        if raw.size:
            ring.write(raw, waiter)

    def _get(self, src: int):
        ring = self._recv_rings[src]
        waiter = self._waiter(src, "waiting for")
        header = np.empty(_FRAME_FIELDS, dtype=np.int64)
        ring.read_into(header.view(np.uint8), waiter)
        payload_nbytes, tag_id, tag_len, dtype_id, dtype_len, ndim = (
            int(v) for v in header
        )
        trailer = np.empty(tag_len + dtype_len + _I64 * ndim, dtype=np.uint8)
        ring.read_into(trailer, waiter)
        trailer_bytes = trailer.tobytes()
        known_tags = self._tags_in[src]
        if tag_len:
            known_tags.append(trailer_bytes[:tag_len].decode("utf-8"))
        known_dtypes = self._dtypes_in[src]
        if dtype_len:
            known_dtypes.append(
                trailer_bytes[tag_len:tag_len + dtype_len].decode("ascii")
            )
        try:
            tag = known_tags[tag_id]
            dtype = np.dtype(known_dtypes[dtype_id])
        except (IndexError, TypeError) as exc:
            raise TransportError(
                f"rank {self.rank} read a corrupt frame header from rank "
                f"{src} (unknown tag/dtype id)"
            ) from exc
        shape = tuple(
            np.frombuffer(trailer_bytes, dtype=np.int64,
                          offset=tag_len + dtype_len, count=ndim)
        ) if ndim else ()
        out = np.empty(shape, dtype=dtype)
        if out.nbytes != payload_nbytes:
            raise TransportError(
                f"rank {self.rank} read a corrupt frame from rank {src}: "
                f"header promises {payload_nbytes} B, shape/dtype give "
                f"{out.nbytes} B"
            )
        if out.size:
            ring.read_into(out.reshape(-1).view(np.uint8), waiter)
        return tag, out

    def close(self) -> None:
        super().close()
        # Give the sender threads a moment to drain their queues before
        # dropping the ring mappings they write through; a thread stuck
        # past its own recv_timeout is abandoned (its ring close is
        # skipped — the OS reclaims the mapping at process exit, and
        # the segment itself is the parent's to unlink).
        stuck = set()
        for dst, thread in self._send_threads.items():
            thread.join(2.0)
            if thread.is_alive():
                stuck.add(dst)
        for dst, ring in self._send_rings.items():
            if dst not in stuck:
                ring.close()
        for ring in self._recv_rings.values():
            ring.close()


class SharedMemoryTransport(MultiprocessTransport):
    """Ranks as OS processes, shared-memory rings as wires.

    The zero-copy data plane: one
    :class:`multiprocessing.shared_memory` ring buffer per *directed*
    rank pair carries raw numpy frames — no pickle framing, no pipe
    copies, payload bytes move by exactly one memcpy in and one out.
    The pipe mesh stays, carrying only control traffic (launch
    payload, result + meter, doorbell wakeups, dead-peer EOF), so
    dead-peer detection, metering, FIFO send ordering and the
    non-blocking exchange path behave exactly as on
    :class:`MultiprocessTransport`.

    Lifecycle discipline: the parent *creates* every segment before
    the workers start and is the only process that ever *unlinks*
    (``launch``'s ``finally`` plus an ``atexit`` backstop); workers
    attach without resource-tracker registration and only ``close()``
    their mappings — so neither a crashed worker nor CPython's tracker
    can leak or prematurely destroy a segment.

    ``ring_bytes`` sizes each ring's data area.  Frames larger than
    the ring stream through in chunks as the reader drains, so
    correctness never depends on the size — only latency does.
    """

    name = "shm"
    _endpoint_cls = _ShmEndpoint

    def __init__(self, num_parts: int, recv_timeout: float = 60.0,
                 dtype=None, ring_bytes: int = 4 << 20) -> None:
        super().__init__(num_parts, recv_timeout=recv_timeout, dtype=dtype)
        if ring_bytes < _MIN_RING_NBYTES:
            raise ValueError(
                f"ring_bytes must be >= {_MIN_RING_NBYTES}, got {ring_bytes}"
            )
        self.ring_bytes = int(ring_bytes)
        #: Segment names of the most recent launch (tests assert they
        #: are gone from /dev/shm after teardown).
        self._segment_names: List[str] = []

    def _data_plane_setup(self, m: int):
        token = uuid.uuid4().hex[:8]
        rings: List[_ShmRing] = []
        names: Dict[Tuple[int, int], str] = {}
        try:
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    # Short names: POSIX shm caps them at 31 chars on
                    # some platforms (macOS), '/' included.
                    name = f"rg{token}_{i}_{j}"
                    rings.append(_ShmRing.create(name, self.ring_bytes))
                    names[(i, j)] = name
        except BaseException:
            for ring in rings:
                ring.close()
                ring.unlink()
            raise
        self._segment_names = [ring.name for ring in rings]

        def cleanup() -> None:
            # Creator-owns-unlink: by the time launch()'s finally runs
            # the workers are dead or done, so dropping the parent's
            # mapping and unlinking destroys the segment for good.
            for ring in rings:
                ring.close()
                ring.unlink()

        return names, cleanup


def _now() -> float:
    return time.monotonic()
