"""Shared-memory transport: framing, lifecycle, deadlines.

The conformance/equivalence suites prove ``SharedMemoryTransport``
interchangeable with the other transports; this file tests what is
*specific* to the shm data plane:

* ring-buffer framing under arbitrary frame-size sequences
  (hypothesis): wraparound, frames larger than the ring (chunked
  streaming), interned tags/dtypes, multi-dimensional shapes — bytes
  out are always the bytes in, never corruption;
* segment lifecycle: the parent creates and unlinks, workers only
  close — so a worker SIGKILLed mid-epoch leaves nothing in
  ``/dev/shm`` and CPython's resource tracker has nothing to warn
  about;
* the launch deadline: ``launch(timeout=)`` bounds a hung worker and
  falls back to ``recv_timeout`` uniformly on all three data-moving
  transports, and peer *death* is detected in a small fraction of
  ``recv_timeout``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.transport import (
    _MIN_RING_NBYTES,
    LocalTransport,
    MultiprocessTransport,
    SharedMemoryTransport,
    TransportError,
    _RingWaiter,
    _ShmEndpoint,
    _ShmRing,
)

DATA_MOVING = [LocalTransport, MultiprocessTransport, SharedMemoryTransport]


def _shm_leftovers() -> list:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm not available")
    return [f for f in os.listdir("/dev/shm") if f.startswith("rg")]


# ----------------------------------------------------------------------
# Ring framing (hypothesis)
# ----------------------------------------------------------------------
_DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8]

_frame_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1500),   # elements
        st.sampled_from(range(len(_DTYPES))),       # dtype
        st.sampled_from(["forward", "backward", "reduce", "x"]),
        st.booleans(),                              # reshape to 2-d?
    ),
    min_size=1,
    max_size=20,
)


class _FramingHarness:
    """A producer endpoint and a consumer endpoint over one real ring.

    Exercises the actual ``_ShmEndpoint`` framing (``_put``/``_get``)
    in-process: the producer runs in a thread (its blocking chunked
    writes need the consumer draining concurrently once a frame
    outgrows the ring), the consumer in the test thread.
    """

    def __init__(self, ring_bytes: int, timeout: float = 30.0) -> None:
        name = f"rgtest_{uuid.uuid4().hex[:8]}"
        self.ring = _ShmRing.create(name, ring_bytes)
        self.reader_ring = _ShmRing.attach(name)
        # conns={} -> the waiters have no control pipe to consult, they
        # just spin/sleep against their deadlines.
        self.producer = _ShmEndpoint(
            0, 2, 8, timeout, {}, send_rings={1: self.ring}, recv_rings={})
        self.consumer = _ShmEndpoint(
            1, 2, 8, timeout, {}, send_rings={}, recv_rings={0: self.reader_ring})

    def close(self) -> None:
        self.producer.close()
        self.consumer.close()
        self.ring.unlink()


@settings(max_examples=40, deadline=None)
@given(frames=_frame_strategy, ring_kib=st.sampled_from([4, 16]))
def test_ring_framing_never_corrupts(frames, ring_kib):
    """Any sequence of frame sizes — empty, sub-ring, multiples of the
    ring size (forced wraparound), several times larger than the ring
    (chunked streaming) — round-trips bit-exactly in FIFO order."""
    harness = _FramingHarness(ring_kib * 1024)
    try:
        rng = np.random.default_rng(0)
        payloads = []
        for n, dtype_idx, tag, reshape in frames:
            dtype = _DTYPES[dtype_idx]
            arr = (rng.integers(0, 100, size=n)).astype(dtype)
            if reshape and n % 2 == 0 and n > 0:
                arr = arr.reshape(2, n // 2)
            payloads.append((tag, arr))

        failures = []

        def produce():
            try:
                for tag, arr in payloads:
                    harness.producer._put(1, (tag, arr))
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        thread = threading.Thread(target=produce, daemon=True)
        thread.start()
        for tag, arr in payloads:
            got_tag, got = harness.consumer._get(0)
            assert got_tag == tag
            assert got.dtype == arr.dtype
            assert got.shape == arr.shape
            np.testing.assert_array_equal(got, arr)
        thread.join(30.0)
        assert not thread.is_alive(), "producer wedged"
        assert not failures, failures
    finally:
        harness.close()


def test_frame_larger_than_ring_streams_through():
    """A frame ~200x the ring size streams through chunk by chunk —
    correctness never depends on ring_bytes, only latency does."""
    harness = _FramingHarness(_MIN_RING_NBYTES)
    try:
        big = np.arange(100_000, dtype=np.float64)  # 800 KB vs 4 KiB ring

        def produce():
            harness.producer._put(1, ("big", big))

        thread = threading.Thread(target=produce, daemon=True)
        thread.start()
        tag, got = harness.consumer._get(0)
        thread.join(10.0)
        assert tag == "big"
        np.testing.assert_array_equal(got, big)
    finally:
        harness.close()


def test_ring_read_wait_raises_after_timeout():
    """An empty ring with no sender raises TransportError after the
    no-progress window — never a hang."""
    harness = _FramingHarness(_MIN_RING_NBYTES, timeout=0.2)
    try:
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            harness.consumer._get(0)
        assert time.monotonic() - t0 < 5.0
    finally:
        harness.close()


def test_ring_rejects_undersized_buffers():
    with pytest.raises(ValueError, match="ring_bytes"):
        SharedMemoryTransport(2, ring_bytes=16)
    with pytest.raises(ValueError, match="ring_bytes"):
        _ShmRing.create(f"rgtest_{uuid.uuid4().hex[:8]}", 16)


def test_waiter_reports_peer_death_via_control_pipe():
    """A dead peer closes its control-pipe end; the blocked waiter's
    poll wakes on the EOF, rechecks the ring once (the peer may have
    published a final frame before exiting cleanly), and raises on the
    persistent stall — peer death is never mistaken for an empty ring,
    and a clean exit never loses the last frame."""
    import multiprocessing as mp
    import threading

    name = f"rgtest_{uuid.uuid4().hex[:8]}"
    ring = _ShmRing.create(name, _MIN_RING_NBYTES)
    a, b = mp.Pipe(duplex=True)
    b.close()  # peer gone
    try:
        waiter = _RingWaiter(0, 1, a, threading.Lock(),
                             timeout=30.0, what="waiting for")
        # First wait absorbs the EOF as a wake-up and returns so the
        # caller can drain anything already published ...
        waiter.wait_readable(ring)
        assert waiter.peer_dead
        # ... and a stall that persists after that is fatal.
        with pytest.raises(TransportError, match="peer died"):
            waiter.wait_readable(ring)
        # Doorbells to a dead peer are a no-op, not an error: the
        # cursor move that triggered them is still valid locally.
        waiter.ring_doorbell()
    finally:
        a.close()
        ring.close()
        ring.unlink()


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------
class TestSegmentLifecycle:
    def test_normal_launch_unlinks_every_segment(self):
        before = set(_shm_leftovers())
        transport = SharedMemoryTransport(3, recv_timeout=20.0)

        def worker(ep, _):
            peer = (ep.rank + 1) % ep.num_parts
            ep.send(peer, np.ones(8), "x")
            ep.recv((ep.rank - 1) % ep.num_parts, "x")
            return True

        assert transport.launch(worker, timeout=60.0) == [True] * 3
        assert len(transport._segment_names) == 6  # directed pairs
        after = set(_shm_leftovers())
        assert not (after - before)
        for name in transport._segment_names:
            assert not os.path.exists(os.path.join("/dev/shm", name))

    def test_failed_creation_cleans_up_partial_mesh(self, monkeypatch):
        """If the k-th segment fails to allocate, segments 0..k-1 are
        unlinked before the error propagates (a failed launch must not
        leak /dev/shm capacity)."""
        from multiprocessing import shared_memory

        before = set(_shm_leftovers())
        real = shared_memory.SharedMemory
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            if kwargs.get("create") and calls["n"] >= 3:
                raise OSError(28, "No space left on device")
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", flaky)
        transport = SharedMemoryTransport(3, recv_timeout=5.0)
        with pytest.raises(TransportError, match="/dev/shm"):
            transport.launch(lambda ep, _: True, timeout=10.0)
        monkeypatch.undo()
        assert set(_shm_leftovers()) == before

    def test_sigkilled_worker_leaks_nothing(self):
        """Kill a worker mid-epoch (SIGKILL — no atexit, no finally on
        the worker side runs) in a fresh interpreter: every segment is
        still unlinked by the parent, and the resource tracker prints
        no 'leaked shared_memory' warning.  Runs as a subprocess so the
        tracker's own stderr is captured."""
        script = r"""
import os, signal, sys
import numpy as np
sys.path.insert(0, %(src)r)
from repro.dist.transport import SharedMemoryTransport, TransportError

t = SharedMemoryTransport(2, recv_timeout=30.0)

def worker(ep, _):
    peer = 1 - ep.rank
    for epoch in range(100):
        ep.send(peer, np.full(1000, float(epoch)), "feat")
        ep.recv(peer, "feat")
        if ep.rank == 1 and epoch == 2:
            os.kill(os.getpid(), signal.SIGKILL)  # mid-epoch, no cleanup
    return True

try:
    t.launch(worker, timeout=60.0)
    print("NO-ERROR")
except TransportError as exc:
    print("RAISED:", str(exc)[:60])
leftover = [n for n in t._segment_names
            if os.path.exists(os.path.join("/dev/shm", n))]
print("LEFTOVER:", leftover)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script % {"src": os.path.abspath("src")}],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RAISED:" in proc.stdout
        assert "LEFTOVER: []" in proc.stdout
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_worker_only_closes_never_unlinks(self):
        """A worker whose endpoint is closed must leave the segments
        linked for its peers — unlink is the creator's alone.  Probed
        in-process: closing an attached ring keeps the name alive."""
        name = f"rgtest_{uuid.uuid4().hex[:8]}"
        ring = _ShmRing.create(name, _MIN_RING_NBYTES)
        try:
            attached = _ShmRing.attach(name)
            attached.close()  # the worker-side teardown
            assert os.path.exists(os.path.join("/dev/shm", name))
        finally:
            ring.close()
            ring.unlink()
        assert not os.path.exists(os.path.join("/dev/shm", name))


# ----------------------------------------------------------------------
# Launch deadline + dead-peer latency
# ----------------------------------------------------------------------
def _hung_worker(ep, _):
    time.sleep(60.0)
    return True


class TestLaunchDeadline:
    @pytest.mark.parametrize("cls", DATA_MOVING)
    def test_launch_timeout_defaults_to_recv_timeout(self, cls):
        """Without ``timeout=`` a hung worker fails at ~``recv_timeout``
        on every data-moving transport."""
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="0.5"):
            cls(2, recv_timeout=0.5).launch(_hung_worker)
        assert time.monotonic() - t0 < 10.0

    @pytest.mark.parametrize("cls", DATA_MOVING)
    def test_hung_worker_fails_at_the_named_deadline(self, cls):
        """A worker that never returns fails at ~``timeout`` — not at
        the per-recv window."""
        transport = cls(2, recv_timeout=30.0)
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="0.5"):
            transport.launch(_hung_worker, timeout=0.5)
        assert time.monotonic() - t0 < 10.0

    @pytest.mark.parametrize("cls", [MultiprocessTransport, SharedMemoryTransport])
    def test_peer_death_detected_well_inside_recv_timeout(self, cls):
        """Death is EOF, not a timeout: with a 30s receive window a
        SIGKILLed peer must surface in a small fraction of it."""
        transport = cls(2, recv_timeout=30.0)

        def worker(ep, _):
            if ep.rank == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            ep.recv(1, "never")
            return True

        t0 = time.monotonic()
        with pytest.raises(TransportError):
            transport.launch(worker, timeout=60.0)
        assert time.monotonic() - t0 < 10.0
