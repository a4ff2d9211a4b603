"""Transport conformance suite.

One declarative scenario matrix — send/broadcast/allreduce sequences,
the degenerate single-rank case, zero-scalar and self sends, mixed-tag
epochs — runs against all four transports:

* ``SimulatedCommunicator`` replays the metering plane directly (its
  ranks share one process, nothing travels);
* ``LocalTransport`` / ``MultiprocessTransport`` /
  ``SharedMemoryTransport`` execute the same scenario as *m* real
  workers moving real payloads — threads over queues, processes over
  pickling pipes, and processes over zero-copy shared-memory rings
  respectively (every received array is checked against what the
  sender produced, every AllReduce against the true sum).

The assertion that makes the four interchangeable: identical
``pairwise`` byte matrices and identical per-tag byte totals, compared
with ``==`` — byte-for-byte, not approximately.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

import numpy as np
import pytest

from repro.dist.comm import SimulatedCommunicator
from repro.dist.transport import (
    ExchangeHandle,
    LocalTransport,
    MultiprocessTransport,
    SharedMemoryTransport,
    TransportError,
    resolve_transport,
    ring_allreduce_scalars,
)

DATA_MOVING = ["local", "multiprocess", "shm"]
TRANSPORT_CLASSES = {
    "local": LocalTransport,
    "multiprocess": MultiprocessTransport,
    "shm": SharedMemoryTransport,
}
from repro.tensor import get_default_dtype

# ----------------------------------------------------------------------
# Scenario matrix: (name, num_parts, ops)
#   ("send", src, dst, n, tag)
#   ("bcast", src, n, tag)
#   ("allreduce", n, tag)
# ----------------------------------------------------------------------
SCENARIOS = [
    (
        "p2p_basic", 3,
        [
            ("send", 0, 1, 10, "forward"),
            ("send", 1, 0, 10, "backward"),
            ("send", 2, 0, 3, "forward"),
            ("send", 0, 2, 7, "misc"),
        ],
    ),
    (
        "zero_scalar_and_self_sends", 2,
        [
            ("send", 0, 1, 0, "forward"),
            ("send", 1, 1, 5, "forward"),  # self-send meters nothing
            ("send", 1, 0, 4, "forward"),
            ("bcast", 0, 0, "sample_sync"),
        ],
    ),
    (
        "degenerate_m1", 1,
        [
            ("bcast", 0, 9, "sample_sync"),
            ("allreduce", 11, "reduce"),
            ("send", 0, 0, 5, "forward"),
        ],
    ),
    (
        "broadcasts", 4,
        [
            ("bcast", 0, 6, "sample_sync"),
            ("bcast", 1, 0, "sample_sync"),
            ("bcast", 2, 13, "sample_sync"),
            ("bcast", 3, 1, "sample_sync"),
        ],
    ),
    (
        "allreduce_ring_uneven", 4,
        [("allreduce", 7, "reduce"), ("allreduce", 1, "reduce")],
    ),
    (
        # The only odd world size in the AllReduce matrix.
        "allreduce_ring_odd_world", 3,
        [("allreduce", 10, "reduce"), ("allreduce", 4, "r2")],
    ),
    (
        "epoch_like", 4,
        [
            ("bcast", 0, 12, "sample_sync"),
            ("bcast", 1, 8, "sample_sync"),
            ("bcast", 2, 0, "sample_sync"),
            ("bcast", 3, 5, "sample_sync"),
            ("send", 1, 0, 96, "forward"),
            ("send", 0, 1, 96, "backward"),
            ("send", 2, 3, 40, "forward"),
            ("send", 3, 2, 40, "backward"),
            ("allreduce", 1234, "reduce"),
        ],
    ),
]

IDS = [name for name, _, _ in SCENARIOS]


def _payload(src: int, op_index: int, n: int) -> np.ndarray:
    """Deterministic payload so receivers can verify content.

    Built in the library default dtype: the data plane enforces that a
    float payload's width matches what the (default-constructed)
    transports meter, so the suite stays green under REPRO_DTYPE=float32.
    """
    base = (src * 1000.0 + op_index * 17.0) + np.arange(n, dtype=np.float64)
    return base.astype(get_default_dtype())


def _replay_worker(ep, ops):
    """Run one rank's side of the scenario with real payloads."""
    m, rank = ep.num_parts, ep.rank
    for k, op in enumerate(ops):
        kind = op[0]
        if kind == "send":
            _, src, dst, n, tag = op
            if src == dst:
                continue  # simulated meters zero; nothing travels
            if rank == src:
                ep.send(dst, _payload(src, k, n), tag)
            elif rank == dst:
                got = ep.recv(src, tag)
                np.testing.assert_array_equal(got, _payload(src, k, n))
        elif kind == "bcast":
            _, src, n, tag = op
            if rank == src:
                for dst in range(m):
                    if dst != src:
                        ep.send(dst, _payload(src, k, n), tag)
            else:
                got = ep.recv(src, tag)
                np.testing.assert_array_equal(got, _payload(src, k, n))
        elif kind == "allreduce":
            _, n, tag = op
            out = ep.allreduce(_payload(rank, k, n), tag)
            expected = np.sum([_payload(r, k, n) for r in range(m)], axis=0)
            np.testing.assert_allclose(out, expected, atol=1e-9)
        else:  # pragma: no cover - scenario typo guard
            raise ValueError(f"unknown op {kind!r}")
    return ep.meter.snapshot()


def _simulated_ledger(m, ops):
    comm = SimulatedCommunicator(m)
    for op in ops:
        kind = op[0]
        if kind == "send":
            _, src, dst, n, tag = op
            comm.send(src, dst, n, tag)
        elif kind == "bcast":
            _, src, n, tag = op
            comm.broadcast(src, n, tag)
        elif kind == "allreduce":
            _, n, tag = op
            comm.allreduce(n, tag)
    return comm.meter.snapshot()


def _launched_ledger(transport, ops):
    snapshots = transport.launch(
        _replay_worker, [ops] * transport.num_parts, timeout=60.0
    )
    pairwise = np.zeros_like(snapshots[0][0])
    by_tag = {}
    for pw, tags in snapshots:
        pairwise += pw
        for tag, nbytes in tags.items():
            by_tag[tag] = by_tag.get(tag, 0) + nbytes
    return pairwise, by_tag


def _make_transport(kind, m):
    return TRANSPORT_CLASSES[kind](m, recv_timeout=30.0)


@pytest.mark.parametrize("cls", [SimulatedCommunicator, LocalTransport,
                                 MultiprocessTransport, SharedMemoryTransport])
def test_repr_names_class_ranks_and_metered_total(cls):
    m = 3
    transport = cls(m)
    transport.send(0, 1, 5, "forward")
    n = 5 * transport.bytes_per_scalar
    assert repr(transport) == f"{type(transport).__name__}(m={m}, total={n}B)"


class TestResolveTransport:
    """``None`` meters only, a name builds a data-moving transport at
    the run's dtype and receive window, an instance is checked against
    the rank count and kept as it is."""

    def test_none_builds_a_metering_only_communicator(self):
        comm = resolve_transport(None, 3, dtype=np.float32)
        assert type(comm) is SimulatedCommunicator
        assert (comm.num_parts, comm.bytes_per_scalar) == (3, 4)

    @pytest.mark.parametrize("kind", DATA_MOVING)
    def test_name_builds_the_transport(self, kind):
        transport = resolve_transport(kind, 3, dtype=np.float32,
                                      recv_timeout=7)
        assert type(transport) is TRANSPORT_CLASSES[kind]
        assert transport.num_parts == 3
        assert transport.bytes_per_scalar == 4
        assert transport.recv_timeout == 7.0

    def test_instance_keeps_its_own_configuration(self):
        transport = LocalTransport(3, recv_timeout=5.0, dtype=np.float64)
        got = resolve_transport(transport, 3, dtype=np.float32,
                                recv_timeout=60.0)
        assert got is transport
        assert (got.bytes_per_scalar, got.recv_timeout) == (8, 5.0)

    def test_rank_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3 ranks"):
            resolve_transport(LocalTransport(3), 4)

    def test_unknown_name_rejected(self):
        with pytest.raises(TypeError, match="simulated"):
            resolve_transport("simulated", 2)


@pytest.mark.parametrize("kind", DATA_MOVING)
def test_sender_queue_settles_after_joined_sends(kind):
    """Every queued message is marked done: once a rank's sends are
    joined, its outbound queue reports no unfinished task (the shm
    endpoint's inline path reads that count to see an idle channel).
    Frames are above an eighth of the shm ring, so shm queues them too."""
    transport = _make_transport(kind, 2)
    n, count = 100_000, 4

    def worker(ep, _):
        peer = 1 - ep.rank
        tickets = [
            ep.isend(peer, np.full(n, k, dtype=get_default_dtype()), "forward")
            for k in range(count)
        ]
        got = [int(ep.recv(peer, "forward")[0]) for _ in range(count)]
        for ticket in tickets:
            assert ticket.join(30.0) and ticket.error is None
        q = ep._send_queues[peer]
        deadline = time.monotonic() + 5.0
        while q.unfinished_tasks and time.monotonic() < deadline:
            time.sleep(0.001)
        return got, q.unfinished_tasks

    results = transport.launch(worker, timeout=60.0)
    assert results == [(list(range(count)), 0)] * 2


@pytest.mark.parametrize("kind", DATA_MOVING)
@pytest.mark.parametrize("name,m,ops", SCENARIOS, ids=IDS)
class TestConformance:
    def test_matches_simulated_byte_for_byte(self, kind, name, m, ops):
        sim_pairwise, sim_tags = _simulated_ledger(m, ops)
        pairwise, by_tag = _launched_ledger(_make_transport(kind, m), ops)
        assert by_tag == sim_tags
        assert (pairwise == sim_pairwise).all()


@pytest.mark.parametrize("name,m,ops", SCENARIOS, ids=IDS)
def test_transport_level_ledger_matches_merged_endpoints(name, m, ops):
    """launch() folds per-rank meters into the transport-level ledger."""
    transport = LocalTransport(m, recv_timeout=30.0)
    _launched_ledger(transport, ops)
    sim_pairwise, sim_tags = _simulated_ledger(m, ops)
    assert transport.meter.by_tag == sim_tags
    assert (transport.pairwise == sim_pairwise).all()


class TestDataPlaneGuards:
    def test_self_send_rejected_on_endpoints(self):
        transport = LocalTransport(2, recv_timeout=5.0)

        def worker(ep, _):
            if ep.rank == 0:
                with pytest.raises(TransportError):
                    ep.send(0, np.zeros(3, dtype=get_default_dtype()), "x")
            return True

        assert transport.launch(worker, timeout=15.0) == [True, True]

    def test_recv_timeout_fails_fast(self):
        transport = LocalTransport(2, recv_timeout=0.2)

        def worker(ep, _):
            if ep.rank == 0:
                ep.recv(1, "never")  # rank 1 sends nothing
            return True

        with pytest.raises(TransportError):
            transport.launch(worker, timeout=15.0)

    def test_worker_exception_propagates(self):
        transport = MultiprocessTransport(2, recv_timeout=10.0)

        def worker(ep, _):
            if ep.rank == 1:
                raise ValueError("boom")
            return True

        with pytest.raises(TransportError, match="boom"):
            transport.launch(worker, timeout=30.0)

    def test_tag_mismatch_detected(self):
        transport = LocalTransport(2, recv_timeout=5.0)

        def worker(ep, _):
            if ep.rank == 0:
                ep.send(1, np.zeros(2, dtype=get_default_dtype()), "a")
            else:
                ep.recv(0, "b")
            return True

        with pytest.raises(TransportError, match="expected tag"):
            transport.launch(worker, timeout=15.0)

    def test_allreduce_bitwise_identical_across_ranks(self):
        transport = LocalTransport(3, recv_timeout=10.0)
        rng = np.random.default_rng(0)
        data = [
            rng.standard_normal(37).astype(get_default_dtype())
            for _ in range(3)
        ]

        def worker(ep, contribution):
            return ep.allreduce(contribution, "reduce")

        results = transport.launch(worker, data, timeout=30.0)
        assert (results[0] == results[1]).all()
        assert (results[0] == results[2]).all()
        atol = 1e-12 if get_default_dtype() == np.float64 else 1e-5
        np.testing.assert_allclose(results[0], np.sum(data, axis=0), atol=atol)

    def test_simulated_has_no_data_plane(self):
        with pytest.raises(NotImplementedError):
            SimulatedCommunicator(2).launch(lambda ep, _: None)


class TestDeadPeerDetection:
    """A dead or dropped peer must surface as TransportError within
    recv_timeout — never a silent hang — on both data-moving
    transports, on the blocking recv path, on the non-blocking
    post_exchange/complete_exchange path, and on the send side (the
    regression: ``exchange``/``_ring_allreduce`` used to join their
    send threads with a timeout and silently abandon them)."""

    @pytest.mark.parametrize("kind", DATA_MOVING)
    def test_peer_exits_before_sending(self, kind):
        transport = TRANSPORT_CLASSES[kind](2, recv_timeout=1.0)

        def worker(ep, _):
            if ep.rank == 1:
                return True  # exits without ever sending
            ep.recv(1, "never")
            return True

        with pytest.raises(TransportError):
            transport.launch(worker, timeout=30.0)

    @pytest.mark.parametrize("kind", DATA_MOVING)
    def test_dead_peer_on_post_exchange_path(self, kind):
        """complete_exchange of a deferred receive from a dead peer
        fails within the receive window, not at the launch deadline."""
        transport = TRANSPORT_CLASSES[kind](2, recv_timeout=1.0)

        def worker(ep, _):
            if ep.rank == 1:
                return True  # never serves the posted exchange
            handle = ep.post_exchange({}, [1], "stale_features")
            ep.complete_exchange(handle)
            return None

        with pytest.raises(TransportError) as excinfo:
            transport.launch(worker, timeout=30.0)
        # rank 0's receive window is the reported failure, not the
        # launch deadline (rank 1 exited fine)
        assert "rank 0" in str(excinfo.value)

    def test_allreduce_with_dead_peer_times_out(self):
        transport = LocalTransport(3, recv_timeout=0.5)

        def worker(ep, contribution):
            if ep.rank == 2:
                return None  # drops out of the collective
            return ep.allreduce(contribution, "reduce")

        data = [np.ones(8, dtype=get_default_dtype())] * 3
        with pytest.raises(TransportError):
            transport.launch(worker, data, timeout=30.0)

    @pytest.mark.parametrize("kind", ["multiprocess", "shm"])
    def test_abandoned_send_raises_not_masks(self, kind):
        """A send the peer never drains must raise once the window
        closes.  Pipes hold ~64KB and the default shm ring 4MB, so a
        multi-megabyte payload to a sleeping peer leaves the sender
        thread alive after its join — previously swallowed, now a
        TransportError."""
        transport = TRANSPORT_CLASSES[kind](2, recv_timeout=1.0)

        def worker(ep, _):
            if ep.rank == 1:
                # Stay alive past rank 0's send window without draining.
                import time as _time

                _time.sleep(3.0)
                return True
            big = np.zeros(1_000_000, dtype=get_default_dtype())
            ep.send(1, big, "clog")  # must raise, not hang or pass
            return True

        with pytest.raises(TransportError, match="in flight|failed to ship"):
            transport.launch(worker, timeout=30.0)

    @pytest.mark.parametrize("kind", DATA_MOVING)
    def test_completed_handle_cannot_be_redeemed_twice(self, kind):
        transport = TRANSPORT_CLASSES[kind](2, recv_timeout=5.0)

        def worker(ep, _):
            peer = 1 - ep.rank
            handle = ep.post_exchange(
                {peer: np.arange(3, dtype=get_default_dtype())}, [peer], "x"
            )
            ep.complete_exchange(handle)
            with pytest.raises(TransportError, match="twice"):
                ep.complete_exchange(handle)
            return True

        assert transport.launch(worker, timeout=30.0) == [True, True]

    @pytest.mark.parametrize("kind", DATA_MOVING)
    def test_blocked_seconds_accumulates_on_recv_wait(self, kind):
        """The measured compute/blocked split: a rank that waits on a
        slow sender accounts that wait in blocked_seconds — including
        time spent spinning on an empty shared-memory ring, which must
        be priced exactly like a pipe poll (blocked_fraction stays
        comparable across transports)."""
        transport = TRANSPORT_CLASSES[kind](2, recv_timeout=10.0)

        def worker(ep, _):
            import time as _time

            if ep.rank == 1:
                _time.sleep(0.3)
                ep.send(0, np.ones(4, dtype=get_default_dtype()), "slow")
                return ep.blocked_seconds
            ep.recv(1, "slow")
            return ep.blocked_seconds

        waited, _ = transport.launch(worker, timeout=30.0)
        assert waited >= 0.25


def _arange3():
    return np.arange(3, dtype=get_default_dtype())


#: Every data op of an endpoint, driven towards the other rank.  The
#: handle for ``complete_exchange`` is built rather than posted, so no
#: posted handle is left behind for the schedule explorer to flag.
DATA_OPS = {
    "send": lambda ep, peer: ep.send(peer, _arange3(), "x"),
    "isend": lambda ep, peer: ep.isend(peer, _arange3(), "x"),
    "recv": lambda ep, peer: ep.recv(peer, "x"),
    "exchange": lambda ep, peer: ep.exchange({peer: _arange3()}, [peer], "x"),
    "post_exchange": lambda ep, peer: ep.post_exchange(
        {peer: _arange3()}, [peer], "x"),
    "complete_exchange": lambda ep, peer: ep.complete_exchange(
        ExchangeHandle(tag="x", expect=[peer])),
    "allreduce": lambda ep, peer: ep.allreduce(_arange3(), "x"),
}


def _op_after_close(ep, op):
    ep.close()
    t0 = time.perf_counter()
    with pytest.raises(TransportError,
                       match=rf"{op}\(\) on a closed endpoint"):
        DATA_OPS[op](ep, 1 - ep.rank)
    return time.perf_counter() - t0


def _close_twice(ep, _):
    ep.close()
    with pytest.raises(TransportError, match="closed twice"):
        ep.close()
    return True


def _rank_of(ep, _):
    return ep.rank


@pytest.mark.parametrize("kind", DATA_MOVING)
class TestEndpointProtocol:
    """The endpoint and the transport enforce their own protocol on
    every transport: no data op after ``close``, no second ``close``,
    no ``launch`` re-entered while one is in flight."""

    RECV_TIMEOUT = 10.0

    @pytest.mark.parametrize("op", sorted(DATA_OPS))
    def test_data_op_after_close_raises_at_once(self, kind, op):
        transport = TRANSPORT_CLASSES[kind](2, recv_timeout=self.RECV_TIMEOUT)
        waited = transport.launch(_op_after_close, [op, op], timeout=30.0)
        # At once: the op raises before touching a channel, so it never
        # waits out the receive window.
        assert max(waited) < self.RECV_TIMEOUT / 10

    def test_close_twice_raises(self, kind):
        transport = TRANSPORT_CLASSES[kind](2, recv_timeout=self.RECV_TIMEOUT)
        assert transport.launch(_close_twice, timeout=30.0) == [True, True]

    def test_reentered_launch_raises_and_relaunch_is_legal(self, kind):
        transport = TRANSPORT_CLASSES[kind](2, recv_timeout=self.RECV_TIMEOUT)
        # Process events, so ranks in worker processes can signal too.
        started, release = mp.Event(), mp.Event()

        def parked(ep, _):
            started.set()
            if not release.wait(20.0):
                raise TimeoutError("never released")
            return ep.rank

        first = []
        thread = threading.Thread(
            target=lambda: first.append(transport.launch(parked, timeout=30.0))
        )
        thread.start()
        try:
            assert started.wait(20.0)
            with pytest.raises(TransportError, match="re-entered"):
                transport.launch(_rank_of, timeout=30.0)
        finally:
            release.set()
            thread.join(30.0)
        assert not thread.is_alive()
        assert first == [[0, 1]]
        assert transport.launch(_rank_of, timeout=30.0) == [0, 1]

    def test_failed_launch_leaves_the_transport_launchable(self, kind):
        transport = TRANSPORT_CLASSES[kind](2, recv_timeout=self.RECV_TIMEOUT)

        def boom(ep, _):
            raise ValueError("boom")

        with pytest.raises(TransportError, match="boom"):
            transport.launch(boom, timeout=30.0)
        assert transport.launch(_rank_of, timeout=30.0) == [0, 1]


class TestDtypeConformance:
    """The byte ledger is honest per dtype: an fp32 transport ships fp32
    payloads (no fp64 upcast anywhere on the wire path) and meters
    exactly 4 bytes per scalar; the fp64 default meters 8."""

    def test_default_bytes_per_scalar_derives_from_dtype(self):
        from repro.tensor import get_default_dtype

        expected = np.dtype(get_default_dtype()).itemsize
        assert SimulatedCommunicator(2).bytes_per_scalar == expected
        assert LocalTransport(2).bytes_per_scalar == expected
        assert MultiprocessTransport(2).bytes_per_scalar == expected
        assert SharedMemoryTransport(2).bytes_per_scalar == expected
        for cls in (SimulatedCommunicator, LocalTransport,
                    MultiprocessTransport, SharedMemoryTransport):
            assert cls(2, dtype=np.float32).bytes_per_scalar == 4
            assert cls(2, dtype=np.float64).bytes_per_scalar == 8

    @pytest.mark.parametrize("kind", DATA_MOVING)
    def test_fp32_allreduce_preserves_dtype_and_meters_4_bytes(self, kind):
        m, n = 3, 37
        transport = TRANSPORT_CLASSES[kind](m, recv_timeout=30.0, dtype=np.float32)

        def worker(ep, contribution):
            out = ep.allreduce(contribution, "reduce")
            return out, ep.meter.snapshot()

        rng = np.random.default_rng(5)
        data = [rng.standard_normal(n).astype(np.float32) for _ in range(m)]
        results = transport.launch(worker, data, timeout=60.0)
        outs = [r[0] for r in results]
        # fp32 in, fp32 out — and bitwise identical across ranks.
        assert all(o.dtype == np.float32 for o in outs)
        assert (outs[0] == outs[1]).all() and (outs[0] == outs[2]).all()
        np.testing.assert_allclose(
            outs[0], np.sum(data, axis=0, dtype=np.float32), atol=1e-5
        )
        # Each rank meters the ring formula at 4 bytes per scalar.
        per_rank = ring_allreduce_scalars(m, n) * 4
        for _, (pairwise, tags) in results:
            assert tags == {"reduce": per_rank}
        assert transport.total_bytes("reduce") == m * per_rank

    def test_fp32_payload_ships_fp32_through_processes(self):
        """A pickled fp32 payload arrives fp32 — metered == shipped."""
        transport = MultiprocessTransport(2, recv_timeout=30.0, dtype=np.float32)

        def worker(ep, _):
            if ep.rank == 0:
                ep.send(1, np.arange(6, dtype=np.float32), "feat")
                return None
            got = ep.recv(0, "feat")
            return str(got.dtype)

        results = transport.launch(worker, timeout=60.0)
        assert results[1] == "float32"
        assert transport.total_bytes("feat") == 6 * 4

    def test_fp32_ledger_is_half_of_fp64(self):
        ops = SCENARIOS[-1][2]  # the epoch-like scenario
        m = SCENARIOS[-1][1]
        sim64 = SimulatedCommunicator(m, dtype=np.float64)
        sim32 = SimulatedCommunicator(m, dtype=np.float32)
        for comm in (sim64, sim32):
            for op in ops:
                if op[0] == "send":
                    comm.send(*op[1:])
                elif op[0] == "bcast":
                    comm.broadcast(*op[1:])
                else:
                    comm.allreduce(op[1], op[2])
        assert set(sim64.meter.by_tag) == set(sim32.meter.by_tag)
        for tag, nbytes in sim64.meter.by_tag.items():
            assert nbytes == 2 * sim32.meter.by_tag[tag], tag
        assert (sim64.pairwise == 2 * sim32.pairwise).all()

    def test_mismatched_float_payload_rejected(self):
        """Metered == shipped is enforced on the data plane: an fp64
        payload through an fp32-metered transport fails loudly."""
        transport = LocalTransport(2, recv_timeout=5.0, dtype=np.float32)

        def worker(ep, _):
            if ep.rank == 0:
                with pytest.raises(TransportError, match="metered"):
                    ep.send(1, np.zeros(3, dtype=np.float64), "feat")
            return True

        assert transport.launch(worker, timeout=15.0) == [True, True]

    def test_integer_payloads_exempt_from_width_guard(self):
        """Index broadcasts (and integer allreduces) keep working on an
        fp32 transport — only float widths are guarded."""
        transport = LocalTransport(2, recv_timeout=10.0, dtype=np.float32)

        def worker(ep, _):
            ids = np.arange(5, dtype=np.int64)
            if ep.rank == 0:
                ep.send(1, ids, "sample_sync")
            else:
                got = ep.recv(0, "sample_sync")
                np.testing.assert_array_equal(got, ids)
            out = ep.allreduce(np.array([1, 2, 3]), "counts")
            np.testing.assert_allclose(out, [2.0, 4.0, 6.0])
            return True

        assert transport.launch(worker, timeout=20.0) == [True, True]
