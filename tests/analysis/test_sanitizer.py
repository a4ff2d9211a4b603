"""Runtime lock-order and protocol sanitizers: inversions and illegal
transitions raise, clean order and legal traffic pass."""

import os
import threading

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import (
    LockOrderError,
    SanitizedLock,
    install_sanitizer,
    locks_enabled,
    make_lock,
)
from repro.dist.transport import (
    LocalTransport,
    MultiprocessTransport,
    SharedMemoryTransport,
    TransportError,
)
from repro.tensor import get_default_dtype


@pytest.fixture(autouse=True)
def clean_sanitizer():
    sanitizer.reset()
    yield
    sanitizer.reset()


class TestGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        assert not locks_enabled()
        assert isinstance(make_lock("x"), type(threading.Lock()))

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv(sanitizer.ENV_VAR, "locks")
        assert locks_enabled()
        assert isinstance(make_lock("x"), SanitizedLock)

    def test_env_var_token_list(self, monkeypatch):
        monkeypatch.setenv(sanitizer.ENV_VAR, "asan, locks")
        assert locks_enabled()
        monkeypatch.setenv(sanitizer.ENV_VAR, "asan")
        assert not locks_enabled()

    def test_install_overrides_env(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        install_sanitizer(True)
        assert locks_enabled()
        install_sanitizer(False)
        assert not locks_enabled()


class TestLockSemantics:
    def test_context_manager_acquires_and_releases(self):
        lock = SanitizedLock("a")
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_nonblocking_acquire_reports_failure(self):
        lock = SanitizedLock("a")
        assert lock.acquire()
        # A second thread cannot take it without blocking.
        result = []
        t = threading.Thread(
            target=lambda: result.append(lock.acquire(blocking=False))
        )
        t.start()
        t.join(5.0)
        assert not t.is_alive()
        assert result == [False]
        lock.release()


class TestOrderChecking:
    def test_ab_ba_inversion_raises(self):
        a, b = SanitizedLock("A"), SanitizedLock("B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError, match="inversion"):
                a.acquire()

    def test_inversion_across_threads_raises(self):
        # Thread 1 establishes A→B; the main thread then tries B→A —
        # the interleaving that deadlocks one run in a thousand, caught
        # deterministically on the first run.
        a, b = SanitizedLock("A"), SanitizedLock("B")

        def establish():
            with a:
                with b:
                    pass

        t = threading.Thread(target=establish)
        t.start()
        t.join(5.0)
        assert not t.is_alive()
        with b:
            with pytest.raises(LockOrderError):
                with a:
                    pass

    def test_consistent_order_never_raises(self):
        a, b = SanitizedLock("A"), SanitizedLock("B")
        for _ in range(3):
            with a:
                with b:
                    pass

    def test_unnested_acquisitions_record_no_order(self):
        # Taking A and then B one after the other orders nothing, so a
        # later B→A nesting is not an inversion.
        a, b = SanitizedLock("A"), SanitizedLock("B")
        with a:
            pass
        with b:
            pass
        with b:
            with a:
                pass

    def test_same_name_instances_share_order_class(self):
        # Two rings' conn locks share a name: nesting one inside the
        # other is self-nesting of the class, an inversion waiting for
        # the right pair of instances.
        x, y = SanitizedLock("shm-conn"), SanitizedLock("shm-conn")
        with x:
            with pytest.raises(LockOrderError, match="self-nesting"):
                y.acquire()

    def test_reset_graph_clears_observed_edges(self):
        a, b = SanitizedLock("A"), SanitizedLock("B")
        with a:
            with b:
                pass
        sanitizer.reset_graph()
        with b:
            with a:  # no A→B edge survives the reset
                pass

    def test_error_names_both_locks_and_first_site(self):
        a, b = SanitizedLock("A"), SanitizedLock("B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError) as excinfo:
                a.acquire()
        msg = str(excinfo.value)
        assert "'A'" in msg and "'B'" in msg
        assert "first seen" in msg


class TestTransportIntegration:
    def test_shm_endpoint_locks_are_sanitized_when_enabled(self):
        install_sanitizer(True)
        from repro.dist.transport import _ShmEndpoint

        # Empty channel maps: only the lock construction path runs.
        ep = _ShmEndpoint(0, 2, 8, 1.0, {}, {}, {})
        waiter = ep._waiter(1, "waiting for")
        assert isinstance(waiter.lock, SanitizedLock)


class TestProtocolGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        assert not sanitizer.protocol_enabled()
        obj = object()
        assert sanitizer.wrap_protocol(obj) is obj

    def test_env_var_token(self, monkeypatch):
        monkeypatch.setenv(sanitizer.ENV_VAR, "locks,protocol")
        assert sanitizer.protocol_enabled()
        monkeypatch.setenv(sanitizer.ENV_VAR, "locks")
        assert not sanitizer.protocol_enabled()

    def test_install_overrides_env(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        sanitizer.install_protocol_sanitizer(True)
        assert sanitizer.protocol_enabled()
        sanitizer.install_protocol_sanitizer(False)
        assert not sanitizer.protocol_enabled()

    def test_unknown_class_not_wrapped(self):
        sanitizer.install_protocol_sanitizer(True)

        class Plain:
            pass

        obj = Plain()
        assert sanitizer.wrap_protocol(obj) is obj


class _FakeEndpoint:
    """Class-name suffix matches the endpoint protocol table."""

    def __init__(self):
        self.sent = []

    def send(self, dst, arr, tag=0):
        self.sent.append((dst, tag))
        return "sent"

    def recv(self, src, tag=0):
        return "got"

    def post_exchange(self, parts, peers, tag):
        return _FakeHandle()

    def complete_exchange(self, handle):
        assert isinstance(handle, _FakeHandle)  # proxies are unwrapped
        return "completed"

    def close(self):
        return None


class _FakeHandle:
    pass


class _FakeTransport:
    def launch(self, worker=None):
        if worker is not None:
            return worker()
        return "done"


class TestTypestateProxy:
    @pytest.fixture(autouse=True)
    def enabled(self):
        sanitizer.install_protocol_sanitizer(True)
        yield

    def test_wraps_and_preserves_isinstance(self):
        ep = sanitizer.wrap_protocol(_FakeEndpoint())
        assert type(ep) is sanitizer.TypestateProxy
        assert isinstance(ep, _FakeEndpoint)

    def test_already_wrapped_is_identity(self):
        ep = sanitizer.wrap_protocol(_FakeEndpoint())
        assert sanitizer.wrap_protocol(ep) is ep

    def test_legal_traffic_passes_through(self):
        ep = sanitizer.wrap_protocol(_FakeEndpoint())
        assert ep.send(1, b"x") == "sent"
        assert ep.recv(1) == "got"
        ep.close()

    def test_send_after_close_raises(self):
        ep = sanitizer.wrap_protocol(_FakeEndpoint())
        ep.close()
        with pytest.raises(sanitizer.ProtocolError, match="closed endpoint"):
            ep.send(1, b"x")

    def test_double_close_raises(self):
        ep = sanitizer.wrap_protocol(_FakeEndpoint())
        ep.close()
        with pytest.raises(sanitizer.ProtocolError, match="twice"):
            ep.close()

    def test_handle_completed_twice_raises(self):
        ep = sanitizer.wrap_protocol(_FakeEndpoint())
        handle = ep.post_exchange({}, [], "t")
        # The produced handle is itself proxied (the `.post_exchange`
        # constructor pattern), and unwrapped before forwarding.
        assert type(handle) is sanitizer.TypestateProxy
        assert ep.complete_exchange(handle) == "completed"
        with pytest.raises(sanitizer.ProtocolError, match="twice"):
            ep.complete_exchange(handle)

    def test_sequential_launches_legal(self):
        t = sanitizer.wrap_protocol(_FakeTransport())
        assert t.launch() == "done"
        assert t.launch() == "done"

    def test_reentrant_launch_raises(self):
        t = sanitizer.wrap_protocol(_FakeTransport())
        with pytest.raises(sanitizer.ProtocolError, match="double-launch"):
            t.launch(lambda: t.launch())

    def test_failed_call_still_completes_event(self):
        class _BoomTransport:
            def launch(self):
                raise ValueError("boom")

        t = sanitizer.wrap_protocol(_BoomTransport())
        with pytest.raises(ValueError):
            t.launch()
        # launch_done fired in the finally: the transport is reusable.
        with pytest.raises(ValueError):
            t.launch()

    def test_attribute_passthrough(self):
        raw = _FakeEndpoint()
        ep = sanitizer.wrap_protocol(raw)
        ep.send(0, b"")
        assert ep.sent == raw.sent
        ep.extra = 7  # settattr forwards to the wrapped object
        assert raw.extra == 7


def _transport(kind):
    cls = {"local": LocalTransport, "multiprocess": MultiprocessTransport,
           "shm": SharedMemoryTransport}[kind]
    return cls(2, recv_timeout=5.0)


_REAL_KINDS = [
    "local",
    "multiprocess",
    pytest.param("shm", marks=pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="/dev/shm not available")),
]


def _payload():
    return np.arange(3, dtype=get_default_dtype())


def _close_then_send(ep, _):
    ep.close()
    ep.send(1 - ep.rank, _payload(), "x")


def _close_twice(ep, _):
    ep.close()
    ep.close()


def _complete_twice(ep, _):
    peer = 1 - ep.rank
    handle = ep.post_exchange({peer: _payload()}, [peer], "x")
    ep.complete_exchange(handle)
    ep.complete_exchange(handle)


def _rank_of(ep, _):
    return ep.rank


class TestProtocolOnRealTransports:
    """The protocol tables enforced on real endpoints and handles: a
    worker's violation fails its launch with the ProtocolError as the
    reason.  A thread rank chains the error itself (``__cause__``); a
    process rank ships its traceback text back to the parent."""

    @pytest.fixture(autouse=True)
    def enabled(self):
        sanitizer.install_protocol_sanitizer(True)
        yield

    @pytest.mark.parametrize("kind", _REAL_KINDS)
    @pytest.mark.parametrize("worker, message", [
        (_close_then_send, "send() on a closed endpoint"),
        (_close_twice, "endpoint closed twice"),
        (_complete_twice, "exchange handle completed twice"),
    ])
    def test_violation_fails_the_launch(self, kind, worker, message):
        with pytest.raises(TransportError) as excinfo:
            _transport(kind).launch(worker, timeout=30.0)
        if kind == "local":
            cause = excinfo.value.__cause__
            assert isinstance(cause, sanitizer.ProtocolError)
            assert message in str(cause)
        assert "ProtocolError" in str(excinfo.value)
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("kind", _REAL_KINDS)
    def test_sequential_relaunch_legal(self, kind):
        # launch → launch_done → launch again is the legal cycle; only a
        # launch re-entered while one is in flight is a double-launch.
        transport = sanitizer.wrap_protocol(_transport(kind))
        assert type(transport) is sanitizer.TypestateProxy
        for _ in range(2):
            assert transport.launch(_rank_of, timeout=30.0) == [0, 1]

    @pytest.mark.parametrize("kind", _REAL_KINDS)
    def test_legal_traffic_passes(self, kind):
        def worker(ep, _):
            peer = 1 - ep.rank
            handle = ep.post_exchange({peer: _payload()}, [peer], "x")
            got = ep.complete_exchange(handle)[peer]
            return float(ep.allreduce(got, "reduce").sum())

        assert _transport(kind).launch(worker, timeout=30.0) == [6.0, 6.0]

