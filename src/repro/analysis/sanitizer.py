"""Runtime sanitizers: the repo's checkers for lock order, object
protocols and cross-rank schedules.

Each is enabled by one token of ``REPRO_SANITIZE`` (a comma-separated
list) and costs nothing when off.  They check live objects, so they
see what no reading of the source can: inversions routed through
callbacks, violations only a second thread produces, and schedules
only one seed interleaves into.

The ``locks`` token.  :func:`make_lock` is the factory the
transport/executor layers call wherever they used to call
``threading.Lock()``.  When sanitising is off (the default —
``REPRO_SANITIZE`` unset or without ``locks``), it returns a plain
``threading.Lock``.  When on, it returns a :class:`SanitizedLock` that

* keeps a thread-local stack of currently-held sanitized locks, and
* maintains one process-global order graph: first time lock *A* is
  held while *B* is acquired, the edge A→B is recorded; a later
  acquisition of *A* while *B* is held is an observed inversion and
  raises :class:`LockOrderError` at the acquisition site — i.e. the
  deadlock is reported deterministically on the first run that
  *could* have deadlocked, instead of hanging one run in a thousand.

Order is tracked per lock *name* (the label passed to
:func:`make_lock`), so two instances created at the same site — one
per ring, say — form one order class, and nesting a class inside
itself is reported as self-nesting.  The graph is intentionally never
pruned on release: lock order is a program-wide law, not a per-window
one.  Tests use :func:`reset` to clear the global graph between cases
and :func:`install_sanitizer`/:func:`locks_enabled` to force the mode
without touching the environment.

The ``protocol`` token.  The transport layer's objects have
*protocols*, not just APIs: an endpoint is driven ``exchange* ->
close`` and must never move bytes after ``close``; an exchange handle
is completed exactly once; a transport must not have ``launch``
re-entered while a launch is in flight.  :data:`PROTOCOLS` declares
those protocols as data — a start state plus a ``(state, event) ->
state`` table — and :class:`TypestateProxy` is their reader.
:func:`wrap_protocol` wraps a live transport/endpoint/handle in a
proxy that advances its table on every protocol-event method call and
raises :class:`ProtocolError` at the first illegal transition.  An
event ``e`` whose completion matters separately (``launch``) declares
a paired ``e_done`` transition: the proxy advances ``e`` on entry and
``e_done`` on return, so a sequential re-launch is legal while a
re-entrant one raises.  Proxies forward everything else untouched,
report the wrapped object's ``__class__`` (``isinstance`` keeps
working), and unwrap proxied arguments before forwarding, so
transports cannot observe the difference.

The ``schedule`` token enables the repo's one checker for cross-rank
communication: message matching, deadlock and leaked exchange
handles.  :func:`begin_schedule_exploration` gives ``LocalTransport``
a :class:`ScheduleExplorer` whose channels use *rendezvous* semantics
— a send does not complete until its receive happens (the MPI-strict
model) — plus a deterministic, seed-driven jitter at every blocking
point so different ``REPRO_SCHEDULE_SEED`` values explore different
interleavings.  A confirmed cross-rank wait cycle (or a rank blocking
on a peer that already returned) raises :class:`DeadlockError` with a
replayable schedule trace instead of hanging; a rank that returns with
a posted exchange handle it never completed raises
:class:`ScheduleError`; a tag mismatch still fails at delivery through
the transport's own check, which the explorer's schedules reach.
"""

from __future__ import annotations

import collections
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from queue import Empty
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

__all__ = [
    "DeadlockError",
    "LockOrderError",
    "PROTOCOLS",
    "Protocol",
    "ProtocolError",
    "SanitizedLock",
    "ScheduleError",
    "ScheduleExplorer",
    "TypestateProxy",
    "begin_schedule_exploration",
    "end_schedule_exploration",
    "install_protocol_sanitizer",
    "install_sanitizer",
    "install_schedule_sanitizer",
    "locks_enabled",
    "make_lock",
    "protocol_enabled",
    "protocol_for_class",
    "reset",
    "reset_graph",
    "schedule_checkpoint",
    "schedule_enabled",
    "schedule_note_complete",
    "schedule_note_post",
    "schedule_seed",
    "schedule_wait_scope",
    "wrap_protocol",
]

ENV_VAR = "REPRO_SANITIZE"

#: Forced mode: None → consult the environment, True/False → override.
_forced: Optional[bool] = None
_forced_protocol: Optional[bool] = None

#: Global observed-order graph over lock *names*: name -> names that
#: have been acquired while it was held.
_order: Dict[str, Set[str]] = {}
#: First site (holder-name, acquired-name) was observed at, for the
#: error message: (thread name, holder stack snapshot).
_witness: Dict[Tuple[str, str], str] = {}
_graph_lock = threading.Lock()

_tls = threading.local()


class LockOrderError(RuntimeError):
    """An observed lock-acquisition order inversion (potential deadlock)."""


def locks_enabled() -> bool:
    """True when lock sanitising is active for new :func:`make_lock` calls."""
    if _forced is not None:
        return _forced
    tokens = os.environ.get(ENV_VAR, "")
    return "locks" in {t.strip() for t in tokens.split(",")}


def install_sanitizer(enabled: bool = True) -> None:
    """Force sanitising on/off regardless of ``REPRO_SANITIZE``.

    Affects locks created *after* the call; existing plain locks stay
    plain.  Pass ``None``-like reset via :func:`reset` to go back to
    environment-controlled mode.
    """
    global _forced
    _forced = enabled


def reset_graph() -> None:
    """Clear the observed-order graph only.

    Rank workers call this at start-of-rank: lock order is a law *per
    process*, and a forked worker must not inherit edges the parent
    process observed among its own (distinct) lock instances.
    """
    with _graph_lock:
        _order.clear()
        _witness.clear()


def protocol_enabled() -> bool:
    """True when typestate proxying is active for :func:`wrap_protocol`."""
    if _forced_protocol is not None:
        return _forced_protocol
    tokens = os.environ.get(ENV_VAR, "")
    return "protocol" in {t.strip() for t in tokens.split(",")}


def install_protocol_sanitizer(enabled: bool = True) -> None:
    """Force protocol sanitising on/off regardless of ``REPRO_SANITIZE``.

    Affects :func:`wrap_protocol` calls made *after* this; objects
    already wrapped keep their proxies.
    """
    global _forced_protocol
    _forced_protocol = enabled


def reset() -> None:
    """Clear the global order graph and forced modes (test isolation)."""
    global _forced, _forced_protocol
    global _forced_schedule, _forced_seed, _schedule_explorer
    _forced = None
    _forced_protocol = None
    _forced_schedule = None
    _forced_seed = None
    if _schedule_explorer is not None:
        _schedule_explorer.shutdown()
        _schedule_explorer = None
    reset_graph()


def _held_stack() -> List[str]:
    stack = getattr(_tls, "held", None)
    if stack is None:
        stack = _tls.held = []
    return stack


def _check_and_record(name: str) -> None:
    """Record edges holder→``name``; raise on an inverted edge."""
    held = _held_stack()
    if not held:
        return
    # repro-lint: ignore[blocking-in-lock] — dict lookups only; the
    # graph lock guards pure in-memory bookkeeping, never I/O.
    with _graph_lock:
        for holder in held:
            if holder == name:
                raise LockOrderError(
                    f"lock {name!r} acquired while already held by this "
                    f"thread's stack {held!r} — self-nesting (non-reentrant "
                    "Lock would deadlock here)"
                )
            # An established name→holder edge means some thread acquired
            # `holder` while holding `name`; we are doing the reverse.
            if holder in _order.get(name, ()):
                first = _witness.get((name, holder), "?")
                raise LockOrderError(
                    f"lock-order inversion: acquiring {name!r} while "
                    f"holding {holder!r}, but the order {name!r} → "
                    f"{holder!r} was previously observed ({first}); "
                    "this interleaving can deadlock"
                )
        for holder in held:
            if name not in _order.setdefault(holder, set()):
                _order[holder].add(name)
                _witness[(holder, name)] = (
                    f"first seen on thread {threading.current_thread().name!r}"
                    f" with held stack {held!r}"
                )


class SanitizedLock:
    """A ``threading.Lock`` wrapper that reports acquisition order.

    Context-manager and ``acquire``/``release`` compatible with the
    plain lock it replaces; the order check runs *before* blocking on
    the underlying lock, so a true inversion raises instead of
    deadlocking.
    """

    __slots__ = ("_name", "_lock")

    def __init__(self, name: str) -> None:
        self._name = name
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self._name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        _check_and_record(self._name)
        got = self._lock.acquire(blocking, timeout)
        if got:
            _held_stack().append(self._name)
        return got

    def release(self) -> None:
        held = _held_stack()
        # Remove the most recent matching hold (releases may be
        # out-of-order in principle; LIFO is the overwhelming case).
        for i in range(len(held) - 1, -1, -1):
            if held[i] == self._name:
                del held[i]
                break
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "locked" if self._lock.locked() else "unlocked"
        return f"SanitizedLock({self._name!r}, {state})"


def make_lock(name: str):
    """A lock for production code: plain ``threading.Lock`` normally,
    :class:`SanitizedLock` under ``REPRO_SANITIZE=locks``.

    ``name`` labels the lock's order *class* — instances sharing a
    name share ordering constraints (use one name per creation site).
    """
    if locks_enabled():
        return SanitizedLock(name)
    return threading.Lock()


# ----------------------------------------------------------------------
# Protocol (typestate) sanitizer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Protocol:
    """One object protocol: a state machine over method-call events.

    ``constructors`` name what creates an instance in ``start``:
    class-name patterns (a leading ``*`` matches a name suffix, so
    ``"*Endpoint"`` covers every endpoint class) and/or producer
    methods written ``".method"`` (``".post_exchange"`` — the *result*
    of the call is the protocol object).  ``arg_events`` map a method
    name to an event applied to that call's first argument
    (``complete_exchange(handle)`` advances the *handle*).  Events
    appearing in no transition from the current state are illegal;
    ``errors`` supplies the human message for the pairs worth
    explaining.
    """

    name: str
    start: str
    constructors: Tuple[str, ...]
    transitions: Mapping[Tuple[str, str], str]
    errors: Mapping[Tuple[str, str], str] = field(default_factory=dict)
    arg_events: Mapping[str, str] = field(default_factory=dict)

    @property
    def alphabet(self) -> FrozenSet[str]:
        return frozenset(e for _s, e in self.transitions) | frozenset(
            e for _s, e in self.errors
        )

    def advance(self, state: str, event: str) -> Tuple[Optional[str], str]:
        """``(new_state, "")`` on a legal event, ``(None, message)`` on
        an illegal one."""
        if event not in self.alphabet:
            return state, ""  # not a protocol event — no state change
        nxt = self.transitions.get((state, event))
        if nxt is None:
            message = self.errors.get(
                (state, event),
                f"{event}() is illegal in state {state!r}",
            )
            return None, message
        return nxt, ""


_DATA_OPS = ("send", "isend", "recv", "exchange", "post_exchange",
             "complete_exchange", "allreduce")

#: The transport-layer protocol tables.  Declared as plain data so a
#: new state or event is a new row, not new checker code.
ENDPOINT_PROTOCOL = Protocol(
    name="endpoint",
    start="open",
    constructors=("*Endpoint",),
    transitions={
        **{("open", op): "open" for op in _DATA_OPS},
        ("open", "close"): "closed",
    },
    errors={
        **{("closed", op): f"{op}() on a closed endpoint"
           for op in _DATA_OPS},
        ("closed", "close"): "endpoint closed twice",
    },
)

TRANSPORT_PROTOCOL = Protocol(
    name="transport",
    start="idle",
    constructors=("*Transport",),
    transitions={
        ("idle", "launch"): "launching",
        ("launching", "launch_done"): "idle",
    },
    errors={
        ("launching", "launch"): (
            "double-launch: launch() re-entered while a launch is "
            "already in flight on this transport"
        ),
    },
)

EXCHANGE_HANDLE_PROTOCOL = Protocol(
    name="exchange-handle",
    start="posted",
    constructors=(".post_exchange",),
    transitions={("posted", "complete"): "completed"},
    errors={
        ("completed", "complete"): "exchange handle completed twice",
    },
    arg_events={"complete_exchange": "complete"},
)

PROTOCOLS: Tuple[Protocol, ...] = (
    ENDPOINT_PROTOCOL,
    TRANSPORT_PROTOCOL,
    EXCHANGE_HANDLE_PROTOCOL,
)


def protocol_for_class(class_name: str) -> Optional[Protocol]:
    """The protocol (if any) governing instances of ``class_name``
    (an exact or ``"*suffix"`` constructor pattern) — the lookup
    :func:`wrap_protocol` makes when wrapping a live object."""
    for protocol in PROTOCOLS:
        for pattern in protocol.constructors:
            if class_name == pattern or (
                pattern.startswith("*") and class_name.endswith(pattern[1:])
            ):
                return protocol
    return None


class ProtocolError(RuntimeError):
    """An observed illegal typestate transition on a live object."""


def _unwrap(value):
    return object.__getattribute__(value, "_ts_obj") \
        if isinstance(value, TypestateProxy) else value


class TypestateProxy:
    """Forwarding wrapper that advances a typestate table per call.

    Protocol-event methods (the protocol's alphabet) are intercepted:
    the event fires on *entry* (raising :class:`ProtocolError` while
    still in the old state if the table has no transition), and the
    paired ``<event>_done`` — when the table declares one — fires on
    return, which is what lets a *re-entrant* ``launch`` raise while a
    sequential one stays legal.  Declared argument events
    (``complete_exchange(handle)`` → the handle's ``complete``) fire on
    proxied arguments, and protocol-typed return values (an exchange
    handle from ``post_exchange``) come back pre-wrapped so the whole
    object graph stays under the sanitizer.  Everything else forwards
    untouched; ``__class__`` reports the wrapped type so ``isinstance``
    checks in the transport layer keep passing.
    """

    __slots__ = ("_ts_obj", "_ts_protocol", "_ts_state", "_ts_lock")

    def __init__(self, obj, protocol) -> None:
        object.__setattr__(self, "_ts_obj", obj)
        object.__setattr__(self, "_ts_protocol", protocol)
        object.__setattr__(self, "_ts_state", protocol.start)
        object.__setattr__(self, "_ts_lock", threading.Lock())

    # -- state machine --------------------------------------------------
    def _ts_advance(self, event: str) -> None:
        protocol = object.__getattribute__(self, "_ts_protocol")
        lock = object.__getattribute__(self, "_ts_lock")
        with lock:
            state = object.__getattribute__(self, "_ts_state")
            nxt, message = protocol.advance(state, event)
            if nxt is None:
                obj = object.__getattribute__(self, "_ts_obj")
                raise ProtocolError(
                    f"{protocol.name} protocol violation on "
                    f"{type(obj).__name__}: {message} "
                    f"(state {state!r}, event {event!r})"
                )
            object.__setattr__(self, "_ts_state", nxt)

    def _ts_call(self, method: str, bound, args, kwargs):
        protocol = object.__getattribute__(self, "_ts_protocol")
        fire = method in protocol.alphabet
        if fire:
            self._ts_advance(method)
        # Declared argument events: the *argument* is the protocol
        # object (an exchange handle handed back for completion).
        if args and isinstance(args[0], TypestateProxy):
            arg = args[0]
            arg_protocol = object.__getattribute__(arg, "_ts_protocol")
            arg_event = arg_protocol.arg_events.get(method)
            if arg_event is not None:
                arg._ts_advance(arg_event)
        try:
            result = bound(*[_unwrap(a) for a in args],
                           **{k: _unwrap(v) for k, v in kwargs.items()})
        finally:
            if fire:
                done = method + "_done"
                if any(e == done for _s, e in protocol.transitions):
                    self._ts_advance(done)
        # ``.method`` constructor patterns: this call *produced* a
        # protocol object (post_exchange -> an exchange handle).
        if result is not None:
            for table in PROTOCOLS:
                if "." + method in table.constructors:
                    return wrap_protocol(result, table)
        return wrap_protocol(result)

    # -- transparent forwarding ----------------------------------------
    def __getattr__(self, name: str):
        obj = object.__getattribute__(self, "_ts_obj")
        value = getattr(obj, name)
        if callable(value) and not name.startswith("__"):
            protocol = object.__getattribute__(self, "_ts_protocol")
            if name in protocol.alphabet or any(
                name in p.arg_events for p in PROTOCOLS
            ):
                def guarded(*args, **kwargs):
                    return TypestateProxy._ts_call(
                        self, name, value, args, kwargs
                    )
                return guarded
        return value

    def __setattr__(self, name: str, value) -> None:
        setattr(object.__getattribute__(self, "_ts_obj"), name, value)

    @property
    def __class__(self):  # noqa: F811 - deliberate isinstance lie
        return type(object.__getattribute__(self, "_ts_obj"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        obj = object.__getattribute__(self, "_ts_obj")
        state = object.__getattribute__(self, "_ts_state")
        return f"TypestateProxy({obj!r}, state={state!r})"


def wrap_protocol(obj, protocol=None):
    """``obj`` wrapped in a :class:`TypestateProxy` when the protocol
    sanitizer is on and a table governs its class; ``obj`` unchanged
    otherwise (including when it is already wrapped).  This is the
    identity function in production: transports call it at the worker
    boundary unconditionally and pay nothing unless
    ``REPRO_SANITIZE=protocol`` is set.
    """
    if not protocol_enabled() or isinstance(obj, TypestateProxy):
        return obj
    if protocol is None:
        protocol = protocol_for_class(type(obj).__name__)
    if protocol is None:
        return obj
    return TypestateProxy(obj, protocol)


# ----------------------------------------------------------------------
# Schedule-exploration sanitizer
# ----------------------------------------------------------------------
class ScheduleError(RuntimeError):
    """A cross-rank communication invariant violated at runtime."""


class DeadlockError(ScheduleError):
    """A confirmed cross-rank wait that can never be satisfied."""


SEED_ENV_VAR = "REPRO_SCHEDULE_SEED"

_forced_schedule: Optional[bool] = None
_forced_seed: Optional[int] = None
_schedule_explorer: Optional["ScheduleExplorer"] = None

#: Poll interval of blocked channel operations and the quiet window a
#: suspected deadlock must survive before it is *confirmed* (every
#: active rank blocked and nothing moved for this long).
_POLL_SECONDS = 0.05
_CONFIRM_SECONDS = 0.25
_TRACE_CAP = 512


def schedule_enabled() -> bool:
    """True when ``LocalTransport.launch`` should explore schedules."""
    if _forced_schedule is not None:
        return _forced_schedule
    tokens = os.environ.get(ENV_VAR, "")
    return "schedule" in {t.strip() for t in tokens.split(",")}


def schedule_seed() -> int:
    """The interleaving seed (``REPRO_SCHEDULE_SEED``, default 0)."""
    if _forced_seed is not None:
        return _forced_seed
    try:
        return int(os.environ.get(SEED_ENV_VAR, "0"))
    except ValueError:
        return 0


def install_schedule_sanitizer(enabled: bool = True,
                               seed: Optional[int] = None) -> None:
    """Force schedule exploration on/off regardless of the environment.

    Affects launches started *after* the call; ``seed`` (when given)
    overrides ``REPRO_SCHEDULE_SEED`` the same way.
    """
    global _forced_schedule, _forced_seed
    _forced_schedule = enabled
    if seed is not None:
        _forced_seed = seed


def begin_schedule_exploration(
    num_ranks: int,
) -> Optional["ScheduleExplorer"]:
    """The explorer for one launch, or ``None`` when the mode is off."""
    global _schedule_explorer
    if not schedule_enabled():
        return None
    explorer = ScheduleExplorer(num_ranks, schedule_seed())
    _schedule_explorer = explorer
    return explorer


def end_schedule_exploration(
    explorer: Optional["ScheduleExplorer"],
) -> None:
    """Tear an explorer down; releases any still-blocked channel ops."""
    global _schedule_explorer
    if explorer is None:
        return
    explorer.shutdown()
    if _schedule_explorer is explorer:
        _schedule_explorer = None


def schedule_note_post(rank: int, handle) -> None:
    """Record a posted exchange handle (leak check at rank return)."""
    explorer = _schedule_explorer
    if explorer is not None:
        explorer.note_post(rank, handle)


def schedule_note_complete(rank: int, handle) -> None:
    """Mark a posted exchange handle as completed."""
    explorer = _schedule_explorer
    if explorer is not None:
        explorer.note_complete(rank, handle)


def schedule_checkpoint(label: str) -> None:
    """A jitter point in rank code: under exploration, sleeps a
    deterministic seed-dependent amount and records the trace entry;
    free when the mode is off."""
    explorer = _schedule_explorer
    if explorer is not None:
        explorer.checkpoint(label)


class _NullScope:
    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SCOPE = _NullScope()


def schedule_wait_scope(kind: str, src: int, dst: int):
    """Context manager marking the calling thread as blocked in a
    cross-rank wait (``kind`` in ``send``/``recv``/``join``) so the
    deadlock detector can see waits that happen outside the explorer's
    own channels (a blocking send joining its ticket)."""
    explorer = _schedule_explorer
    if explorer is None:
        return _NULL_SCOPE
    return _WaitScope(explorer, kind, src, dst)


class _WaitScope:
    __slots__ = ("_explorer", "_kind", "_src", "_dst")

    def __init__(self, explorer: "ScheduleExplorer", kind: str,
                 src: int, dst: int) -> None:
        self._explorer = explorer
        self._kind = kind
        self._src = src
        self._dst = dst

    def __enter__(self) -> "_WaitScope":
        with self._explorer._cond:
            self._explorer._enter_wait_locked(self._kind, self._src,
                                              self._dst)
        return self

    def __exit__(self, *exc) -> bool:
        with self._explorer._cond:
            self._explorer._exit_wait_locked()
        return False


class ScheduleExplorer:
    """Deterministic interleaving explorer for one ``launch``.

    Owns the channels between ranks (:meth:`make_channel` is a drop-in
    for the plain ``queue.Queue`` wires), a seed-driven jitter at every
    blocking point, the rank lifecycle (started / completed /
    finished), the posted-handle registry, and the global wait-for
    bookkeeping the deadlock detector runs on.

    Rendezvous semantics: a channel ``put`` deposits its message
    immediately (the receiver can take it) but does not *return* until
    the receiver consumed it — the MPI-strict model, under which a
    send cycle that buffered queues would mask really deadlocks.  A
    program clean under this explorer is clean under both buffered and
    unbuffered transports.
    """

    def __init__(self, num_ranks: int, seed: int) -> None:
        self.num_ranks = num_ranks
        self.seed = seed
        self._cond = threading.Condition()
        self._trace: "collections.deque[str]" = collections.deque(
            maxlen=_TRACE_CAP
        )
        self._trace_seq = 0
        self._progress_at = time.monotonic()
        # Thread idents are REUSED once a thread dies, so the
        # ident->rank map only ever describes live threads (entries are
        # dropped in rank_finished); rank lifecycle is tracked by rank
        # number in _started/_finished.
        self._rank_of: Dict[int, int] = {}  # live thread ident -> rank
        self._started: Set[int] = set()
        self._finished: Set[int] = set()
        self._main_waits: Dict[int, int] = {}  # rank -> blocked depth
        self._wait_info: Dict[int, Tuple[str, int, int]] = {}
        self._posted: Dict[int, Dict[int, str]] = {}
        self._dead: Optional[str] = None
        self._jitter_counts: Dict[Tuple, int] = {}

    # -- wiring --------------------------------------------------------
    def make_channel(self, src: int, dst: int) -> "_ScheduleChannel":
        return _ScheduleChannel(self, src, dst)

    # -- rank lifecycle ------------------------------------------------
    def rank_started(self, rank: int) -> None:
        with self._cond:
            self._rank_of[threading.get_ident()] = rank
            self._started.add(rank)
            self._note_locked(f"rank {rank} started")
            self._bump_locked()

    def rank_completed(self, rank: int) -> None:
        """The worker returned normally: check for leaked handles."""
        with self._cond:
            leaked = self._posted.get(rank) or {}
            if leaked:
                tags = sorted(leaked.values())
                raise ScheduleError(
                    f"rank {rank} returned with {len(leaked)} posted "
                    f"exchange handle(s) never completed (tags {tags}) "
                    "— their deferred receives leaked\n"
                    + self._format_trace_locked()
                )

    def rank_finished(self, rank: int) -> None:
        """The worker thread is done (normally or not)."""
        with self._cond:
            self._finished.add(rank)
            # This thread's ident is about to be reusable by any new
            # thread (e.g. a later rank's sender) — forget it now so
            # the reused ident is not mistaken for this rank.
            self._rank_of.pop(threading.get_ident(), None)
            self._note_locked(f"rank {rank} finished")
            self._bump_locked()

    # -- exchange-handle registry --------------------------------------
    def note_post(self, rank: int, handle) -> None:
        with self._cond:
            tag = getattr(handle, "tag", "?")
            self._posted.setdefault(rank, {})[id(handle)] = str(tag)
            self._note_locked(f"rank {rank} posted exchange tag {tag!r}")

    def note_complete(self, rank: int, handle) -> None:
        with self._cond:
            self._posted.get(rank, {}).pop(id(handle), None)
            tag = getattr(handle, "tag", "?")
            self._note_locked(
                f"rank {rank} completed exchange tag {tag!r}"
            )

    # -- jitter + checkpoints ------------------------------------------
    def jitter(self, *key) -> None:
        """Deterministic seed-dependent pause: crc32 of the seed, the
        site key, and a per-key visit counter — no global RNG state, so
        the interleaving replays exactly from the seed alone."""
        with self._cond:
            count = self._jitter_counts.get(key, 0) + 1
            self._jitter_counts[key] = count
        digest = zlib.crc32(f"{self.seed}:{key}:{count}".encode())
        pause = (digest % 8) * 0.0004
        if pause:
            time.sleep(pause)

    def checkpoint(self, label: str) -> None:
        self.jitter("checkpoint", label)
        with self._cond:
            self._note_locked(f"checkpoint {label}")
            self._bump_locked()

    def shutdown(self) -> None:
        with self._cond:
            if self._dead is None:
                self._dead = (
                    "schedule exploration ended (launch torn down)"
                )
            self._cond.notify_all()

    # -- trace ---------------------------------------------------------
    def format_trace(self) -> str:
        with self._cond:
            return self._format_trace_locked()

    def _format_trace_locked(self) -> str:
        lines = [
            f"schedule trace (seed {self.seed}, most recent last):"
        ]
        lines.extend(f"  {entry}" for entry in self._trace)
        lines.append(
            f"  replay: {ENV_VAR}=schedule {SEED_ENV_VAR}={self.seed}"
        )
        return "\n".join(lines)

    def _note_locked(self, text: str) -> None:
        self._trace_seq += 1
        self._trace.append(f"{self._trace_seq:05d} {text}")

    def _bump_locked(self) -> None:
        self._progress_at = time.monotonic()
        self._cond.notify_all()

    # -- wait bookkeeping ----------------------------------------------
    def _enter_wait_locked(self, kind: str, src: int, dst: int) -> None:
        ident = threading.get_ident()
        self._wait_info[ident] = (kind, src, dst)
        rank = self._rank_of.get(ident)
        if rank is not None:
            self._main_waits[rank] = self._main_waits.get(rank, 0) + 1
        # Joining a wait is itself a state change: the confirm window
        # measures quiescence of the whole wait-for graph, so it must
        # restart here — otherwise a rank that blocks an instant before
        # its peer's deposit lands is a false confirmed deadlock.
        self._progress_at = time.monotonic()

    def _exit_wait_locked(self) -> None:
        ident = threading.get_ident()
        self._wait_info.pop(ident, None)
        rank = self._rank_of.get(ident)
        if rank is not None:
            self._main_waits[rank] = self._main_waits.get(rank, 1) - 1
        self._progress_at = time.monotonic()

    def _confirm_deadlock_locked(self) -> Optional[str]:
        """Called by a blocked channel op after a quiet poll: confirm
        only when every rank has started, every unfinished rank's own
        thread is inside a blocking wait, and nothing has progressed
        for the whole confirm window — then describe the wait-for
        state and wake every blocked thread so none of them hangs."""
        if self._dead is not None:
            return self._dead
        if time.monotonic() - self._progress_at < _CONFIRM_SECONDS:
            return None
        if len(self._started) < self.num_ranks:
            return None
        active = [r for r in range(self.num_ranks)
                  if r not in self._finished]
        if not active:
            return None
        if any(self._main_waits.get(rank, 0) == 0 for rank in active):
            return None
        waits: List[str] = []
        for ident, (kind, src, dst) in sorted(self._wait_info.items()):
            if kind == "recv":
                text = f"rank {dst} blocked receiving from rank {src}"
                if src in self._finished:
                    text += " (which already returned)"
            elif kind == "send":
                text = (
                    f"rank {src} blocked sending to rank {dst} "
                    "(message deposited, never received)"
                )
            else:
                text = (
                    f"rank {src} blocked completing a send to rank {dst}"
                )
            waits.append(text)
        reason = (
            "confirmed deadlock under rendezvous semantics: "
            + "; ".join(waits)
            + (f"; finished ranks: {sorted(self._finished)}"
               if self._finished else "")
            + "\n" + self._format_trace_locked()
        )
        self._dead = reason
        self._cond.notify_all()
        return reason


class _ScheduleChannel:
    """Rendezvous drop-in for one directional ``queue.Queue`` wire.

    ``get`` keeps the plain queue's contract — ``queue.Empty`` after
    ``timeout`` — so the transport's timeout-to-``TransportError``
    path is untouched; both ends raise :class:`DeadlockError` instead
    the moment the explorer confirms a global deadlock.
    """

    __slots__ = ("_explorer", "src", "dst", "_items")

    def __init__(self, explorer: ScheduleExplorer, src: int,
                 dst: int) -> None:
        self._explorer = explorer
        self.src = src
        self.dst = dst
        self._items: List[List[object]] = []

    def put(self, item, block: bool = True,
            timeout: Optional[float] = None) -> None:
        explorer = self._explorer
        explorer.jitter("put", self.src, self.dst)
        entry: List[object] = [item, False]
        with explorer._cond:
            explorer._note_locked(
                f"put {self.src}->{self.dst} deposited"
            )
            self._items.append(entry)
            explorer._bump_locked()
            explorer._enter_wait_locked("send", self.src, self.dst)
            try:
                while not entry[1]:
                    if explorer._dead is not None:
                        raise DeadlockError(explorer._dead)
                    if not explorer._cond.wait(_POLL_SECONDS):
                        reason = explorer._confirm_deadlock_locked()
                        if reason is not None:
                            raise DeadlockError(reason)
            finally:
                explorer._exit_wait_locked()

    def get(self, block: bool = True,
            timeout: Optional[float] = None):
        explorer = self._explorer
        explorer.jitter("get", self.src, self.dst)
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with explorer._cond:
            explorer._enter_wait_locked("recv", self.src, self.dst)
            try:
                while True:
                    if self._items:
                        entry = self._items.pop(0)
                        entry[1] = True
                        explorer._note_locked(
                            f"get {self.src}->{self.dst} consumed"
                        )
                        explorer._bump_locked()
                        return entry[0]
                    if explorer._dead is not None:
                        raise DeadlockError(explorer._dead)
                    window = _POLL_SECONDS
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise Empty
                        window = min(window, remaining)
                    if not explorer._cond.wait(window):
                        reason = explorer._confirm_deadlock_locked()
                        if reason is not None:
                            raise DeadlockError(reason)
            finally:
                explorer._exit_wait_locked()

    def qsize(self) -> int:
        with self._explorer._cond:
            return len(self._items)

    def empty(self) -> bool:
        return self.qsize() == 0
