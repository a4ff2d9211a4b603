"""Runtime sanitizer: the repo's checker for cross-rank schedules.

``REPRO_SANITIZE=schedule`` enables the repo's one checker for
cross-rank communication: message matching, deadlock and leaked
exchange handles.  It checks live ranks, so it sees what no reading of
the source can: schedules only one seed interleaves into.  It costs
nothing when off.  Any other ``REPRO_SANITIZE`` token raises
``ValueError`` instead of silently checking nothing.  (Object
protocols need no sanitizer: an endpoint refuses data ops after
``close`` and a transport refuses a re-entered ``launch`` by
themselves, see :mod:`repro.dist.transport`.)

:func:`begin_schedule_exploration` gives ``LocalTransport``
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
from queue import Empty
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "DeadlockError",
    "ScheduleError",
    "ScheduleExplorer",
    "begin_schedule_exploration",
    "end_schedule_exploration",
    "install_schedule_sanitizer",
    "reset",
    "schedule_checkpoint",
    "schedule_enabled",
    "schedule_note_complete",
    "schedule_note_post",
    "schedule_seed",
    "schedule_wait_scope",
]

ENV_VAR = "REPRO_SANITIZE"
SEED_ENV_VAR = "REPRO_SCHEDULE_SEED"


class ScheduleError(RuntimeError):
    """A cross-rank communication invariant violated at runtime."""


class DeadlockError(ScheduleError):
    """A confirmed cross-rank wait that can never be satisfied."""


_forced_schedule: Optional[bool] = None
_forced_seed: Optional[int] = None
_schedule_explorer: Optional["ScheduleExplorer"] = None

#: Poll interval of blocked channel operations and the quiet window a
#: suspected deadlock must survive before it is *confirmed* (every
#: active rank blocked and nothing moved for this long).
_POLL_SECONDS = 0.05
_CONFIRM_SECONDS = 0.25
_TRACE_CAP = 512


def reset() -> None:
    """Clear the forced modes and any live explorer (test isolation)."""
    global _forced_schedule, _forced_seed, _schedule_explorer
    _forced_schedule = None
    _forced_seed = None
    if _schedule_explorer is not None:
        _schedule_explorer.shutdown()
        _schedule_explorer = None


def schedule_enabled() -> bool:
    """True when ``LocalTransport.launch`` should explore schedules.

    ``REPRO_SANITIZE`` is a comma-separated token list; a token with no
    checker behind it raises ``ValueError`` rather than check nothing.
    """
    if _forced_schedule is not None:
        return _forced_schedule
    tokens = {t.strip() for t in os.environ.get(ENV_VAR, "").split(",")}
    tokens.discard("")
    unknown = sorted(tokens - {"schedule"})
    if unknown:
        raise ValueError(
            f"{ENV_VAR}: unknown token(s) {unknown}; 'schedule' is the "
            "only sanitizer"
        )
    return "schedule" in tokens


def schedule_seed() -> int:
    """The interleaving seed (``REPRO_SCHEDULE_SEED``, default 0); a
    value that is not an integer raises ``ValueError``, so a mistyped
    seed never replays seed 0 under another seed's name."""
    if _forced_seed is not None:
        return _forced_seed
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{SEED_ENV_VAR}={raw!r} is not an integer seed"
        ) from None


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
