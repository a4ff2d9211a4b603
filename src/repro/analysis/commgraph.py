"""Rank composition and the message-matching graph.

:mod:`repro.analysis.summaries` produces one rank's ordered
communication sequence; this module instantiates an entry point for
every rank of world sizes 2–4, enumerates the shared branch-decision
scenarios, and *matches* the sequences against each other:

* every definite ``recv`` must find a message of the same tag at the
  head of its ``(src, dst)`` FIFO channel (the transport's ordering
  guarantee) — a tag disagreement names both the receive and the send
  site;
* blocking operations (rendezvous sends — the MPI-unsafe-send model
  the ``REPRO_SANITIZE=schedule`` runtime mirror also enforces —
  definite recvs, ticket joins, collectives) must never form a
  wait-for cycle, and no rank may block on a rank that already
  finished;
* every rank must reach the same ordered collective ``(tag,
  algorithm)`` sequence — a collective guarded by a rank-conditional
  branch diverges here;
* every posted :class:`~repro.analysis.summaries.HandleVal` must be
  completed before its rank returns.

Indefinite events (unknown peers — data-dependent exchange partners
the static side cannot resolve) auto-advance and excuse would-be
findings that involve them, so imprecision degrades to silence, never
to a false report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .summaries import (
    BudgetExceeded,
    CommEvent,
    CommInterpreter,
    EndpointVal,
    FuncInfo,
    ObjVal,
    ProgramIndex,
    Sym,
    TransportVal,
    Unknown,
    tags_may_match,
)

__all__ = [
    "CommFinding",
    "EntrySpec",
    "RankSequence",
    "analyze_entry",
    "interpret_rank",
]

#: World sizes every multi-rank entry is instantiated for.
DEFAULT_WORLDS = (2, 3, 4)
_SCENARIO_CAP = 8
_SIM_STEP_CAP = 100_000


@dataclass
class EntrySpec:
    """One analyzable entry point.

    ``kind`` selects the calling convention:

    * ``worker`` — a ``LocalTransport.launch`` worker ``(ep, payload)``
      (the ``comm-entry`` lint-marker form);
    * ``rank_task`` — ``_run_rank(ep, task)`` with a schedule in
      ``config``;
    * ``allreduce`` — ``Endpoint.allreduce`` bound to a symbolic tag,
      ``config["algorithm"]`` picking ring or tree;
    * ``single`` — a metering-plane method (the simulated trainers):
      extracted for the catalogue, not rank-matched;
      ``config["receiver"]`` names the class whose MRO resolves the
      method's ``self`` calls (default: the defining class).
    """

    name: str
    func: FuncInfo
    kind: str = "worker"
    config: Dict[str, object] = field(default_factory=dict)
    worlds: Sequence[int] = DEFAULT_WORLDS


@dataclass
class CommFinding:
    """One cross-rank verification failure, pre-Diagnostic."""

    rule: str  # comm-matching | comm-deadlock | comm-exchange
    site: Tuple[str, int, int]
    message: str
    hint: str = ""


@dataclass
class RankSequence:
    rank: int
    events: List[CommEvent]
    open_handles: List[object]
    partial: bool = False


# ----------------------------------------------------------------------
# Instantiation
# ----------------------------------------------------------------------
def _entry_args(entry: EntrySpec, rank: int, world: int) -> Dict[str, object]:
    ep = EndpointVal("Endpoint", {
        "rank": rank, "num_parts": world,
        "recv_timeout": Unknown("recv_timeout"),
    })
    if entry.kind == "worker":
        params = [a.arg for a in entry.func.node.args.args]
        args: Dict[str, object] = {}
        if params:
            args[params[0]] = ep
        return args
    if entry.kind == "rank_task":
        task = ObjVal("_RankTask", {
            "rank": rank, "num_parts": world,
            "schedule": entry.config.get("schedule", "synchronous"),
            "allreduce_algorithm": entry.config.get(
                "allreduce_algorithm", "ring"
            ),
            "kernel_backend": "numpy",
            "epochs": int(entry.config.get("epochs", 2)),
        })
        return {"ep": ep, "task": task}
    if entry.kind == "allreduce":
        return {
            "self": ep,
            "array": Unknown("array"),
            "tag": Sym("tag"),
            "algorithm": entry.config.get("algorithm", "ring"),
        }
    if entry.kind == "single":
        receiver = entry.config.get("receiver") or entry.func.class_name
        obj = ObjVal(receiver or "object", {
            "comm": TransportVal("Transport", {"num_parts": world}),
            "num_parts": world,
        })
        return {"self": obj}
    raise ValueError(f"unknown entry kind {entry.kind!r}")


def interpret_rank(
    program: ProgramIndex, entry: EntrySpec, rank: int, world: int,
    decisions: Optional[Dict[str, bool]] = None,
) -> Tuple[RankSequence, Dict[str, bool]]:
    """One rank's sequence under one decision scenario; returns the
    sequence plus the decisions actually consulted."""
    interp = CommInterpreter(program, rank, world, decisions)
    partial = False
    try:
        interp.run(entry.func, _entry_args(entry, rank, world))
    except BudgetExceeded:
        partial = True
    seq = RankSequence(
        rank=rank, events=interp.events,
        open_handles=list(interp.open_handles.values()), partial=partial,
    )
    for handle, site in interp.double_completes:
        seq.events.append(CommEvent(
            kind="double-complete", tag=handle.tag, site=site,
            frame=entry.func.qualname,
        ))
    return seq, interp.used_decisions


def _enumerate_scenarios(
    program: ProgramIndex, entry: EntrySpec, world: int,
) -> List[Tuple[Dict[str, bool], List[RankSequence]]]:
    """All decision scenarios (capped): every rank of one scenario
    shares one decision map, so data-dependent branches never fork
    ranks apart."""
    scenarios: List[Tuple[Dict[str, bool], List[RankSequence]]] = []
    frontier: List[Dict[str, bool]] = [{}]
    explored: Set[frozenset] = set()
    while frontier and len(scenarios) < _SCENARIO_CAP:
        decisions = frontier.pop(0)
        key = frozenset(decisions.items())
        if key in explored:
            continue
        explored.add(key)
        sequences: List[RankSequence] = []
        used_all: Dict[str, bool] = {}
        for rank in range(world):
            seq, used = interpret_rank(program, entry, rank, world,
                                       decisions)
            sequences.append(seq)
            used_all.update(used)
        scenarios.append((dict(used_all), sequences))
        for origin, default in used_all.items():
            if origin not in decisions:
                flipped = dict(decisions)
                flipped[origin] = not default
                frontier.append(flipped)
    return scenarios


# ----------------------------------------------------------------------
# Matching simulation
# ----------------------------------------------------------------------
class _Message:
    __slots__ = ("tag", "site", "src", "dst", "event_key")

    def __init__(self, tag, site, src, dst, event_key):
        self.tag = tag
        self.site = site
        self.src = src
        self.dst = dst
        self.event_key = event_key


def _fmt_tag(tag: object) -> str:
    if isinstance(tag, Sym):
        return f"<{tag.name}>"
    if isinstance(tag, Unknown):
        return "<?>"
    return repr(getattr(tag, "prefix", tag))


def _fmt_site(site: Tuple[str, int, int]) -> str:
    return f"{site[0]}:{site[1]}"


class _Simulator:
    """Round-robin execution of the per-rank sequences against FIFO
    channels, under rendezvous-send semantics."""

    def __init__(self, entry: EntrySpec, world: int,
                 sequences: List[RankSequence]) -> None:
        self.entry = entry
        self.world = world
        self.sequences = sequences
        self.pos = [0] * world
        self.channels: Dict[Tuple[int, int], List[_Message]] = {}
        self.consumed: Set[Tuple[int, int]] = set()  # (rank, event index)
        self.findings: List[CommFinding] = []
        #: ranks whose imprecision (indefinite events) excuses their
        #: unmatched traffic, keyed by direction.
        self.wild_send: Dict[int, bool] = {}
        self.wild_recv: Dict[int, bool] = {}

    # -- helpers -------------------------------------------------------
    def _finished(self, rank: int) -> bool:
        return self.pos[rank] >= len(self.sequences[rank].events)

    def _current(self, rank: int) -> Optional[CommEvent]:
        if self._finished(rank):
            return None
        return self.sequences[rank].events[self.pos[rank]]

    def _valid_peer(self, peer: object, rank: int) -> bool:
        return (isinstance(peer, int) and 0 <= peer < self.world
                and peer != rank)

    def _deposit(self, rank: int, event: CommEvent) -> None:
        key = (rank, self.pos[rank])
        self.channels.setdefault((rank, event.peer), []).append(
            _Message(event.tag, event.site, rank, event.peer, key)
        )

    # -- one step ------------------------------------------------------
    def _try_advance(self, rank: int) -> bool:
        event = self._current(rank)
        if event is None:
            return False
        kind = event.kind

        if kind in ("post", "complete", "meter", "double-complete"):
            self.pos[rank] += 1
            return True

        if kind == "isend":
            if not event.definite or not self._valid_peer(event.peer, rank):
                self.wild_send[rank] = True
            else:
                self._deposit(rank, event)
            self.pos[rank] += 1
            return True

        if kind == "send":
            if not event.definite or not self._valid_peer(event.peer, rank):
                self.wild_send[rank] = True
                self.pos[rank] += 1
                return True
            key = (rank, self.pos[rank])
            queue = self.channels.setdefault((rank, event.peer), [])
            deposited = False
            if not any(m.event_key == key for m in queue) \
                    and key not in self.consumed:
                self._deposit(rank, event)
                deposited = True
            # Rendezvous: the send completes when the peer consumed it.
            if key in self.consumed:
                self.pos[rank] += 1
                return True
            # The initial deposit is itself progress — the peer's recv
            # may already have passed this sweep and will match next
            # round; reporting stuck here would be a false deadlock.
            return deposited

        if kind == "join":
            if event.link is None:
                self.pos[rank] += 1
                return True
            linked = self.sequences[rank].events[event.link]
            if not linked.definite:
                self.pos[rank] += 1
                return True
            if (rank, event.link) in self.consumed:
                self.pos[rank] += 1
                return True
            return False

        if kind == "recv":
            if not event.definite or not self._valid_peer(event.peer, rank):
                self.wild_recv[rank] = True
                self.pos[rank] += 1
                return True
            queue = self.channels.get((event.peer, rank), [])
            if not queue:
                return False
            message = queue[0]
            if not tags_may_match(message.tag, event.tag):
                self.findings.append(CommFinding(
                    rule="comm-matching",
                    site=event.site,
                    message=(
                        f"[world={self.world}] rank {rank} receives tag "
                        f"{_fmt_tag(event.tag)} from rank {event.peer} "
                        f"here, but the matching message (sent at "
                        f"{_fmt_site(message.site)}) carries tag "
                        f"{_fmt_tag(message.tag)}"
                    ),
                    hint="make the sender and receiver agree on one tag "
                         "constant (the transport raises TransportError "
                         "on this at runtime)",
                ))
                # Consume anyway so one mismatch reports once.
            queue.pop(0)
            self.consumed.add(message.event_key)
            self.pos[rank] += 1
            return True

        if kind == "coll":
            return self._advance_collectives()

        self.pos[rank] += 1
        return True

    def _advance_collectives(self) -> bool:
        """A collective is a barrier: advance only when every
        unfinished rank sits at a compatible collective."""
        waiting: List[Tuple[int, CommEvent]] = []
        for rank in range(self.world):
            event = self._current(rank)
            if event is None:
                continue
            if event.kind != "coll":
                return False
            waiting.append((rank, event))
        if not waiting:
            return False
        first = waiting[0][1]
        for rank, event in waiting[1:]:
            if (not tags_may_match(event.tag, first.tag)
                    or event.alg != first.alg):
                self.findings.append(CommFinding(
                    rule="comm-deadlock",
                    site=event.site,
                    message=(
                        f"[world={self.world}] rank {rank} enters a "
                        f"collective (tag {_fmt_tag(event.tag)}, "
                        f"{event.alg}) here while rank {waiting[0][0]} "
                        f"is at a different collective (tag "
                        f"{_fmt_tag(first.tag)}, {first.alg}, "
                        f"{_fmt_site(first.site)}) — divergent "
                        "collective ordering"
                    ),
                    hint="collectives must be reached in the same order "
                         "with the same tag on every rank",
                ))
                for r, _ in waiting:
                    self.pos[r] += 1
                return True
        finished = [r for r in range(self.world) if self._finished(r)]
        if finished:
            rank, event = waiting[0]
            self.findings.append(CommFinding(
                rule="comm-deadlock",
                site=event.site,
                message=(
                    f"[world={self.world}] rank {rank} waits in a "
                    f"collective (tag {_fmt_tag(event.tag)}) that rank"
                    f"{'s' if len(finished) > 1 else ''} "
                    f"{', '.join(map(str, finished))} never enter"
                    f"{'' if len(finished) > 1 else 's'} — "
                    "rank-divergent collective participation"
                ),
                hint="hoist the collective out of the rank-conditional "
                     "branch so every rank participates",
            ))
            for r, _ in waiting:
                self.pos[r] += 1
            return True
        for rank, _ in waiting:
            self.pos[rank] += 1
        return True

    # -- stuck analysis ------------------------------------------------
    def _excuse_blocked(self) -> bool:
        """Fabricate satisfaction for a blocked op whose counterpart is
        hidden behind another rank's imprecision."""
        for rank in range(self.world):
            event = self._current(rank)
            if event is None:
                continue
            if event.kind == "recv" and isinstance(event.peer, int):
                if self.wild_send.get(event.peer):
                    self.pos[rank] += 1
                    return True
            if event.kind == "send" and isinstance(event.peer, int):
                if self.wild_recv.get(event.peer):
                    key = (rank, self.pos[rank])
                    queue = self.channels.get((rank, event.peer), [])
                    self.channels[(rank, event.peer)] = [
                        m for m in queue if m.event_key != key
                    ]
                    self.consumed.add(key)
                    self.pos[rank] += 1
                    return True
            if event.kind == "join" and event.link is not None:
                linked = self.sequences[rank].events[event.link]
                if isinstance(linked.peer, int) \
                        and self.wild_recv.get(linked.peer):
                    self.consumed.add((rank, event.link))
                    self.pos[rank] += 1
                    return True
        return False

    def _report_stuck(self) -> None:
        blocked: Dict[int, Tuple[CommEvent, int]] = {}
        for rank in range(self.world):
            event = self._current(rank)
            if event is None:
                continue
            waits_on: Optional[int] = None
            if event.kind in ("recv",) and isinstance(event.peer, int):
                waits_on = event.peer
            elif event.kind == "send" and isinstance(event.peer, int):
                waits_on = event.peer
            elif event.kind == "join" and event.link is not None:
                linked = self.sequences[rank].events[event.link]
                if isinstance(linked.peer, int):
                    waits_on = linked.peer
            elif event.kind == "coll":
                others = [r for r in range(self.world)
                          if r != rank and not self._finished(r)]
                waits_on = others[0] if others else None
            if waits_on is not None:
                blocked[rank] = (event, waits_on)
        if not blocked:
            return
        # Wait-on-finished first: the simplest diagnosis wins.
        for rank, (event, target) in sorted(blocked.items()):
            if self._finished(target) and target not in blocked:
                verb = {"recv": "receive from", "send": "send to",
                        "join": "complete a send to",
                        "coll": "rendezvous with"}.get(event.kind, "wait on")
                self.findings.append(CommFinding(
                    rule="comm-deadlock",
                    site=event.site,
                    message=(
                        f"[world={self.world}] rank {rank} blocks here to "
                        f"{verb} rank {target}, which has already finished "
                        f"— this {event.kind} (tag {_fmt_tag(event.tag)}) "
                        "can never complete"
                    ),
                    hint="every blocking op needs a matching counterpart "
                         "on the peer rank's sequence",
                ))
                return
        # Otherwise: find a cycle in the wait-for graph.
        cycle = _find_cycle({r: t for r, (_, t) in blocked.items()})
        if cycle:
            parts = []
            for rank in cycle:
                event, target = blocked[rank]
                parts.append(
                    f"rank {rank} {event.kind}"
                    f"(tag {_fmt_tag(event.tag)})->rank {target} at "
                    f"{_fmt_site(event.site)}"
                )
            first_event = blocked[cycle[0]][0]
            self.findings.append(CommFinding(
                rule="comm-deadlock",
                site=first_event.site,
                message=(
                    f"[world={self.world}] blocking-operation cycle: "
                    + "; ".join(parts)
                ),
                hint="break the cycle by making one direction "
                     "non-blocking (isend/post_exchange) or by "
                     "reordering so some rank receives first",
            ))
            return
        event, target = blocked[min(blocked)]
        self.findings.append(CommFinding(
            rule="comm-deadlock",
            site=event.site,
            message=(
                f"[world={self.world}] rank {min(blocked)} blocks here "
                f"({event.kind}, tag {_fmt_tag(event.tag)}) waiting on "
                f"rank {target} and no rank can make progress"
            ),
        ))

    # -- run -----------------------------------------------------------
    def run(self) -> List[CommFinding]:
        steps = 0
        while steps < _SIM_STEP_CAP:
            steps += 1
            if all(self._finished(r) for r in range(self.world)):
                break
            progressed = False
            for rank in range(self.world):
                if self._try_advance(rank):
                    progressed = True
            if not progressed:
                if self._excuse_blocked():
                    continue
                self._report_stuck()
                return self.findings
        # Leftover definite messages were sent but never received.
        for (src, dst), queue in sorted(self.channels.items()):
            for message in queue:
                if message.event_key in self.consumed:
                    continue
                if not isinstance(dst, int) or self.wild_recv.get(dst):
                    continue
                self.findings.append(CommFinding(
                    rule="comm-matching",
                    site=message.site,
                    message=(
                        f"[world={self.world}] message (tag "
                        f"{_fmt_tag(message.tag)}) sent here from rank "
                        f"{src} to rank {dst} is never received — rank "
                        f"{dst}'s sequence has no matching recv"
                    ),
                    hint="add the matching recv on the destination rank "
                         "or drop the send",
                ))
        return self.findings


def _find_cycle(edges: Dict[int, int]) -> Optional[List[int]]:
    for start in sorted(edges):
        seen: List[int] = []
        node = start
        while node in edges and node not in seen:
            seen.append(node)
            node = edges[node]
        if node in seen:
            return seen[seen.index(node):]
    return None


# ----------------------------------------------------------------------
# Per-entry analysis
# ----------------------------------------------------------------------
def _collective_divergence(
    world: int, sequences: List[RankSequence]
) -> List[CommFinding]:
    """Pre-sim check: the ordered collective profile must be identical
    on every rank (same tags, same algorithms, same count)."""
    profiles = [
        [e for e in seq.events if e.kind == "coll"] for seq in sequences
    ]
    base = profiles[0]
    for rank, profile in enumerate(profiles[1:], start=1):
        limit = max(len(base), len(profile))
        for i in range(limit):
            a = base[i] if i < len(base) else None
            b = profile[i] if i < len(profile) else None
            if a is not None and b is not None:
                if tags_may_match(a.tag, b.tag) and a.alg == b.alg:
                    continue
                site, other = b.site, a
            else:
                present = a if a is not None else b
                missing_rank = rank if a is not None else 0
                assert present is not None
                return [CommFinding(
                    rule="comm-deadlock",
                    site=present.site,
                    message=(
                        f"[world={world}] collective #{i + 1} (tag "
                        f"{_fmt_tag(present.tag)}, {present.alg}) here is "
                        f"reached by rank "
                        f"{0 if a is not None else rank} but never by "
                        f"rank {missing_rank} — rank-divergent "
                        "collective participation"
                    ),
                    hint="hoist the collective out of the "
                         "rank-conditional branch so every rank "
                         "participates",
                )]
            return [CommFinding(
                rule="comm-deadlock",
                site=site,
                message=(
                    f"[world={world}] collective #{i + 1} diverges "
                    f"across ranks: rank 0 runs (tag "
                    f"{_fmt_tag(other.tag)}, {other.alg}) at "
                    f"{_fmt_site(other.site)}, rank {rank} runs (tag "
                    f"{_fmt_tag(b.tag)}, {b.alg}) here"
                ),
                hint="collectives must be reached in the same order "
                     "with the same tag and algorithm on every rank",
            )]
    return []


def _handle_leaks(sequences: List[RankSequence]) -> List[CommFinding]:
    findings: List[CommFinding] = []
    reported: Set[Tuple[str, int]] = set()
    for seq in sequences:
        for handle in seq.open_handles:
            key = (handle.site[0], handle.site[1])
            if key in reported:
                continue
            reported.add(key)
            findings.append(CommFinding(
                rule="comm-exchange",
                site=handle.site,
                message=(
                    f"exchange handle (tag {_fmt_tag(handle.tag)}) posted "
                    "here is never completed on any path before the rank "
                    "returns — its deferred receives are dropped and the "
                    "peers' sends are orphaned"
                ),
                hint="pass the handle to complete_exchange on every path "
                     "(including the one that returns it to a caller "
                     "that drops it)",
            ))
        for event in seq.events:
            if event.kind == "double-complete":
                key = (event.site[0], event.site[1])
                if key in reported:
                    continue
                reported.add(key)
                findings.append(CommFinding(
                    rule="comm-exchange",
                    site=event.site,
                    message=(
                        f"exchange handle (tag {_fmt_tag(event.tag)}) is "
                        "completed twice — the second complete re-drains "
                        "receives that were already consumed"
                    ),
                    hint="complete each posted handle exactly once",
                ))
    return findings


def analyze_entry(
    program: ProgramIndex, entry: EntrySpec,
) -> Tuple[List[CommFinding], Dict[str, object]]:
    """Verify one entry point across its world sizes and decision
    scenarios.  Returns deduplicated findings plus an ``info`` dict
    (event counts per world — the proof the analysis saw real traffic,
    which the acceptance tests assert on)."""
    findings: List[CommFinding] = []
    info: Dict[str, object] = {"entry": entry.name, "worlds": {},
                               "partial": False}
    if entry.kind == "single":
        seq, _ = interpret_rank(program, entry, 0, 3)
        info["worlds"][3] = {
            "events": len(seq.events),
            "scenarios": 1,
        }
        info["partial"] = seq.partial
        return findings, info
    seen: Set[Tuple[str, str, int]] = set()
    for world in entry.worlds:
        scenarios = _enumerate_scenarios(program, entry, world)
        event_total = 0
        for _decisions, sequences in scenarios:
            event_total = max(
                event_total, sum(len(s.events) for s in sequences)
            )
            if any(seq.partial for seq in sequences):
                info["partial"] = True
                continue  # a truncated sequence must not report
            scenario_findings = _collective_divergence(world, sequences)
            if not scenario_findings:
                scenario_findings = _Simulator(
                    entry, world, sequences
                ).run()
            scenario_findings.extend(_handle_leaks(sequences))
            for finding in scenario_findings:
                key = (finding.rule, finding.site[0], finding.site[1])
                if key in seen:
                    continue
                seen.add(key)
                findings.append(finding)
        info["worlds"][world] = {
            "events": event_total,
            "scenarios": len(scenarios),
        }
    return findings, info
