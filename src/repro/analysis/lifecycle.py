"""The resource-lifecycle flow pass.

The transport layer's correctness contract is a lifecycle contract:
every shared-memory segment is closed by everyone and unlinked exactly
once *by its creator*, every pipe end is closed, every acquired lock is
released — on every path, including the ones that only exist because a
``recv`` raised.  PR 7 encoded the creator-owns-unlink asymmetry in
prose and in ``finally`` blocks; this pass encodes it as a dataflow
problem over the function CFG so a transport edit cannot quietly
regress it.

:class:`LifecyclePass` (rule ``lifecycle``) tracks local variables
bound to resource constructors (:data:`RESOURCES` — plain data, extend
by adding rows) and requires each to reach *all* of its release duties
(``close``/``unlink``/``release``) on every CFG path, unless the value
escapes first (returned, stored, passed on — ownership moved, some
other scope releases it).  Acquisitions happen only on the normal edge
out of the binding statement (a constructor that raised bound
nothing); release effects apply on both (a ``close`` that raised still
counts as attempted).  The creator/attach asymmetry: an attach-mode
constructor (``_ShmRing.attach``, ``SharedMemory(name=...)`` without
``create=True``) must *never* ``unlink`` — worker-side unlink destroys
a segment the creator still owns, and is reported even when chained
(``SharedMemory(name=n).unlink()``).

To keep the exceptional-path side usable, a leak that *only* occurs
via an exception edge is reported just when the function releases the
same resource on its normal path — the classic "close at the end, no
finally" bug.  A resource whose cleanup is ownership transfer (append
to a list the caller's ``finally`` walks) never trips the exceptional
case, because there is no release call to skip.

Held locks are one more row: ``x.acquire()`` creates a ``held-lock``
instance that owes ``release()``, so a bare acquire whose critical
section can raise before the release is a finding at the acquire
line — the raise loses the lock and strands whatever the section had
half-applied.  ``with lock:`` is immune by construction: the CFG's
``with-exit`` node releases on every outgoing path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from .dataflow import (
    CFG,
    CFGNode,
    dotted_name,
    escaping_loads,
    header_roots,
    solve_forward,
)
from .engine import Diagnostic, FlowPass, SourceModule, register_pass

__all__ = [
    "LifecyclePass",
    "RESOURCES",
    "ResourceSpec",
]


@dataclass(frozen=True)
class ResourceSpec:
    """One resource family: how it is created and what it owes.

    ``constructors`` are matched by :func:`_match` against the callee:
    a plain pattern must equal its last segment (``"Pipe"``), a
    ``*Suffix`` pattern must end it (``"*Endpoint"``), and a dotted
    pattern must equal the callee or end it after a dot
    (``"_ShmRing.create"``).
    ``duties`` are the methods that must all be called before the
    function exits; ``attach_constructors`` create the non-owning
    (worker-side) flavour with ``attach_duties``, for which the
    methods in ``forbidden`` are themselves findings (creator-owns-
    unlink).  ``pair`` marks constructors returning a 2-tuple of
    resources (``Pipe()``)."""

    name: str
    constructors: Tuple[str, ...] = ()
    duties: FrozenSet[str] = frozenset()
    attach_constructors: Tuple[str, ...] = ()
    attach_duties: FrozenSet[str] = frozenset()
    forbidden: Mapping[str, str] = field(default_factory=dict)
    pair: bool = False


def _match(callee: str, patterns: Tuple[str, ...]) -> bool:
    last = callee.rsplit(".", 1)[-1]
    for pattern in patterns:
        if "." in pattern:
            if callee == pattern or callee.endswith("." + pattern):
                return True
        elif pattern.startswith("*"):
            if last.endswith(pattern[1:]):
                return True
        elif last == pattern:
            return True
    return False


_WORKER_UNLINK_MSG = (
    "worker-side unlink: this handle was attached, not created — "
    "unlinking destroys a segment its creator still owns "
    "(creator-owns-unlink, see PR 7's lifecycle contract)"
)

#: The resource table — extend by adding rows, not checker code.
RESOURCES: Tuple[ResourceSpec, ...] = (
    ResourceSpec(
        name="shm-segment",
        # SharedMemory(create=True, ...) is the creator; SharedMemory
        # (name=..., [track=False]) merely attaches (split below by
        # the create= kwarg, not by pattern).
        constructors=("SharedMemory",),
        duties=frozenset({"close", "unlink"}),
        attach_constructors=("SharedMemory",),
        attach_duties=frozenset({"close"}),
        forbidden={"unlink": _WORKER_UNLINK_MSG},
    ),
    ResourceSpec(
        name="shm-ring",
        constructors=("_ShmRing.create",),
        duties=frozenset({"close", "unlink"}),
        attach_constructors=("_ShmRing.attach",),
        attach_duties=frozenset({"close"}),
        forbidden={"unlink": _WORKER_UNLINK_MSG},
    ),
    ResourceSpec(
        name="pipe-conn",
        constructors=("Pipe",),
        duties=frozenset({"close"}),
        pair=True,
    ),
    ResourceSpec(
        name="endpoint",
        constructors=("*Endpoint",),
        duties=frozenset({"close"}),
    ),
    ResourceSpec(
        name="held-lock",
        # Created by the `.acquire()` *event*, not a constructor —
        # see LifecyclePass._acquisitions.
        duties=frozenset({"release"}),
    ),
)

_BY_NAME = {spec.name: spec for spec in RESOURCES}

#: Lock-wrapper layers legitimately split acquire/release across
#: methods; tracking them would flag the wrapper itself.
_LOCK_WRAPPER_FUNCS = frozenset(
    {"acquire", "release", "__enter__", "__exit__"}
)


def _classify_constructor(call: ast.Call) -> Optional[Tuple[ResourceSpec, str]]:
    """(spec, mode) for a resource-creating call, else None.  Mode is
    ``"create"`` (full duties) or ``"attach"`` (attach duties plus the
    forbidden-method findings)."""
    callee = dotted_name(call.func)
    if callee is None:
        return None
    for spec in RESOURCES:
        creates = _match(callee, spec.constructors)
        attaches = _match(callee, spec.attach_constructors)
        if not creates and not attaches:
            continue
        if spec.name == "shm-segment":
            # Same callee both ways: the create= kwarg decides.
            explicit_create = any(
                kw.arg == "create"
                and not (isinstance(kw.value, ast.Constant)
                         and kw.value.value is False)
                for kw in call.keywords
            )
            return spec, "create" if explicit_create else "attach"
        if creates and spec.constructors != spec.attach_constructors:
            return spec, "create"
        return spec, "attach"
    return None


#: One tracked instance: (spec name, remaining duties, site line,
#: flags).  Flags: "attached" (worker-side handle), "exceptional"
#: (this state travelled an exception edge while still owing duties).
_Instance = Tuple[str, FrozenSet[str], int, FrozenSet[str]]
#: var -> set of instances (one per reaching acquisition/path combo).
_State = Dict[str, FrozenSet[_Instance]]


def _join(a: _State, b: _State) -> _State:
    out = dict(a)
    for var, instances in b.items():
        out[var] = out.get(var, frozenset()) | instances
    return out


def _site(line: int) -> SimpleNamespace:
    """A diag() anchor for findings reported away from their line."""
    return SimpleNamespace(lineno=line, col_offset=0)


class LifecyclePass(FlowPass):
    rule = "lifecycle"
    title = "resources must reach close/unlink/release on every path"
    description = (
        "flow-sensitive: SharedMemory/Pipe/ring/endpoint/lock values "
        "must be released (or escape to a new owner) on all CFG "
        "paths; attached handles must never unlink (creator-owns-"
        "unlink)"
    )

    def run_cfg(self, module: SourceModule, cfg: CFG) -> List[Diagnostic]:
        if cfg.name in _LOCK_WRAPPER_FUNCS:
            return []
        findings: Dict[Tuple[int, str], Diagnostic] = {}
        #: Acquisition sites that saw a release on some path — the
        #: gate for reporting exceptional-only leaks (see module doc).
        released_sites: Set[int] = set()

        def transfer(node: CFGNode, state: _State):
            stmt = node.stmt
            if stmt is None or node.kind in ("finally", "except"):
                return state, state
            out = {var: set(instances) for var, instances in state.items()}
            if node.kind == "with-exit":
                # __exit__ releases whatever the with items acquired.
                for var, _call in self._with_bindings(stmt):
                    out.pop(var, None)
                frozen = {v: frozenset(i) for v, i in out.items()}
                return frozen, frozen
            roots = header_roots(node)
            calls = [n for root in roots for n in ast.walk(root)
                     if isinstance(n, ast.Call)]
            # 1. Releases, forbidden methods, chained worker-unlink.
            for call in calls:
                self._chained_unlink(module, call, findings)
                receiver, method = self._method_on_name(call)
                if receiver is None or receiver not in out:
                    continue
                updated = set()
                for spec_name, duties, site, flags in out[receiver]:
                    spec = _BY_NAME[spec_name]
                    if "attached" in flags and method in spec.forbidden:
                        key = (call.lineno, f"{receiver}.{method}")
                        if key not in findings:
                            findings[key] = self.diag(
                                module, call, spec.forbidden[method],
                                hint="only the creating process may "
                                "unlink; attached handles close() only",
                            )
                    if method in duties:
                        duties = duties - {method}
                        released_sites.add(site)
                    updated.add((spec_name, duties, site, flags))
                out[receiver] = updated
            # 2. Escapes transfer ownership — stop tracking.
            for root in roots:
                for var in escaping_loads(root, tuple(out)):
                    out.pop(var, None)
            # Drop fully-discharged instances to keep states small —
            # except attached handles with forbidden methods, which
            # must stay visible so a post-close unlink() still reports.
            for var in list(out):
                out[var] = {
                    inst for inst in out[var]
                    if inst[1] or ("attached" in inst[3]
                                   and _BY_NAME[inst[0]].forbidden)
                }
                if not out[var]:
                    del out[var]
            exc_state = {
                var: frozenset(
                    (s, d, site, flags | {"exceptional"})
                    for s, d, site, flags in instances
                )
                for var, instances in out.items()
            }
            # 3. Acquisitions bind on the normal edge only.
            for var, instance in self._acquisitions(node, calls):
                out[var] = {instance}
            normal_state = {v: frozenset(i) for v, i in out.items()}
            return normal_state, exc_state

        in_states = solve_forward(cfg, {}, transfer, _join)
        exit_state: _State = in_states.get(cfg.exit, {})
        for var, instances in sorted(exit_state.items()):
            reported: Set[int] = set()
            for spec_name, duties, site, flags in sorted(
                instances, key=lambda i: i[2]
            ):
                if not duties or site in reported:
                    continue
                exceptional = "exceptional" in flags
                if exceptional and site not in released_sites:
                    # Ownership moves some other way (escape/transfer);
                    # there is no release call for a raise to skip.
                    continue
                reported.add(site)
                spec = _BY_NAME[spec_name]
                missing = "/".join(f"{d}()" for d in sorted(duties))
                path = ("an exceptional exit skips" if exceptional
                        else "some path misses")
                findings[(site, var)] = self.diag(
                    module, _site(site),
                    f"{spec.name} {var!r} may never reach {missing}: "
                    f"{path} it",
                    hint="release in a finally block (or a with "
                    "statement), or hand the value to an owner that "
                    "does; waive with a justified "
                    "# repro-lint: ignore[lifecycle]",
                )
        return sorted(findings.values(), key=lambda d: (d.line, d.col))

    # ------------------------------------------------------------------
    @staticmethod
    def _method_on_name(call: ast.Call) -> Tuple[Optional[str], str]:
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            return func.value.id, func.attr
        return None, ""

    def _chained_unlink(self, module: SourceModule, call: ast.Call,
                        findings: Dict) -> None:
        """``SharedMemory(name=n).unlink()`` — attach + destroy in one
        expression, no variable to track."""
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Call)):
            return
        classified = _classify_constructor(func.value)
        if classified is None:
            return
        spec, mode = classified
        if mode == "attach" and func.attr in spec.forbidden:
            key = (call.lineno, f"<chained>.{func.attr}")
            if key not in findings:
                findings[key] = self.diag(
                    module, call, spec.forbidden[func.attr],
                    hint="only the creating process may unlink; "
                    "attached handles close() only",
                )

    def _with_bindings(self, stmt) -> List[Tuple[str, ast.Call]]:
        out = []
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.context_expr, ast.Call) \
                        and isinstance(item.optional_vars, ast.Name) \
                        and _classify_constructor(item.context_expr):
                    out.append((item.optional_vars.id, item.context_expr))
        return out

    def _acquisitions(self, node: CFGNode,
                      calls: List[ast.Call]) -> List[Tuple[str, _Instance]]:
        stmt = node.stmt
        acquired: List[Tuple[str, _Instance]] = []

        def instance(spec: ResourceSpec, mode: str,
                     line: int) -> _Instance:
            duties = spec.duties if mode == "create" else spec.attach_duties
            flags = frozenset({"attached"}) if mode == "attach" \
                else frozenset()
            return (spec.name, duties, line, flags)

        # var = Constructor(...)   /   a, b = Pipe(...)
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call) \
                and len(stmt.targets) == 1:
            classified = _classify_constructor(stmt.value)
            target = stmt.targets[0]
            if classified is not None:
                spec, mode = classified
                if spec.pair and isinstance(target, ast.Tuple):
                    for el in target.elts:
                        if isinstance(el, ast.Name):
                            acquired.append(
                                (el.id, instance(spec, mode, stmt.lineno))
                            )
                elif isinstance(target, ast.Name):
                    acquired.append(
                        (target.id, instance(spec, mode, stmt.lineno))
                    )
        # x.acquire() — the lock-hold "constructor".
        for call in calls:
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "acquire" \
                    and isinstance(func.value, ast.Name):
                spec = _BY_NAME["held-lock"]
                acquired.append(
                    (func.value.id,
                     (spec.name, spec.duties, call.lineno, frozenset()))
                )
        return acquired


register_pass(LifecyclePass())
