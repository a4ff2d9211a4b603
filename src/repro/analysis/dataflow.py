"""Intraprocedural CFG + forward dataflow solver over Python ``ast``.

PR 8's passes are pattern matchers: they can say "this call looks
wrong" but not "this resource never reaches ``close()`` on the path
where the recv raises".  This module adds the missing half — a small
control-flow graph builder over function bodies and a generic forward
worklist solver — so flow-sensitive passes (:mod:`.lifecycle`) can
reason about *paths*, including the exceptional ones.

Design notes (the approximations are deliberate and documented):

* **One node per statement.**  Compound statements (``if`` / ``while``
  / ``for`` / ``with`` / ``try``) contribute a *header* node holding
  the statement object — transfer functions must only interpret the
  header part (the test, the iterator, the context items), never walk
  into the body, which has its own nodes.
* **Exception edges are conservative.**  Any statement that contains a
  call, attribute access, subscript, binary op or comparison gets an
  ``"exception"`` edge to the innermost handler/finally (or the exit).
  The edge carries the *pre-effect* state: an assignment that raises
  never bound its target.
* **``finally`` is a single shared subgraph.**  Both the normal and
  the exceptional path flow through it; its tail re-raises (an
  ``"exception"`` edge to the outer targets) and, when a ``return`` /
  ``break`` / ``continue`` escaped into it, also jumps on to that
  escape's real target.  This merges states across entry reasons —
  a standard over-approximation that adds spurious paths but never
  hides the finally body's effects (the pattern that matters:
  ``try: ... finally: x.close()`` is *clean*).
* **``with`` is modelled as try/finally**: a synthetic ``with-exit``
  node intercepts every exceptional / escaping edge out of the body,
  so a pass can apply ``__exit__`` effects (release the lock, close
  the context) on *all* outgoing paths.
* **Dead code is skipped.**  Statements after a ``return`` / ``raise``
  / ``break`` are unreachable and get no nodes, which is what makes
  "every node reachable from entry" an invariant rather than a hope.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "CFG",
    "CFGError",
    "CFGNode",
    "SolverDivergence",
    "build_cfg",
    "dotted_name",
    "escaping_loads",
    "function_cfgs",
    "header_roots",
    "solve_forward",
]

#: Edge kinds. Passes generally only distinguish "exception" from the
#: rest; "true"/"false" exist so branch-sensitive passes can be added
#: without rebuilding the graph format.
EDGE_KINDS = ("normal", "true", "false", "exception")


class CFGError(ValueError):
    """The graph violates a structural invariant (builder bug)."""


class SolverDivergence(RuntimeError):
    """The worklist solver exceeded its step budget (non-monotone
    transfer or an infinite-height lattice)."""


@dataclass
class CFGNode:
    """One CFG node: a statement (or a synthetic marker) plus out-edges.

    Kinds: ``entry`` / ``exit`` (synthetic, one each), ``stmt`` (a
    statement header — ``stmt`` holds the ast node), ``with-exit``
    (``__exit__`` of the ``With`` in ``stmt``), ``finally`` (entry
    marker of a finally subgraph, ``stmt`` holds the ``Try``),
    ``except`` (``stmt`` holds the ``ast.ExceptHandler``) and ``join``
    (an empty merge point, e.g. a loop exit).
    """

    uid: int
    kind: str
    stmt: Optional[ast.AST] = None
    succs: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def lineno(self) -> int:
        return getattr(self.stmt, "lineno", 0)


@dataclass
class CFG:
    """A function's control-flow graph (single entry, single exit)."""

    name: str
    lineno: int
    entry: int
    exit: int
    nodes: Dict[int, CFGNode]

    def node(self, uid: int) -> CFGNode:
        return self.nodes[uid]

    def preds(self) -> Dict[int, List[Tuple[int, str]]]:
        """uid -> list of (predecessor uid, edge kind)."""
        incoming: Dict[int, List[Tuple[int, str]]] = {u: [] for u in self.nodes}
        for node in self.nodes.values():
            for succ, kind in node.succs:
                incoming[succ].append((node.uid, kind))
        return incoming

    def reachable(self) -> set:
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for succ, _kind in self.nodes[stack.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def validate(self) -> None:
        """Raise :class:`CFGError` on any structural violation."""
        entries = [n for n in self.nodes.values() if n.kind == "entry"]
        if len(entries) != 1 or entries[0].uid != self.entry:
            raise CFGError(f"{self.name}: expected exactly one entry node")
        if self.nodes[self.exit].succs:
            raise CFGError(f"{self.name}: exit node has successors")
        for node in self.nodes.values():
            for succ, kind in node.succs:
                if succ not in self.nodes:
                    raise CFGError(f"{self.name}: edge to unknown node {succ}")
                if kind not in EDGE_KINDS:
                    raise CFGError(f"{self.name}: unknown edge kind {kind!r}")
            if node.kind != "exit" and not node.succs:
                raise CFGError(
                    f"{self.name}: dangling node {node.uid} ({node.kind})"
                )
        incoming = self.preds()  # edges verified above, so this is total
        if incoming[self.entry]:
            raise CFGError(f"{self.name}: entry node has predecessors")
        unreachable = set(self.nodes) - self.reachable()
        if unreachable:
            raise CFGError(
                f"{self.name}: unreachable nodes {sorted(unreachable)}"
            )


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
#: Statement parts that can plausibly raise.  NameError-on-load and
#: MemoryError-anywhere are deliberately out of the model: treating
#: *every* statement as raising would flag every unprotected region.
_RAISING_EXPRS = (
    ast.Call, ast.Attribute, ast.Subscript, ast.BinOp, ast.Compare,
    ast.Await, ast.Yield, ast.YieldFrom,
)


def _can_raise(node: ast.AST) -> bool:
    if isinstance(node, (ast.Raise, ast.Assert, ast.AugAssign, ast.Delete)):
        return True
    return any(isinstance(n, _RAISING_EXPRS) for n in ast.walk(node))


@dataclass(frozen=True)
class _Escape:
    """Landing node of an escaping jump (return/break/continue), plus a
    notification hook so an enclosing finally/with learns it must
    forward the jump from its tail once built."""

    uid: int
    notify: Callable[[], None] = lambda: None


@dataclass(frozen=True)
class _Ctx:
    exc_targets: Tuple[int, ...]
    return_tgt: _Escape
    break_tgt: Optional[_Escape] = None
    continue_tgt: Optional[_Escape] = None


_Frontier = List[Tuple[int, str]]  # dangling (source uid, edge kind)


class _Builder:
    def __init__(self) -> None:
        self.nodes: Dict[int, CFGNode] = {}
        self._next_uid = 0

    def _new(self, kind: str, stmt: Optional[ast.AST] = None) -> CFGNode:
        node = CFGNode(self._next_uid, kind, stmt)
        self.nodes[self._next_uid] = node
        self._next_uid += 1
        return node

    def _connect(self, frontier: _Frontier, target: int) -> None:
        for uid, kind in frontier:
            self.nodes[uid].succs.append((target, kind))

    def _exc_edges(self, node: CFGNode, ctx: _Ctx) -> None:
        for target in ctx.exc_targets:
            node.succs.append((target, "exception"))

    # ------------------------------------------------------------------
    def build(self, func: ast.AST) -> CFG:
        entry = self._new("entry")
        exit_node = self._new("exit")
        ctx = _Ctx(exc_targets=(exit_node.uid,),
                   return_tgt=_Escape(exit_node.uid))
        tail = self._stmts(func.body, [(entry.uid, "normal")], ctx)
        self._connect(tail, exit_node.uid)
        for node in self.nodes.values():  # drop duplicate edges
            node.succs = list(dict.fromkeys(node.succs))
        return CFG(name=getattr(func, "name", "<module>"),
                   lineno=getattr(func, "lineno", 0),
                   entry=entry.uid, exit=exit_node.uid, nodes=self.nodes)

    def _stmts(self, stmts: Sequence[ast.stmt], frontier: _Frontier,
               ctx: _Ctx) -> _Frontier:
        for stmt in stmts:
            if not frontier:
                break  # dead code after return/raise/break — no nodes
            frontier = self._stmt(stmt, frontier, ctx)
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: _Frontier,
              ctx: _Ctx) -> _Frontier:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier, ctx)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, frontier, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier, ctx)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier, ctx)
        if isinstance(stmt, ast.Return):
            node = self._new("stmt", stmt)
            self._connect(frontier, node.uid)
            if stmt.value is not None and _can_raise(stmt.value):
                self._exc_edges(node, ctx)
            node.succs.append((ctx.return_tgt.uid, "normal"))
            ctx.return_tgt.notify()
            return []
        if isinstance(stmt, ast.Raise):
            node = self._new("stmt", stmt)
            self._connect(frontier, node.uid)
            self._exc_edges(node, ctx)
            return []
        if isinstance(stmt, ast.Break):
            node = self._new("stmt", stmt)
            self._connect(frontier, node.uid)
            node.succs.append((ctx.break_tgt.uid, "normal"))
            ctx.break_tgt.notify()
            return []
        if isinstance(stmt, ast.Continue):
            node = self._new("stmt", stmt)
            self._connect(frontier, node.uid)
            node.succs.append((ctx.continue_tgt.uid, "normal"))
            ctx.continue_tgt.notify()
            return []
        # Simple statement (incl. nested def/class, which are opaque).
        node = self._new("stmt", stmt)
        self._connect(frontier, node.uid)
        if _can_raise(stmt):
            self._exc_edges(node, ctx)
        return [(node.uid, "normal")]

    def _if(self, stmt: ast.If, frontier: _Frontier, ctx: _Ctx) -> _Frontier:
        head = self._new("stmt", stmt)
        self._connect(frontier, head.uid)
        if _can_raise(stmt.test):
            self._exc_edges(head, ctx)
        body_tail = self._stmts(stmt.body, [(head.uid, "true")], ctx)
        if stmt.orelse:
            else_tail = self._stmts(stmt.orelse, [(head.uid, "false")], ctx)
        else:
            else_tail = [(head.uid, "false")]
        return body_tail + else_tail

    def _loop(self, stmt, frontier: _Frontier, ctx: _Ctx) -> _Frontier:
        head = self._new("stmt", stmt)
        self._connect(frontier, head.uid)
        raising_part = stmt.test if isinstance(stmt, ast.While) else stmt.iter
        if _can_raise(raising_part):
            self._exc_edges(head, ctx)
        loop_exit = self._new("join")
        body_ctx = replace(ctx, break_tgt=_Escape(loop_exit.uid),
                           continue_tgt=_Escape(head.uid))
        body_tail = self._stmts(stmt.body, [(head.uid, "true")], body_ctx)
        self._connect(body_tail, head.uid)  # back edge
        if stmt.orelse:
            else_tail = self._stmts(stmt.orelse, [(head.uid, "false")], ctx)
            self._connect(else_tail, loop_exit.uid)
        else:
            self._connect([(head.uid, "false")], loop_exit.uid)
        if not any(loop_exit.uid == succ
                   for node in self.nodes.values()
                   for succ, _kind in node.succs):
            # No normal loop exit and no break: the join is unreachable
            # (e.g. ``while c: ... else: return``) — drop it and treat
            # whatever follows the loop as dead code.
            del self.nodes[loop_exit.uid]
            return []
        return [(loop_exit.uid, "normal")]

    def _with(self, stmt, frontier: _Frontier, ctx: _Ctx) -> _Frontier:
        head = self._new("stmt", stmt)  # items eval + __enter__ + binding
        self._connect(frontier, head.uid)
        self._exc_edges(head, ctx)  # __enter__ itself may raise
        w_exit = self._new("with-exit", stmt)
        # Pending exception re-raises after __exit__ runs.
        for target in ctx.exc_targets:
            w_exit.succs.append((target, "exception"))
        pending: Dict[str, bool] = {}
        body_ctx = _Ctx(
            exc_targets=(w_exit.uid,),
            return_tgt=self._detour(ctx.return_tgt, w_exit, "return", pending),
            break_tgt=self._detour(ctx.break_tgt, w_exit, "break", pending),
            continue_tgt=self._detour(ctx.continue_tgt, w_exit, "continue",
                                      pending),
        )
        body_tail = self._stmts(stmt.body, [(head.uid, "normal")], body_ctx)
        self._connect(body_tail, w_exit.uid)
        self._resolve_detours([(w_exit.uid, "normal")], ctx, pending)
        return [(w_exit.uid, "normal")]

    @staticmethod
    def _is_catch_all_type(node: Optional[ast.expr]) -> bool:
        if node is None:
            return True
        if isinstance(node, ast.Name) and node.id == "BaseException":
            return True
        if isinstance(node, ast.Tuple):
            return any(_Builder._is_catch_all_type(el) for el in node.elts)
        return False

    def _try(self, stmt: ast.Try, frontier: _Frontier, ctx: _Ctx) -> _Frontier:
        has_finally = bool(stmt.finalbody)
        head = self._new("join")  # try header: one place to hang the
        self._connect(frontier, head.uid)  # "body may raise" edges
        pending: Dict[str, bool] = {}
        f_entry: Optional[CFGNode] = None
        f_tail: _Frontier = []
        if has_finally:
            f_entry = self._new("finally", stmt)
            # The finally body runs under the *outer* context.
            f_tail = self._stmts(stmt.finalbody, [(f_entry.uid, "normal")], ctx)
            # Entered with a pending exception -> re-raise after it runs.
            for uid, _kind in f_tail:
                for target in ctx.exc_targets:
                    self.nodes[uid].succs.append((target, "exception"))

        inner_exc = (f_entry.uid,) if has_finally else ctx.exc_targets
        inner_ctx = _Ctx(
            exc_targets=inner_exc,
            return_tgt=(self._detour(ctx.return_tgt, f_entry, "return",
                                     pending) if has_finally
                        else ctx.return_tgt),
            break_tgt=(self._detour(ctx.break_tgt, f_entry, "break", pending)
                       if has_finally else ctx.break_tgt),
            continue_tgt=(self._detour(ctx.continue_tgt, f_entry, "continue",
                                       pending) if has_finally
                          else ctx.continue_tgt),
        )

        handler_nodes = [self._new("except", h) for h in stmt.handlers]
        handler_uids = tuple(n.uid for n in handler_nodes)
        # A raise in the body may match a handler or (no exception-type
        # modelling) escape them all: edge to every handler *and* to the
        # finally/outer targets.  Exception: a bare ``except:`` or
        # ``except BaseException:`` catches everything, so nothing
        # escapes the handler list.
        catch_all = any(self._is_catch_all_type(h.type)
                        for h in stmt.handlers)
        body_exc = handler_uids if catch_all else handler_uids + inner_exc
        body_ctx = replace(inner_ctx, exc_targets=body_exc)
        # Conservative "the body may raise even if we can't see how" —
        # keeps every handler reachable (e.g. `try: pass except: ...`).
        # Only the handlers: finally/outer are reachable via normal
        # flow or real raise sites, and a phantom header->exit edge
        # would fabricate paths that skip the whole body.
        for target in handler_uids:
            head.succs.append((target, "exception"))

        tail = self._stmts(stmt.body, [(head.uid, "normal")], body_ctx)
        if stmt.orelse:
            tail = self._stmts(stmt.orelse, tail, inner_ctx)
        for h_node in handler_nodes:
            tail += self._stmts(h_node.stmt.body, [(h_node.uid, "normal")],
                                inner_ctx)
        if has_finally:
            self._connect(tail, f_entry.uid)
            self._resolve_detours(f_tail, ctx, pending)
            return list(f_tail)
        return tail

    # -- escape detours through finally / with-exit --------------------
    def _detour(self, esc: Optional[_Escape], via: CFGNode, key: str,
                pending: Dict[str, bool]) -> Optional[_Escape]:
        """Route an escaping jump through ``via`` (a finally entry or a
        with-exit); record that ``via``'s tail must forward it."""
        if esc is None:
            return None
        pending.setdefault(key, False)

        def notify() -> None:
            pending[key] = True

        return _Escape(via.uid, notify)

    def _resolve_detours(self, tail: _Frontier, ctx: _Ctx,
                         pending: Dict[str, bool]) -> None:
        targets = {"return": ctx.return_tgt, "break": ctx.break_tgt,
                   "continue": ctx.continue_tgt}
        for key, fired in pending.items():
            esc = targets[key]
            if fired and esc is not None:
                for uid, _kind in tail:
                    self.nodes[uid].succs.append((esc.uid, "normal"))
                esc.notify()


def build_cfg(func: ast.AST) -> CFG:
    """CFG of one ``ast.FunctionDef`` / ``ast.AsyncFunctionDef``."""
    return _Builder().build(func)


def function_cfgs(tree: ast.AST) -> List[CFG]:
    """One CFG per function definition anywhere in ``tree`` (nested
    functions get their own graph; their bodies are opaque single
    statements in the enclosing one)."""
    return [
        build_cfg(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


# ----------------------------------------------------------------------
# Forward worklist solver
# ----------------------------------------------------------------------
def solve_forward(
    cfg: CFG,
    init: Any,
    transfer: Callable[[CFGNode, Any], Tuple[Any, Any]],
    join: Callable[[Any, Any], Any],
    max_steps: Optional[int] = None,
) -> Dict[int, Any]:
    """Fixpoint of a forward dataflow problem; returns node in-states.

    ``transfer(node, in_state) -> (normal_out, exception_out)`` — the
    second state flows along ``"exception"`` edges (pre-effect
    semantics live in the pass's transfer, not here).  ``join(a, b)``
    merges states at confluence points and must be monotone; states
    are compared with ``==`` for the change test.  A step budget
    (generous for any finite lattice) guards against non-termination
    and raises :class:`SolverDivergence` when exhausted.
    """
    limit = max_steps if max_steps is not None else 5000 + 200 * len(cfg.nodes)
    in_states: Dict[int, Any] = {cfg.entry: init}
    work = deque([cfg.entry])
    steps = 0
    while work:
        steps += 1
        if steps > limit:
            raise SolverDivergence(
                f"{cfg.name}: no fixpoint after {limit} worklist steps"
            )
        uid = work.popleft()
        node = cfg.nodes[uid]
        normal_out, exc_out = transfer(node, in_states[uid])
        for succ, kind in node.succs:
            incoming = exc_out if kind == "exception" else normal_out
            if succ in in_states:
                merged = join(in_states[succ], incoming)
            else:
                merged = incoming
            if succ not in in_states or merged != in_states[succ]:
                in_states[succ] = merged
                if succ not in work:
                    work.append(succ)
    return in_states


# ----------------------------------------------------------------------
# Shared AST helpers for the flow passes
# ----------------------------------------------------------------------
def header_roots(node: CFGNode) -> List[ast.AST]:
    """Expressions evaluated *by this node*.  For compound statements
    only the header part (the test, the iterator, the context items) —
    bodies have their own nodes; a ``with-exit`` node evaluates nothing
    itself (``__exit__`` effects are the pass's job)."""
    stmt = node.stmt
    if stmt is None or node.kind in ("with-exit", "finally", "except"):
        return []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def escaping_loads(root: ast.AST, tracked: Iterable[str]) -> set:
    """Names from ``tracked`` that *escape* in ``root``: loaded anywhere
    except as the receiver of an attribute access / subscript
    (``x.close()``, ``x.buf``, ``x[i]`` keep ``x`` local; ``f(x)``,
    ``return x``, ``y = x``, ``[x]`` hand the object away, so the
    analysis must stop tracking it)."""
    names = set(tracked)
    out: set = set()

    def visit(node: ast.AST, receiver: bool = False) -> None:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id in names \
                    and not receiver:
                out.add(node.id)
            return
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            visit(node.value, receiver=True)
            if isinstance(node, ast.Subscript):
                visit(node.slice, False)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, False)

    visit(root)
    return out
