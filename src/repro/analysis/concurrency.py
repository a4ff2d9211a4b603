"""Concurrency passes: discarded timed waits and lock bodies.

``transport.py`` is ~1.6k lines of locks, condvars and sender threads,
and its one shipped concurrency bug (PR 4's discarded
``thread.join(timeout)``) had exactly the shape these passes check for:

``discarded-result``
    ``Event.wait(timeout)`` and ``poll(timeout)`` *return* whether they
    succeeded; ``Thread.join(timeout)`` returns nothing, so a timed
    join proves nothing unless ``is_alive()`` is consulted afterwards.
    A timed blocking call whose outcome is dropped is a hang silently
    reclassified as success.

``blocking-in-lock``
    A potentially-blocking call inside a ``with <lock>:`` body stalls
    every thread contending for that lock for the full block duration.
    Where that is the *point* (serialising two threads on one pipe with
    a bounded backstop poll), waive the whole block with
    ``# repro-lint: ignore[blocking-in-lock]`` on the ``with`` line and
    say why in the comment.

Lock *order* has no checker: the shm endpoint's per-pipe doorbell
locks are taken one at a time, and a transport's launch lock is only
ever taken without blocking, so no acquisition order can deadlock.
"""

from __future__ import annotations

import ast
import re
from typing import List

from .engine import Diagnostic, LintPass, SourceModule, register_pass

__all__ = [
    "DiscardedResultPass",
    "BlockingInLockPass",
]

_LOCKISH_RE = re.compile(r"lock", re.IGNORECASE)


class DiscardedResultPass(LintPass):
    rule = "discarded-result"
    title = "timed blocking calls prove their outcome"
    description = (
        "Event.wait(timeout)/poll(timeout) results must be consumed, and "
        "a bare Thread.join(timeout) needs an is_alive() check"
    )

    _HINT_WAIT = (
        "consume the boolean (e.g. 'if not x.wait(t): raise') — a timed "
        "wait that may have timed out is not a wait"
    )
    _HINT_JOIN = (
        "check is_alive() after a timed join (or raise through a "
        "completion handle) — join(timeout) returns None either way"
    )

    def run(self, module: SourceModule) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        self._visit(module, module.tree, out, enclosing_text="")
        return out

    def _visit(self, module, node, out, enclosing_text):
        for child in ast.iter_child_nodes(node):
            text = enclosing_text
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                text = module.segment(child)
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Call):
                call = child.value
                func = call.func
                timed = bool(call.args or call.keywords)
                if isinstance(func, ast.Attribute) and timed:
                    if func.attr in ("wait", "poll"):
                        out.append(self.diag(
                            module, child,
                            f"result of timed .{func.attr}() discarded",
                            self._HINT_WAIT,
                        ))
                    elif func.attr == "join" and "is_alive" not in text:
                        out.append(self.diag(
                            module, child,
                            "timed .join() with no is_alive() check in the "
                            "enclosing function — a hang is silently "
                            "reclassified as completion",
                            self._HINT_JOIN,
                        ))
            self._visit(module, child, out, text)


class BlockingInLockPass(LintPass):
    rule = "blocking-in-lock"
    title = "no blocking calls while holding a shared lock"
    description = (
        "recv/join/acquire/get/wait inside a 'with <lock>:' body stall "
        "every contender; waive deliberate designs on the with line"
    )

    _BLOCKING = (
        "recv", "recv_bytes", "get", "join", "acquire", "wait", "poll",
        "send", "send_bytes",
    )
    _HINT = (
        "move the blocking call outside the lock body, or waive the "
        "block with '# repro-lint: ignore[blocking-in-lock]' on the "
        "'with' line plus the reason the stall is bounded"
    )

    def run(self, module: SourceModule) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.With):
                continue
            lockish = [
                item for item in node.items
                if _LOCKISH_RE.search(module.segment(item.context_expr))
            ]
            if not lockish:
                continue
            # Block-scoped waiver: an ignore on the `with` line covers
            # the whole body (one justification for one design).
            if module.is_suppressed(node.lineno, self.rule):
                continue
            for body_stmt in node.body:
                for sub in ast.walk(body_stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in self._BLOCKING
                    ):
                        receiver = module.segment(sub.func.value)
                        out.append(self.diag(
                            module, sub,
                            f"potentially blocking {receiver}."
                            f"{sub.func.attr}() while holding "
                            f"{module.segment(lockish[0].context_expr)}",
                            self._HINT,
                        ))
        return out


register_pass(DiscardedResultPass())
register_pass(BlockingInLockPass())
