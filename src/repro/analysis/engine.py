"""The invariant lint engine: AST passes, diagnostics, registry.

The repo's load-bearing invariants — the byte ledger meters exactly
what ships, scalar widths flow through
:func:`~repro.tensor.dtype.scalar_nbytes` instead of hard-coded
``4``/``8`` constants, split-SpMM kernels go through the
:mod:`repro.tensor.kernels` registry, timed waits are never silently
discarded — used to be enforced only by the tests that broke *after*
a violation shipped.  This module enforces them *before*: each
invariant is a :class:`LintPass` that walks a file's AST and emits
:class:`Diagnostic` records with a file, line, rule id and a fix hint.

The machinery mirrors the kernel-backend registry idiom
(:mod:`repro.tensor.kernels`): passes are tiny named singletons in a
module-level registry (:func:`register_pass` / :func:`pass_names` /
:func:`get_passes`), so a new invariant is one class + one
registration, and the CLI / pytest self-check / CI pick it up without
further wiring.

Two mechanisms keep the engine honest on a real tree:

* **layer markers** — a file declares the privileged layer it
  implements with a ``# repro-lint: layer=<name>`` comment (the
  endpoint layer is allowed raw pipe calls, the kernel layer raw CSR
  matmuls).  Passes consult :attr:`SourceModule.layers` instead of
  hard-coding paths, so moving a file never silently widens a rule.
* **inline suppressions** — ``# repro-lint: ignore[rule-id]`` on the
  offending line (or on a ``with`` statement, for block-scoped rules)
  waives one finding, with the justification sitting right next to it
  in the diff.  It is the only way to accept a finding: every other
  finding fails the run, so a finding is either fixed or waived at
  its line.
"""

from __future__ import annotations

import ast
import hashlib
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Diagnostic",
    "FlowPass",
    "LintPass",
    "SourceModule",
    "collect_modules",
    "get_passes",
    "pass_names",
    "register_pass",
    "run_passes",
]

#: Default lint targets, relative to the repo root.
DEFAULT_TARGETS = ("src", "benchmarks")

_MARKER_RE = re.compile(r"#\s*repro-lint:\s*(?P<body>[^\n]*)")
_IGNORE_RE = re.compile(r"ignore(?:\[(?P<rules>[\w\-, ]*)\])?")
_LAYER_RE = re.compile(r"layer=(?P<layer>[\w\-]+)")

#: Sentinel meaning "every rule" in a suppression entry.
ALL_RULES = "*"

#: Parse/CFG caches, keyed by (repo-relative path, content hash): one
#: lint invocation runs many pass families over the same files, and
#: the pytest self-checks lint the tree repeatedly — identical content
#: is parsed and CFG-built exactly once per process.
_MODULE_CACHE: Dict[Tuple[str, str], "SourceModule"] = {}
_CFG_CACHE: Dict[Tuple[str, str], list] = {}


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, which invariant, what to do about it."""

    path: str  # repo-relative posix path
    line: int  # 1-based
    col: int  # 0-based
    rule: str  # pass rule id, e.g. "dtype-width"
    message: str
    hint: str = ""  # how to fix (or how to suppress with a reason)

    def format(self) -> str:
        loc = f"{self.path}:{self.line}:{self.col + 1}"
        out = f"{loc}: [{self.rule}] {self.message}"
        if self.hint:
            out += f"\n    hint: {self.hint}"
        return out


# ----------------------------------------------------------------------
# Source model
# ----------------------------------------------------------------------
class SourceModule:
    """One parsed file plus its lint metadata (layers, suppressions)."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        #: Content identity: parse and CFG caches key on this, so an
        #: edited file is re-analyzed and an untouched one never is.
        self.content_hash = hashlib.sha256(text.encode()).hexdigest()
        self._cfgs = None
        self.layers: Set[str] = set()
        #: line number -> set of waived rule ids (or {ALL_RULES}).
        self.suppressions: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            m = _MARKER_RE.search(line)
            if not m:
                continue
            body = m.group("body")
            lm = _LAYER_RE.search(body)
            if lm:
                self.layers.add(lm.group("layer"))
            im = _IGNORE_RE.search(body)
            if im:
                rules = im.group("rules")
                if rules:
                    waived = {r.strip() for r in rules.split(",") if r.strip()}
                else:
                    waived = {ALL_RULES}
                self.suppressions.setdefault(
                    self._anchor_line(lineno), set()
                ).update(waived)

    def _anchor_line(self, lineno: int) -> int:
        """The code line a marker applies to: its own line, or — when
        the marker sits on a comment-only line (possibly the first of a
        comment block) — the next non-comment, non-blank line below."""
        if not self.lines[lineno - 1].lstrip().startswith("#"):
            return lineno
        for nxt in range(lineno + 1, len(self.lines) + 1):
            stripped = self.lines[nxt - 1].strip()
            if stripped and not stripped.startswith("#"):
                return nxt
        return lineno

    def function_cfgs(self):
        """The module's per-function CFGs, built once per content hash
        (flow passes used to rebuild them per pass family)."""
        if self._cfgs is None:
            cached = _CFG_CACHE.get((self.path, self.content_hash))
            if cached is None:
                from .dataflow import function_cfgs

                cached = list(function_cfgs(self.tree))
                _CFG_CACHE[(self.path, self.content_hash)] = cached
            self._cfgs = cached
        return self._cfgs

    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, file_path: Path, root: Path) -> "SourceModule":
        rel = file_path.resolve().relative_to(root.resolve()).as_posix()
        text = file_path.read_text()
        key = (rel, hashlib.sha256(text.encode()).hexdigest())
        cached = _MODULE_CACHE.get(key)
        if cached is None:
            cached = cls(rel, text)
            _MODULE_CACHE[key] = cached
        return cached

    @classmethod
    def from_source(cls, text: str, path: str = "<snippet>") -> "SourceModule":
        """Parse a source string — the fixture-test entry point."""
        return cls(path, text)

    # ------------------------------------------------------------------
    def segment(self, node: ast.AST) -> str:
        """Source text of ``node`` (empty when unavailable)."""
        return ast.get_source_segment(self.text, node) or ""

    def is_suppressed(self, lineno: int, rule: str) -> bool:
        waived = self.suppressions.get(lineno)
        return bool(waived) and (rule in waived or ALL_RULES in waived)

    def has_layer(self, layer: str) -> bool:
        return layer in self.layers


# ----------------------------------------------------------------------
# Pass interface and registry (the kernel-backend idiom)
# ----------------------------------------------------------------------
class LintPass:
    """One named invariant check over a :class:`SourceModule`.

    Subclasses set :attr:`rule` (the kebab-case id diagnostics and
    suppressions use) and implement :meth:`run`.  The shared
    :meth:`diag` helper stamps the path/line/col so every
    pass reports identically.
    """

    rule: str = "base"
    title: str = ""
    description: str = ""

    def run(self, module: SourceModule) -> List[Diagnostic]:
        raise NotImplementedError

    def diag(self, module: SourceModule, node: ast.AST, message: str,
             hint: str = "") -> Diagnostic:
        return Diagnostic(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule,
            message=message,
            hint=hint,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rule={self.rule!r})"


class FlowPass(LintPass):
    """A flow-sensitive pass: one CFG per function instead of raw AST.

    The engine builds a :class:`~repro.analysis.dataflow.CFG` for every
    function in the module and hands each to :meth:`run_cfg`; passes
    express their invariant as a transfer function over
    :func:`~repro.analysis.dataflow.solve_forward` instead of a
    pattern match.  Registration and suppressions are identical to
    plain passes.
    """

    def run(self, module: SourceModule) -> List[Diagnostic]:
        findings: List[Diagnostic] = []
        for cfg in module.function_cfgs():
            findings.extend(self.run_cfg(module, cfg))
        return findings

    def run_cfg(self, module: SourceModule, cfg) -> List[Diagnostic]:
        raise NotImplementedError


_REGISTRY: Dict[str, LintPass] = {}


def register_pass(lint_pass: LintPass) -> LintPass:
    """Add a pass to the registry (later rule ids shadow earlier)."""
    _REGISTRY[lint_pass.rule] = lint_pass
    return lint_pass


def pass_names() -> Tuple[str, ...]:
    """Registered rule ids, in registration order."""
    _ensure_builtin_passes()
    return tuple(_REGISTRY)


def get_passes(names: Optional[Iterable[str]] = None) -> List[LintPass]:
    """Resolve a selection of passes (all registered when omitted); a
    repeated id selects its pass once, at its first position."""
    _ensure_builtin_passes()
    if names is None:
        return list(_REGISTRY.values())
    selected = []
    for name in dict.fromkeys(names):
        if name not in _REGISTRY:
            raise KeyError(
                f"unknown lint pass {name!r}; registered: "
                + ", ".join(_REGISTRY)
            )
        selected.append(_REGISTRY[name])
    return selected


def _ensure_builtin_passes() -> None:
    """Import the built-in pass modules (they self-register on import,
    like the kernel backends do)."""
    from . import (  # noqa: F401
        concurrency,
        lifecycle,
        passes,
    )


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def collect_modules(
    root: Path, targets: Sequence[str] = DEFAULT_TARGETS
) -> List[SourceModule]:
    """Parse each target file and every ``*.py`` under each target
    directory of ``root``; absent targets are skipped."""
    root = Path(root)
    modules: List[SourceModule] = []
    for target in targets:
        base = root / target
        if base.is_file():
            modules.append(SourceModule.from_file(base, root))
            continue
        if not base.exists():
            continue
        for file_path in sorted(base.rglob("*.py")):
            modules.append(SourceModule.from_file(file_path, root))
    return modules


def run_passes(
    modules: Iterable[SourceModule],
    passes: Optional[Sequence[LintPass]] = None,
    timings: Optional[List[Tuple[str, float]]] = None,
) -> List[Diagnostic]:
    """Run ``passes`` over ``modules``; suppressed findings are dropped
    centrally so every pass gets the waiver semantics for free.  When
    ``timings`` is a list, per-pass wall seconds are appended to it
    (the ``--profile`` plumbing)."""
    if passes is None:
        passes = get_passes()
    modules = list(modules)
    by_path = {m.path: m for m in modules}
    findings: List[Diagnostic] = []

    def keep(diagnostic: Diagnostic) -> bool:
        owner = by_path.get(diagnostic.path)
        return owner is None or not owner.is_suppressed(
            diagnostic.line, diagnostic.rule
        )

    for lint_pass in passes:
        started = time.perf_counter()
        for module in modules:
            findings.extend(d for d in lint_pass.run(module) if keep(d))
        if timings is not None:
            timings.append(
                (lint_pass.rule, time.perf_counter() - started)
            )
    findings.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return findings
