"""The three cross-rank communication lint passes.

``comm-matching``, ``comm-deadlock`` and ``comm-exchange`` surface the
:mod:`repro.analysis.commgraph` verification results through the
ordinary engine machinery — registry, suppressions, baseline, every
``--format``.  All three are ``project_wide`` and share one cached
analysis run (keyed by the content hashes of the analyzed modules), so
adding a rule costs nothing at lint time.

Entry points come from two places:

* **defaults** — when the analyzed set contains the real executor /
  transport / trainer modules, their canonical entries are verified:
  ``_run_rank`` under both schedules, ``Endpoint.allreduce`` under
  ring and tree, and the in-process ``_train_epoch`` body once per
  simulated trainer class (synchronous, pipelined, GAT): resolved
  through the class's MRO and interpreted with that class as the
  receiver, so a subclass's overridden steps are verified.  A
  default entry whose module is present but whose function has been
  renamed away is itself a finding — silent loss of verification
  coverage is the failure mode this pass exists to prevent.
* **markers** — a ``comm-entry`` lint marker comment on (or directly
  above) a ``def`` declares a ``LocalTransport.launch``-style worker
  ``(ep, payload)`` as an entry; the violation fixtures under
  ``tests/analysis/comm_fixtures/`` use this, and so can any
  experimental driver.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .commgraph import CommFinding, EntrySpec, analyze_entry
from .engine import Diagnostic, LintPass, SourceModule, register_pass
from .summaries import ProgramIndex

__all__ = [
    "CommDeadlockPass",
    "CommExchangePass",
    "CommMatchingPass",
    "analyze_modules",
    "discover_entries",
]

_ENTRY_RE = re.compile(r"#\s*repro-lint:\s*comm-entry\b")

#: Default entries: (label, module-path suffix, function, class, kind,
#: config).  Missing suffix -> entry silently skipped (partial lint
#: targets); present suffix + missing function -> finding.  With a
#: class, the suffix names the module declaring the *class*; the method
#: may be inherited from any analyzed base.
_DEFAULT_ENTRIES: Tuple[Tuple[str, str, str, Optional[str], str, dict], ...] = (
    ("run-rank-synchronous", "repro/dist/executor.py", "_run_rank", None,
     "rank_task", {"schedule": "synchronous"}),
    ("run-rank-pipelined", "repro/dist/executor.py", "_run_rank", None,
     "rank_task", {"schedule": "pipelined"}),
    ("allreduce-ring", "repro/dist/transport.py", "allreduce", "Endpoint",
     "allreduce", {"algorithm": "ring"}),
    ("allreduce-tree", "repro/dist/transport.py", "allreduce", "Endpoint",
     "allreduce", {"algorithm": "tree"}),
    ("trainer-synchronous", "repro/core/trainer.py", "_train_epoch",
     "DistributedTrainer", "single", {}),
    ("trainer-pipelined", "repro/core/pipeline.py", "_train_epoch",
     "PipelinedTrainer", "single", {}),
    ("trainer-gat", "repro/core/gat_trainer.py", "_train_epoch",
     "DistributedGATTrainer", "single", {}),
)


def discover_entries(
    program: ProgramIndex,
) -> Tuple[List[EntrySpec], List[CommFinding]]:
    """Default + marker-declared entry points over the analyzed set."""
    entries: List[EntrySpec] = []
    findings: List[CommFinding] = []
    paths = {m.path for m in program.modules}

    for label, suffix, fname, cls, kind, config in _DEFAULT_ENTRIES:
        module_path = next((p for p in paths if p.endswith(suffix)), None)
        if module_path is None:
            continue
        if cls is not None:
            owner = program.classes.get(cls)
            info = None
            if owner is not None and owner.module.path.endswith(suffix):
                info = program.lookup_method(cls, fname)
                if info is None and any(
                    base not in program.classes for base in owner.bases
                ):
                    continue  # inherited from outside a partial lint target
        else:
            info = program.find_function(fname, suffix)
        if info is None:
            findings.append(CommFinding(
                rule="comm-matching",
                site=(module_path, 1, 0),
                message=(
                    f"expected communication entry point "
                    f"{cls + '.' if cls else ''}{fname} is missing from "
                    "this module — the cross-rank verification it "
                    "anchored no longer runs"
                ),
                hint="restore the function or update _DEFAULT_ENTRIES "
                     "in repro.analysis.commcheck alongside the rename",
            ))
            continue
        config = dict(config)
        if kind == "single":
            # Interpret the (possibly inherited) body as `cls` runs it.
            config["receiver"] = cls
        entries.append(EntrySpec(name=label, func=info, kind=kind,
                                 config=config))

    for module in program.modules:
        for lineno, line in enumerate(module.lines, start=1):
            if not _ENTRY_RE.search(line):
                continue
            # Only genuine comments declare entries — a docstring that
            # *mentions* the marker (this module's own does) must not.
            before = line[:_ENTRY_RE.search(line).start()].strip()
            if before and "def " not in before:
                continue
            anchor = module._anchor_line(lineno)
            info = _function_at(program, module, anchor)
            if info is None:
                findings.append(CommFinding(
                    rule="comm-matching",
                    site=(module.path, lineno, 0),
                    message="comm-entry marker does not anchor to a "
                            "function definition",
                    hint="place the marker on (or directly above) the "
                         "def line of a worker(ep, payload) function",
                ))
                continue
            entries.append(EntrySpec(
                name=f"entry:{info.name}", func=info, kind="worker",
            ))
    return entries, findings


def _function_at(program: ProgramIndex, module: SourceModule,
                 lineno: int):
    for info in program.functions.values():
        if info.module is not module:
            continue
        node = info.node
        decorated_from = min(
            [node.lineno] + [d.lineno for d in node.decorator_list]
        )
        if decorated_from <= lineno <= node.body[0].lineno:
            return info
    return None


# ----------------------------------------------------------------------
# Shared, cached analysis
# ----------------------------------------------------------------------
_CACHE: Dict[Tuple[Tuple[str, str], ...], "AnalysisResult"] = {}


class AnalysisResult:
    def __init__(self) -> None:
        self.findings: List[CommFinding] = []
        self.entry_info: List[Dict[str, object]] = []


def analyze_modules(modules: Sequence[SourceModule]) -> AnalysisResult:
    """Run (or fetch) the full comm analysis for this module set."""
    key = tuple(sorted((m.path, m.content_hash) for m in modules))
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    result = AnalysisResult()
    program = ProgramIndex(modules)
    entries, findings = discover_entries(program)
    result.findings.extend(findings)
    for entry in entries:
        entry_findings, info = analyze_entry(program, entry)
        result.findings.extend(entry_findings)
        result.entry_info.append(info)
    _CACHE.clear()  # one live tree at a time is the realistic shape
    _CACHE[key] = result
    return result


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class _CommPassBase(LintPass):
    project_wide = True

    def run_project(
        self, modules: Sequence[SourceModule]
    ) -> List[Diagnostic]:
        by_path = {m.path: m for m in modules}
        result = analyze_modules(modules)
        diagnostics: List[Diagnostic] = []
        for finding in result.findings:
            if finding.rule != self.rule:
                continue
            path, line, col = finding.site
            module = by_path.get(path)
            diagnostics.append(Diagnostic(
                path=path, line=line, col=col, rule=self.rule,
                message=finding.message, hint=finding.hint,
                line_text=module.line_text(line) if module else "",
            ))
        return diagnostics


class CommMatchingPass(_CommPassBase):
    rule = "comm-matching"
    title = "every message finds a matching recv with the same tag"
    description = (
        "Composes interprocedural comm summaries per rank (world sizes "
        "2-4) and matches sends against receives over FIFO channels; "
        "reports tag disagreements (naming both sites) and messages "
        "no rank ever receives."
    )


class CommDeadlockPass(_CommPassBase):
    rule = "comm-deadlock"
    title = "no blocking-op cycles or rank-divergent collectives"
    description = (
        "Simulates the composed per-rank sequences under rendezvous-"
        "send semantics: wait-for cycles among blocking ops, blocking "
        "on a finished rank, and collectives whose order, tag or "
        "participation differs across ranks are deadlocks."
    )


class CommExchangePass(_CommPassBase):
    rule = "comm-exchange"
    title = "posted exchange handles are always completed"
    description = (
        "Tracks ExchangeHandle values interprocedurally: a handle "
        "posted but never passed to complete_exchange before its rank "
        "returns (e.g. escaping via a helper's return value) leaks its "
        "deferred receives."
    )


register_pass(CommMatchingPass())
register_pass(CommDeadlockPass())
register_pass(CommExchangePass())
