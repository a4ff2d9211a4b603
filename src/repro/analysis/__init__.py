"""Static analysis + runtime sanitizers for the repo's invariants.

Submodules:

* :mod:`repro.analysis.engine` — AST pass framework, diagnostics,
  registry, committed baseline.
* :mod:`repro.analysis.dataflow` — the intraprocedural CFG builder and
  forward worklist solver the flow-sensitive passes run on.
* :mod:`repro.analysis.passes` — dtype-width, metering, kernel-purity
  and determinism passes.
* :mod:`repro.analysis.concurrency` — discarded-result and
  blocking-in-lock passes.
* :mod:`repro.analysis.lifecycle` — flow-sensitive resource-lifecycle
  and exception-safety passes (close/unlink/release on every path).
* :mod:`repro.analysis.sanitizer` — the opt-in runtime checkers, one
  per property: lock order (``REPRO_SANITIZE=locks``), the transport
  protocol tables and the typestate proxies that read them
  (``REPRO_SANITIZE=protocol``), and the schedule explorer
  (``REPRO_SANITIZE=schedule``) for cross-rank message matching,
  deadlock and leaked exchange handles.
* :mod:`repro.analysis.lint` — the ``repro lint`` CLI.
"""

from .dataflow import (
    CFG,
    CFGError,
    CFGNode,
    SolverDivergence,
    build_cfg,
    function_cfgs,
    solve_forward,
)
from .engine import (
    Diagnostic,
    FlowPass,
    LintPass,
    SourceModule,
    baseline_keys,
    collect_modules,
    diff_against_baseline,
    get_passes,
    load_baseline,
    pass_names,
    register_pass,
    run_passes,
    save_baseline,
)
from .lint import run_lint
from .sanitizer import (
    DeadlockError,
    PROTOCOLS,
    LockOrderError,
    Protocol,
    ProtocolError,
    SanitizedLock,
    ScheduleError,
    ScheduleExplorer,
    TypestateProxy,
    install_protocol_sanitizer,
    install_schedule_sanitizer,
    locks_enabled,
    make_lock,
    protocol_enabled,
    protocol_for_class,
    schedule_enabled,
    wrap_protocol,
)

__all__ = [
    "CFG",
    "CFGError",
    "CFGNode",
    "DeadlockError",
    "Diagnostic",
    "FlowPass",
    "LintPass",
    "LockOrderError",
    "PROTOCOLS",
    "Protocol",
    "ProtocolError",
    "SanitizedLock",
    "ScheduleError",
    "ScheduleExplorer",
    "SolverDivergence",
    "SourceModule",
    "TypestateProxy",
    "baseline_keys",
    "build_cfg",
    "collect_modules",
    "diff_against_baseline",
    "function_cfgs",
    "get_passes",
    "install_protocol_sanitizer",
    "install_schedule_sanitizer",
    "load_baseline",
    "locks_enabled",
    "make_lock",
    "pass_names",
    "protocol_enabled",
    "protocol_for_class",
    "register_pass",
    "run_lint",
    "run_passes",
    "save_baseline",
    "schedule_enabled",
    "solve_forward",
    "wrap_protocol",
]
