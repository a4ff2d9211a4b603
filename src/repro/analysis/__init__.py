"""Static analysis + runtime sanitizers for the repo's invariants.

Submodules:

* :mod:`repro.analysis.engine` — AST pass framework, diagnostics,
  registry, inline waivers.
* :mod:`repro.analysis.dataflow` — the intraprocedural CFG builder and
  forward worklist solver the flow-sensitive passes run on.
* :mod:`repro.analysis.passes` — dtype-width, metering, kernel-purity
  and determinism passes.
* :mod:`repro.analysis.concurrency` — discarded-result and
  blocking-in-lock passes.
* :mod:`repro.analysis.lifecycle` — the flow-sensitive resource-
  lifecycle pass (close/unlink/release on every path, raise paths
  included).
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
    collect_modules,
    get_passes,
    pass_names,
    register_pass,
    run_passes,
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
    "build_cfg",
    "collect_modules",
    "function_cfgs",
    "get_passes",
    "install_protocol_sanitizer",
    "install_schedule_sanitizer",
    "locks_enabled",
    "make_lock",
    "pass_names",
    "protocol_enabled",
    "protocol_for_class",
    "register_pass",
    "run_lint",
    "run_passes",
    "schedule_enabled",
    "solve_forward",
    "wrap_protocol",
]
