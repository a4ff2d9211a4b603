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
* :mod:`repro.analysis.sanitizer` — the opt-in runtime checker, the
  schedule explorer (``REPRO_SANITIZE=schedule``), for cross-rank
  message matching, deadlock and leaked exchange handles.
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
    ScheduleError,
    ScheduleExplorer,
    install_schedule_sanitizer,
    schedule_enabled,
)

__all__ = [
    "CFG",
    "CFGError",
    "CFGNode",
    "DeadlockError",
    "Diagnostic",
    "FlowPass",
    "LintPass",
    "ScheduleError",
    "ScheduleExplorer",
    "SolverDivergence",
    "SourceModule",
    "build_cfg",
    "collect_modules",
    "function_cfgs",
    "get_passes",
    "install_schedule_sanitizer",
    "pass_names",
    "register_pass",
    "run_lint",
    "run_passes",
    "schedule_enabled",
    "solve_forward",
]
