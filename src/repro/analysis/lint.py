"""``repro lint`` — run the invariant passes over the tree.

Usage (via the top-level CLI)::

    repro lint                      # lint src/ + benchmarks/, text report
    repro lint --format github      # ::error annotations for Actions
    repro lint --format sarif       # SARIF 2.1.0 log for code scanning
    repro lint --list-passes        # rule catalogue
    repro lint --select dtype-width,blocking-in-lock src/repro/dist

Every finding fails the run; the one way to accept a finding is an
inline ``# repro-lint: ignore[rule-id]`` waiver at its line.

Exit codes: 0 clean, 1 findings, 2 usage/parse errors — including a
named target that does not exist and a run that collects no module at
all (a mistyped target or ``--root``), so a mistyped CI path cannot
pass green by linting nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import (
    DEFAULT_TARGETS,
    Diagnostic,
    collect_modules,
    get_passes,
    run_passes,
)

__all__ = ["build_parser", "main", "run_lint"]


def run_lint(
    root: Path,
    targets: Sequence[str] = DEFAULT_TARGETS,
    select: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Collect + run: the programmatic entry point (tests use this)."""
    modules = collect_modules(Path(root), targets)
    return run_passes(modules, get_passes(select))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checks for this repository.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=None,
        help="directories/files to lint, relative to --root "
        f"(default: {' '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root (default: current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github", "sarif"),
        default="text",
        help="report format (default: text); `github` emits Actions "
        "::error annotations that render inline on PRs, `sarif` emits "
        "a SARIF 2.1.0 log for code-scanning upload",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-pass wall time to stderr (machine formats on "
        "stdout stay parseable)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="print the registered pass catalogue and exit",
    )
    return parser


def _escape_data(text: str) -> str:
    """GitHub Actions workflow-command escaping for the message part."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _escape_property(text: str) -> str:
    """Escaping for the ``key=value`` property part (also , and :)."""
    return _escape_data(text).replace(":", "%3A").replace(",", "%2C")


def _github_annotation(diagnostic: Diagnostic) -> str:
    """One ``::error`` workflow command — GitHub renders it inline on
    the PR diff at the offending line."""
    message = diagnostic.message
    if diagnostic.hint:
        message += f"\nhint: {diagnostic.hint}"
    return (
        f"::error file={_escape_property(diagnostic.path)},"
        f"line={diagnostic.line},col={diagnostic.col + 1},"
        f"title={_escape_property('repro lint [' + diagnostic.rule + ']')}"
        f"::{_escape_data(message)}"
    )


def _sarif_payload(findings, passes) -> dict:
    """A SARIF 2.1.0 log: rule metadata straight from the pass
    registry, one result per finding (waived findings are dropped
    upstream, matching every other format)."""
    rules = [
        {
            "id": p.rule,
            "name": p.rule.replace("-", " ").title().replace(" ", ""),
            "shortDescription": {"text": p.title or p.rule},
            "fullDescription": {"text": p.description or p.title or p.rule},
            "defaultConfiguration": {"level": "error"},
        }
        for p in passes
    ]
    rule_index = {p.rule: i for i, p in enumerate(passes)}
    results = []
    for d in findings:
        message = d.message + (f"\nhint: {d.hint}" if d.hint else "")
        results.append({
            "ruleId": d.rule,
            "ruleIndex": rule_index.get(d.rule, -1),
            "level": "error",
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": d.path},
                    "region": {
                        "startLine": d.line,
                        "startColumn": d.col + 1,
                    },
                },
            }],
        })
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://example.invalid/repro-lint",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_passes:
        for lint_pass in get_passes():
            print(f"{lint_pass.rule:<18} {lint_pass.title}")
            if lint_pass.description:
                print(f"{'':<18}   {lint_pass.description}")
        return 0

    root = Path(args.root).resolve()
    targets = list(args.targets or ())
    if targets:
        missing = [t for t in targets if not (root / t).exists()]
        if missing:
            print(f"repro lint: error: no such target under {root}: "
                  + ", ".join(missing), file=sys.stderr)
            return 2
    else:
        targets = list(DEFAULT_TARGETS)
    select = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]

    try:
        modules = collect_modules(root, targets)
        passes = get_passes(select)
        timings: List = []
        findings = run_passes(modules, passes,
                              timings=timings if args.profile else None)
    except (SyntaxError, KeyError, OSError) as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    if not modules:
        print(f"repro lint: error: no Python file to lint under {root} "
              f"(targets: {', '.join(targets)})", file=sys.stderr)
        return 2
    if args.profile:
        total = sum(seconds for _, seconds in timings)
        for rule, seconds in sorted(timings, key=lambda t: -t[1]):
            print(f"profile: {rule:<18} {seconds * 1000.0:9.2f} ms",
                  file=sys.stderr)
        print(f"profile: {'total':<18} {total * 1000.0:9.2f} ms",
              file=sys.stderr)

    if args.format == "sarif":
        print(json.dumps(_sarif_payload(findings, passes),
                         indent=2))
    else:
        for diagnostic in findings:
            print(_github_annotation(diagnostic) if args.format == "github"
                  else diagnostic.format())
        print(("FAIL: " if findings else "OK: ")
              + f"{len(modules)} file(s) checked, "
              f"{len(findings)} finding(s)")

    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
