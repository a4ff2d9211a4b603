"""End-to-end training benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--self-check] [--json OUT]

Each workload runs in a fresh subprocess of this same script (so
``ru_maxrss`` is the workload's own) with the BLAS pools pinned to one
thread and ``PYTHONHASHSEED=0``.  The parent prints every metric with
its unit, the correctness checks, and the operations attempted/failed;
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With several
workloads the metric names are prefixed ``<workload>/``.  Exit status
is non-zero when a check fails, an operation fails, or — under
``--self-check`` — two runs of the same code disagree by more than a
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"
CHILD_TIMEOUT_S = 170.0

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload name; repeatable (default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="feeds graph generation, partitioning and the trainer")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured-work budget; scales the timed epochs")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: the shorter traced run (per-layer metrics)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny graphs, 5 epochs, 1 launch: schema only")
    ap.add_argument("--self-check", action="store_true",
                    help="run the suite twice and compare against the bounds")
    ap.add_argument("--json", metavar="OUT", help="also write the full results here")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# Child: one workload, in this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    import workloads as wl

    w = wl.WORKLOADS[args.workload[0]]
    if args.smoke:
        sizes = wl.Sizes.smoke()
    elif args.trace:
        sizes = wl.Sizes.traced()
    else:
        sizes = wl.Sizes.full(args.seconds or wl.RUN_SECONDS)
    run = wl.run_traced if args.trace else wl.run_untraced
    result = run(w, args.seed, sizes)
    result["metrics"] = {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Parent: spawn, collect, print
# ----------------------------------------------------------------------
def run_child(workload: str, args: argparse.Namespace) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    # Own session: a child that overruns is killed with its rank workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f}s")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: benchmark process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def print_result(result: dict) -> None:
    print(f"\n== {result['workload']} (seed {result['seed']}) ==")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for name, count in result["samples"].items():
        print(f"  samples.{name:<28} {count:>16.6g}")
    for name, ok in result["checks"].items():
        print(f"  check {name:<30} {'ok' if ok else 'FAILED'}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")


def run_suite(names: List[str], args: argparse.Namespace) -> List[dict]:
    results = []
    for name in names:
        result = run_child(name, args)
        print_result(result)
        results.append(result)
    return results


def summary(results: List[dict]) -> dict:
    """The last-line object.  One workload: bare metric names."""
    metrics: Dict[str, dict] = {}
    for result in results:
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        for name, metric in result["metrics"].items():
            metrics[prefix + name] = metric
    return {
        "correct": all(
            r["failed"] == 0 and all(r["checks"].values()) for r in results
        ),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def self_check(first: List[dict], second: List[dict], spec: dict) -> bool:
    """Same code twice: every workload x end-to-end metric must agree
    within the metric's bound from BENCHMARK.json."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n{'workload':<18}{'metric':<22}{'run 1':>14}{'run 2':>14}"
          f"{'gap':>9}{'bound':>8}")
    ok = True
    for a, b in zip(first, second):
        for name, metric in a["metrics"].items():
            va, vb = metric["value"], b["metrics"][name]["value"]
            sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
            gap = sign * (vb - va) / abs(va)  # > 0: run 2 is worse
            breach = abs(gap) > bounds[name]["bound"]
            ok = ok and not breach
            print(f"{a['workload']:<18}{name:<22}{va:>14.6g}{vb:>14.6g}"
                  f"{gap:>+9.2%}{bounds[name]['bound']:>8.0%}"
                  f"{'  BREACH' if breach else ''}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2

    results = run_suite(names, args)
    agree = True
    if args.self_check:
        second = run_suite(names, args)
        agree = self_check(results, second, spec)
        results += second
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))
    last = summary(results[:len(names)])
    print(json.dumps(last))
    return 0 if last["correct"] and agree else 1


if __name__ == "__main__":
    sys.exit(main())
