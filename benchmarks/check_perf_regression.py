"""Guard the measured end-to-end epoch numbers against regressions.

Compares a freshly produced ``BENCH_sampling.json`` (typically a
``--smoke`` run on a CI box) against the committed baseline at the repo
root.  Raw wall-clock milliseconds are useless across machines and
problem sizes, so the comparison sticks to quantities that travel:

* **the overlap invariant** — the pipelined schedule's blocked-in-recv
  fraction must stay below the synchronous schedule's in the fresh run
  (the measured form of the paper's communication-hiding claim; size-
  and machine-independent), with a small ``--blocked-margin`` so a
  noisy shared runner's scheduler jitter over a handful of smoke
  epochs cannot flip an unrelated PR red — the *committed* baseline
  holds the strict inequality;
* **the overlap ratio** — fresh ``pipelined/synchronous`` epoch-time
  ratio must not exceed the baseline's ratio by more than the
  (deliberately generous) ``--ratio-tolerance`` factor, catching a
  pipelined path that quietly stopped overlapping without flaking on
  scheduler noise;
* **the sampler-planning invariant** — importance-weighted BNS plan
  construction must stay O(boundary) like uniform BNS: the fresh
  ``sampler_planning.importance_over_bns_cost`` ratio (same machine,
  same run, so it travels) must not exceed ``--plan-cost-tolerance``.
  A regression here means π stopped being served from the rank-level
  cache and planning went superlinear;
* **the fused-kernel invariant** — the fused numpy kernel's forward
  must stay within ``--fused-tolerance`` of the stacked CSR matmul on
  the same plan (``spmm_backend.*.fused_over_stacked``, a same-run
  ratio that travels).  A regression here means the operator stopped
  serving the cached merged CSR and every epoch went back to paying
  the two-pass split gap;
* **the zero-copy invariant** — shared-memory ring AllReduce must
  stay faster than the pipe-based multiprocess transport in the
  *committed* baseline's ``transport_allreduce`` section: the committed
  ``multiprocess/shm`` speedup (same machine, same run) must be at
  least ``--shm-speedup-tolerance``.  A
  violation means someone refreshed the baseline with a shm data
  plane that re-grew serialization or copies.

Usage:
    python benchmarks/check_perf_regression.py FRESH.json \
        [--baseline BENCH_sampling.json] [--ratio-tolerance 1.75] \
        [--plan-cost-tolerance 1.5]
"""

from __future__ import annotations

import argparse
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_sampling.json")


def _load_sections(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if "e2e_epoch" not in data:
        raise SystemExit(f"{path} has no 'e2e_epoch' section")
    return data


def _ratio(section: dict) -> float:
    sync = float(section["synchronous_epoch_ms"])
    pipe = float(section["pipelined_epoch_ms"])
    if sync <= 0:
        raise SystemExit("non-positive synchronous epoch time in e2e_epoch")
    return pipe / sync


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="freshly written BENCH_sampling.json")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="committed baseline (default: repo root)")
    ap.add_argument("--ratio-tolerance", type=float, default=1.75,
                    help="allowed multiplicative slack on the "
                         "pipelined/synchronous epoch-time ratio")
    ap.add_argument("--plan-cost-tolerance", type=float, default=1.5,
                    help="allowed importance/uniform BNS plan-cost ratio "
                         "(sampler_planning section): importance planning "
                         "must stay O(boundary) like BNS")
    ap.add_argument("--fused-tolerance", type=float, default=1.35,
                    help="allowed fused-numpy/stacked forward SpMM ratio "
                         "(spmm_backend section) — generous enough for "
                         "smoke-size noise, tight enough to catch the "
                         "fused path regressing to two-pass cost")
    ap.add_argument("--shm-speedup-tolerance", type=float, default=None,
                    help="minimum multiprocess/shm ring AllReduce speedup "
                         "the committed baseline's transport_allreduce "
                         "section must show (omit to skip the gate; the "
                         "acceptance bar is 2.0)")
    ap.add_argument("--blocked-margin", type=float, default=0.10,
                    help="additive noise margin on the blocked-fraction "
                         "invariant — wide enough that scheduler jitter "
                         "on a shared runner cannot flip it, so it only "
                         "catches a clear inversion (0 = require "
                         "strictly below, as the committed baseline "
                         "does)")
    args = ap.parse_args()

    fresh_all = _load_sections(args.fresh)
    baseline_all = _load_sections(args.baseline)
    fresh = fresh_all["e2e_epoch"]
    baseline = baseline_all["e2e_epoch"]

    failures = []

    if "sampler_planning" not in fresh_all:
        failures.append("fresh run has no 'sampler_planning' section")
    else:
        plan_ratio = float(
            fresh_all["sampler_planning"]["importance_over_bns_cost"]
        )
        print(
            f"sampler planning: importance/bns cost ratio {plan_ratio:.3f}  "
            f"allowed <= {args.plan_cost_tolerance:.2f}"
        )
        if plan_ratio > args.plan_cost_tolerance:
            failures.append(
                "sampler planning regression: importance/bns plan cost "
                f"ratio {plan_ratio:.3f} exceeds {args.plan_cost_tolerance}"
            )

    if "spmm_backend" not in fresh_all:
        failures.append("fresh run has no 'spmm_backend' section")
    else:
        for label in ("fp64", "fp32"):
            fused_ratio = float(
                fresh_all["spmm_backend"][label]["fused_over_stacked"]
            )
            print(
                f"fused kernel [{label}]: fused/stacked forward ratio "
                f"{fused_ratio:.3f}  allowed <= {args.fused_tolerance:.2f}"
            )
            if fused_ratio > args.fused_tolerance:
                failures.append(
                    f"fused kernel regression [{label}]: fused/stacked "
                    f"forward ratio {fused_ratio:.3f} exceeds "
                    f"{args.fused_tolerance}"
                )

    sync_frac = float(fresh["synchronous_blocked_fraction"])
    pipe_frac = float(fresh["pipelined_blocked_fraction"])
    print(
        f"blocked-in-recv: synchronous {sync_frac * 100:.1f}%  "
        f"pipelined {pipe_frac * 100:.1f}%  "
        f"(margin {args.blocked_margin * 100:.1f} pts)"
    )
    if not pipe_frac < sync_frac + args.blocked_margin:
        failures.append(
            "overlap invariant violated: pipelined blocked fraction "
            f"{pipe_frac} is not below synchronous {sync_frac} "
            f"(+{args.blocked_margin} margin)"
        )

    if args.shm_speedup_tolerance is not None:
        allreduce = baseline_all.get("transport_allreduce")
        if allreduce is None:
            failures.append(
                "baseline has no 'transport_allreduce' section to hold "
                "the shm speedup gate against"
            )
        else:
            try:
                mp_ms = float(allreduce["multiprocess_ring_ms"])
                shm_ms = float(allreduce["shm_ring_ms"])
            except KeyError as exc:
                failures.append(
                    f"baseline transport_allreduce lacks {exc} — "
                    "refresh BENCH_sampling.json with the shm bench"
                )
            else:
                speedup = mp_ms / shm_ms
                print(
                    f"shm allreduce [ring]: multiprocess "
                    f"{mp_ms:.3f} ms / shm {shm_ms:.3f} ms = "
                    f"{speedup:.2f}x  required >= "
                    f"{args.shm_speedup_tolerance:.2f}x"
                )
                if speedup < args.shm_speedup_tolerance:
                    failures.append(
                        f"zero-copy regression [ring]: committed "
                        f"shm AllReduce is only {speedup:.2f}x faster "
                        "than multiprocess, below "
                        f"{args.shm_speedup_tolerance}x"
                    )

    fresh_ratio = _ratio(fresh)
    base_ratio = _ratio(baseline)
    bound = base_ratio * args.ratio_tolerance
    print(
        f"pipelined/synchronous epoch ratio: fresh {fresh_ratio:.3f}  "
        f"baseline {base_ratio:.3f}  allowed <= {bound:.3f}"
    )
    if fresh_ratio > bound:
        failures.append(
            f"overlap regression: fresh ratio {fresh_ratio:.3f} exceeds "
            f"baseline {base_ratio:.3f} x tolerance {args.ratio_tolerance}"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("e2e_epoch perf check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
