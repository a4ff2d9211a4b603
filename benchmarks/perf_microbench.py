"""Plan-construction / SpMM microbenchmark for the split-operator path.

Times, on a ~20k-node synthetic graph:

1. **plan construction** — the legacy explicit construction
   (per-epoch ``tocsc → column slice → tocsr → hstack →
   row_normalise``, four O(nnz) sparse reallocations) vs the
   split-operator planner (``BoundaryNodeSampler.plan``: O(kept)
   column selection + one SpMV worth of row scaling), same draws;
2. **SpMM** — the stacked CSR matmul vs the split-form matmul on the
   same operator and features;
3. the other samplers' plan rates, for the record.

Writes ``BENCH_sampling.json`` at the repo root (plans/sec before vs
after) to seed the performance trajectory, and verifies numerical
agreement of the two paths while doing so.

Usage:
    PYTHONPATH=src python benchmarks/perf_microbench.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.core import (
    BoundaryEdgeSampler,
    BoundaryNodeSampler,
    DropEdgeSampler,
    FullBoundarySampler,
    ImportanceBoundarySampler,
    PartitionRuntime,
    explicit_stacked_operator,
)
from repro.graph.generators import SyntheticSpec, generate_graph
from repro.partition import partition_graph

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_sampling.json")


def build_runtime(nodes: int, parts: int, seed: int) -> PartitionRuntime:
    spec = SyntheticSpec(
        n=nodes,
        num_communities=32,
        avg_degree=16.0,
        homophily=0.6,
        degree_exponent=2.2,
        feature_dim=32,
        name="microbench",
    )
    graph = generate_graph(spec, seed=seed)
    # Random partition: fast to compute and boundary-heavy, the worst
    # case for per-epoch plan construction.
    part = partition_graph(graph, parts, method="random", seed=seed)
    return PartitionRuntime(graph, part)


def time_explicit_plans(runtime, p: float, epochs: int, mode: str) -> float:
    """Legacy path: rebuild the stacked operator every epoch."""
    rngs = [np.random.default_rng(1000 + i) for i in range(len(runtime.ranks))]
    t0 = time.perf_counter()
    for _ in range(epochs):
        for i, rank in enumerate(runtime.ranks):
            kept = np.flatnonzero(rngs[i].random(rank.n_boundary) < p)
            explicit_stacked_operator(rank, kept, mode, rate=p)
    return time.perf_counter() - t0


def time_split_plans(sampler, runtime, epochs: int) -> float:
    """Split-operator path: lazy selection from precomputed structures."""
    rngs = [np.random.default_rng(1000 + i) for i in range(len(runtime.ranks))]
    t0 = time.perf_counter()
    for _ in range(epochs):
        for i, rank in enumerate(runtime.ranks):
            sampler.plan(rank, rngs[i])
    return time.perf_counter() - t0


def check_equivalence(runtime, p: float, mode: str) -> float:
    """Max |split − explicit| over a product with random features."""
    worst = 0.0
    for rank in runtime.ranks:
        plan = BoundaryNodeSampler(p, mode=mode).plan(
            rank, np.random.default_rng(5)
        )
        explicit = explicit_stacked_operator(
            rank, plan.kept_positions, mode, rate=p
        )
        h = np.random.default_rng(6).normal(size=(plan.prop.shape[1], 16))
        worst = max(
            worst, float(np.abs(plan.prop.matmul(h) - explicit @ h).max())
        )
    return worst


def time_spmm(runtime, p: float, mode: str, reps: int, d: int = 64):
    """Stacked CSR matmul vs split-form matmul on identical operators."""
    rank = max(runtime.ranks, key=lambda r: r.n_boundary)
    plan = BoundaryNodeSampler(p, mode=mode).plan(rank, np.random.default_rng(9))
    h = np.random.default_rng(10).normal(size=(plan.prop.shape[1], d))
    stacked = plan.prop.csr  # materialise once, outside the timer
    t0 = time.perf_counter()
    for _ in range(reps):
        stacked @ h
    stacked_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        plan.prop.matmul(h)
    split_s = time.perf_counter() - t0
    return stacked_s / reps, split_s / reps


def time_sampler_planning(runtime, p: float, epochs: int) -> dict:
    """Uniform vs importance plan construction on the same runtime.

    Importance planning must stay O(boundary) like BNS: π is computed
    once per rank (water-filling over the precomputed boundary-degree
    vector, cached on the RankData) and each epoch then costs one
    Bernoulli draw per boundary node plus the kept columns' slice —
    exactly BNS's profile plus the per-kept 1/π gather.  The steady-
    state cost ratio is the guarded number (≤ ~1.5x); the one-off π
    build is reported separately.
    """
    bns = BoundaryNodeSampler(p)
    imp = ImportanceBoundarySampler(p)
    # One-off π construction (cold cache: the water-filling itself,
    # no plan work), then warm both samplers so the timed loops
    # measure the steady state.
    t0 = time.perf_counter()
    for rank in runtime.ranks:
        rank.boundary_keep_probs(p, imp.p_min, imp.mode)
    pi_build_s = time.perf_counter() - t0
    for i, rank in enumerate(runtime.ranks):
        imp.plan(rank, np.random.default_rng(i))
        bns.plan(rank, np.random.default_rng(i))
    n_plans = epochs * len(runtime.ranks)
    bns_s = time_split_plans(bns, runtime, epochs)
    imp_s = time_split_plans(imp, runtime, epochs)
    out = {
        "p": p,
        "epochs": epochs,
        "bns_plans_per_sec": round(n_plans / bns_s, 2),
        "importance_plans_per_sec": round(n_plans / imp_s, 2),
        "importance_over_bns_cost": round(imp_s / bns_s, 3),
        "pi_build_ms_total": round(pi_build_s * 1e3, 3),
    }
    print(
        f"sampler planning p={p}:  bns {out['bns_plans_per_sec']:9.1f} plans/s   "
        f"importance {out['importance_plans_per_sec']:9.1f} plans/s   "
        f"cost ratio {out['importance_over_bns_cost']:.2f}x   "
        f"(pi build {out['pi_build_ms_total']:.1f} ms once)"
    )
    return out


def time_spmm_dtypes(runtime, p: float, reps: int, d: int = 64) -> dict:
    """fp32 vs fp64 split SpMM on the same operator — the ROADMAP's
    "~2x throughput" claim, measured.

    The fp32 operator is the cast of the fp64 one (identical draws and
    structure), so the timing difference is purely the scalar width.
    """
    rank = max(runtime.ranks, key=lambda r: r.n_boundary)
    plan = BoundaryNodeSampler(p).plan(rank, np.random.default_rng(21))
    op64 = plan.prop.astype(np.float64)
    op32 = plan.prop.astype(np.float32)
    h64 = np.random.default_rng(22).normal(size=(plan.prop.shape[1], d))
    h32 = h64.astype(np.float32)
    op64.matmul(h64), op32.matmul(h32)  # warm caches outside the timer
    t0 = time.perf_counter()
    for _ in range(reps):
        op64.matmul(h64)
    fp64_s = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        out32 = op32.matmul(h32)
    fp32_s = (time.perf_counter() - t0) / reps
    assert out32.dtype == np.float32, "fp32 SpMM upcast on the way through"
    err = float(np.abs(op64.matmul(h64) - op32.matmul(h32)).max())
    return {
        "d": d,
        "reps": reps,
        "fp64_ms": round(fp64_s * 1e3, 4),
        "fp32_ms": round(fp32_s * 1e3, 4),
        "speedup": round(fp64_s / fp32_s, 2) if fp32_s > 0 else float("inf"),
        "max_abs_error": err,
    }


def time_spmm_backends(runtime, p: float, reps: int, d: int = 64) -> dict:
    """Kernel backend shoot-out on the same plan: stacked CSR vs the
    two-pass ``split`` reference vs the fused one-pass kernels, forward
    and backward, at fp64 and fp32.

    The fused numpy kernel's cached merge/transpose builds are timed
    separately (they amortise over layers x epochs x directions); the
    per-call numbers are steady state.  ``fused_over_stacked`` is the
    guarded ratio: the fused forward must stay within a small factor of
    the stacked matmul — the two-pass split path's 25-40% gap is the
    thing this backend closes.
    """
    from repro.tensor.kernels import backend_names, resolve_backend

    rank = max(runtime.ranks, key=lambda r: r.n_boundary)
    plan = BoundaryNodeSampler(p).plan(rank, np.random.default_rng(33))
    out = {"d": d, "reps": reps, "backends": sorted(backend_names())}
    for label, dtype in (("fp64", np.float64), ("fp32", np.float32)):
        op = plan.prop.astype(dtype)
        h = np.random.default_rng(34).normal(
            size=(op.shape[1], d)).astype(dtype)
        g = np.random.default_rng(35).normal(
            size=(op.shape[0], d)).astype(dtype)
        stacked = op.csr  # materialised once, outside the timers
        stacked_t = stacked.T.tocsr()
        # One-off fused preparation, measured before the caches warm.
        t0 = time.perf_counter()
        op.fused_csr
        build_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        op.fused_csr_t
        build_t_ms = (time.perf_counter() - t0) * 1e3
        section = {
            "fused_build_ms": round(build_ms, 4),
            "fused_build_t_ms": round(build_t_ms, 4),
        }
        t0 = time.perf_counter()
        for _ in range(reps):
            stacked @ h
        section["stacked_fwd_ms"] = round(
            (time.perf_counter() - t0) / reps * 1e3, 4)
        t0 = time.perf_counter()
        for _ in range(reps):
            stacked_t @ g
        section["stacked_bwd_ms"] = round(
            (time.perf_counter() - t0) / reps * 1e3, 4)
        ref_fwd = stacked @ h
        for name in out["backends"]:
            backend = resolve_backend(name)
            backend.split_spmm_forward(op, h)  # warm the operator caches
            backend.split_spmm_backward(op, g)
            t0 = time.perf_counter()
            for _ in range(reps):
                fwd = backend.split_spmm_forward(op, h)
            section[f"{name}_fwd_ms"] = round(
                (time.perf_counter() - t0) / reps * 1e3, 4)
            t0 = time.perf_counter()
            for _ in range(reps):
                backend.split_spmm_backward(op, g)
            section[f"{name}_bwd_ms"] = round(
                (time.perf_counter() - t0) / reps * 1e3, 4)
            err = float(np.abs(fwd - ref_fwd).max())
            assert err < (1e-9 if dtype is np.float64 else 1e-3), (
                f"backend {name} diverged from stacked reference: {err}")
        section["fused_over_stacked"] = round(
            section["numpy_fwd_ms"] / section["stacked_fwd_ms"], 3)
        section["fused_over_split_fwdbwd"] = round(
            (section["numpy_fwd_ms"] + section["numpy_bwd_ms"])
            / (section["split_fwd_ms"] + section["split_bwd_ms"]), 3)
        out[label] = section
        msg = "  ".join(
            f"{name} {section[f'{name}_fwd_ms']:.3f}/"
            f"{section[f'{name}_bwd_ms']:.3f}"
            for name in out["backends"]
        )
        print(
            f"spmm backends [{label}] fwd/bwd ms: "
            f"stacked {section['stacked_fwd_ms']:.3f}/"
            f"{section['stacked_bwd_ms']:.3f}  {msg}  "
            f"fused/stacked {section['fused_over_stacked']:.2f}x"
        )
    return out


def dtype_wire_ledger(parts: int, seed: int) -> dict:
    """Per-tag metered bytes of one seeded epoch at fp64 vs fp32.

    The honesty claim in one measurement: identical draws, identical
    scalar counts, and every tag's fp32 bytes exactly half of fp64
    (scalar width 4 vs 8).
    """
    from repro.core import DistributedTrainer
    from repro.graph.generators import SyntheticSpec, generate_graph
    from repro.nn.models import GraphSAGEModel

    spec = SyntheticSpec(
        n=2000, num_communities=8, avg_degree=10.0, feature_dim=16,
        name="dtype-ledger",
    )
    graph = generate_graph(spec, seed=seed)
    part = partition_graph(graph, parts, method="random", seed=seed)

    ledgers = {}
    for dtype in ("float64", "float32"):
        model = GraphSAGEModel(
            graph.feature_dim, 32, graph.num_classes, 2, 0.0,
            np.random.default_rng(3), dtype=dtype,
        )
        trainer = DistributedTrainer(
            graph, part, model, BoundaryNodeSampler(0.1), seed=seed
        )
        trainer.train_epoch()
        ledgers[dtype] = dict(trainer.comm.meter.by_tag)
    halved = all(
        ledgers["float64"][tag] == 2 * ledgers["float32"][tag]
        for tag in ledgers["float64"]
    )
    assert halved, f"fp32 ledger is not half of fp64: {ledgers}"
    return {
        "parts": parts,
        "by_tag_fp64": ledgers["float64"],
        "by_tag_fp32": ledgers["float32"],
        "fp32_exactly_half": halved,
    }


def time_e2e_epoch(nodes: int, parts: int, epochs: int, seed: int,
                   transport: str = "multiprocess") -> dict:
    """Measured (not modeled) end-to-end epochs: synchronous vs
    pipelined schedules on real process-backed ranks over the chosen
    transport (pickling pipes or zero-copy shared-memory rings).

    A boundary-heavy random partition at p=1 (full boundary sets) is
    the worst case for synchronous exchanges — every layer of every
    rank blocks on its neighbours' compute.  The pipelined schedule
    posts epoch t−1's layer inputs while epoch t's SpMM runs, so its
    blocked-in-recv fraction must come out strictly below the
    synchronous schedule's; wall times and blocked fractions land in
    ``BENCH_sampling.json`` for the perf trajectory.
    """
    from repro.core import FullBoundarySampler
    from repro.dist.executor import ProcessRankExecutor
    from repro.graph.generators import SyntheticSpec, generate_graph
    from repro.nn.models import GraphSAGEModel

    spec = SyntheticSpec(
        n=nodes, num_communities=16, avg_degree=12.0, feature_dim=64,
        name="e2e-epoch",
    )
    graph = generate_graph(spec, seed=seed)
    part = partition_graph(graph, parts, method="random", seed=seed)
    out = {
        "nodes": nodes,
        "parts": parts,
        "epochs": epochs,
        "transport": transport,
        "sampler": "full boundary (p=1)",
    }
    for schedule in ("synchronous", "pipelined"):
        model = GraphSAGEModel(
            graph.feature_dim, 64, graph.num_classes, 2, 0.0,
            np.random.default_rng(3),
        )
        executor = ProcessRankExecutor(
            graph, part, model, FullBoundarySampler(),
            transport=transport, seed=seed, schedule=schedule,
            timeout=900.0,
        )
        result = executor.train(epochs)
        # Steady state: skip the first epoch (pipelined warm-up runs
        # synchronously; the synchronous schedule pays cold caches).
        steady = 1 if epochs > 1 else 0
        walls = result.history.wall_seconds[steady:]
        out[f"{schedule}_epoch_ms"] = round(float(np.mean(walls)) * 1e3, 3)
        out[f"{schedule}_blocked_fraction"] = round(
            result.blocked_fraction(start_epoch=steady), 4
        )
        print(
            f"e2e[{transport}/{schedule:11s}] "
            f"{out[f'{schedule}_epoch_ms']:9.2f} ms/epoch   "
            f"blocked-in-recv {out[f'{schedule}_blocked_fraction'] * 100:5.1f}%"
        )
    out["overlap_speedup"] = round(
        out["synchronous_epoch_ms"] / out["pipelined_epoch_ms"], 3
    )
    out["overlap_measured"] = (
        out["pipelined_blocked_fraction"] < out["synchronous_blocked_fraction"]
    )
    if not out["overlap_measured"]:
        print(
            "WARNING: pipelined blocked-in-recv fraction is not below the "
            "synchronous schedule's — overlap not measured on this host"
        )
    return out


def _allreduce_bench_worker(ep, task):
    """One rank's timed AllReduce loop (module-level for process spawn)."""
    scalars, reps = task
    # Payload width must match what the transport meters (the data
    # plane enforces metered == shipped).
    from repro.tensor import float_dtype_for_nbytes

    data = np.full(
        scalars, float(ep.rank + 1),
        dtype=float_dtype_for_nbytes(ep.bytes_per_scalar),
    )
    out = ep.allreduce(data, "bench")  # warm-up
    t0 = time.perf_counter()
    for _ in range(reps):
        out = ep.allreduce(data, "bench")
    elapsed = time.perf_counter() - t0
    expected = ep.num_parts * (ep.num_parts + 1) / 2.0
    assert np.allclose(out, expected), "allreduce produced a wrong sum"
    return elapsed / reps


def time_transports(parts: int, scalars: int, reps: int) -> dict:
    """Per-ring-AllReduce wall time on the three data-moving transports.

    The simulated path is the 0-cost reference (metering only); the
    local, multiprocess and shm numbers show what the wire actually
    costs — the multiprocess-vs-shm gap is pure pickle framing + pipe
    copies (the zero-copy win), the remaining shm-vs-local gap is OS
    process scheduling.
    """
    from repro.dist.transport import (
        LocalTransport,
        MultiprocessTransport,
        SharedMemoryTransport,
    )

    out = {"parts": parts, "scalars": scalars, "reps": reps}
    for name, cls in (("local", LocalTransport),
                      ("multiprocess", MultiprocessTransport),
                      ("shm", SharedMemoryTransport)):
        transport = cls(parts, recv_timeout=60.0)
        per_rank = transport.launch(
            _allreduce_bench_worker, [(scalars, reps)] * parts, timeout=300.0,
        )
        seconds = max(per_rank)  # collective is paced by the slowest rank
        out[f"{name}_ring_ms"] = round(seconds * 1e3, 4)
        print(
            f"allreduce[{name}/ring] {scalars} scalars x "
            f"{parts} ranks: {seconds * 1e3:8.3f} ms"
        )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=20000)
    ap.add_argument("--parts", type=int, default=8)
    ap.add_argument("--epochs", type=int, default=30,
                    help="planning rounds to average over")
    ap.add_argument("--p", type=float, default=0.1,
                    help="BNS sampling rate for the headline numbers")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configuration for CI smoke runs")
    args = ap.parse_args()
    if args.smoke:
        args.nodes, args.parts, args.epochs = 4000, 4, 5

    t0 = time.perf_counter()
    runtime = build_runtime(args.nodes, args.parts, args.seed)
    build_s = time.perf_counter() - t0
    n_plans = args.epochs * len(runtime.ranks)
    stats = {
        "nodes": args.nodes,
        "edges": int(runtime.graph.adj.nnz // 2),
        "parts": args.parts,
        "total_boundary": runtime.total_boundary(),
        "runtime_build_seconds": round(build_s, 4),
    }
    print(f"graph: {stats}")

    results = {"graph": stats, "p": args.p, "epochs": args.epochs}
    for mode in ("renorm", "scale"):
        explicit_s = time_explicit_plans(runtime, args.p, args.epochs, mode)
        split_s = time_split_plans(
            BoundaryNodeSampler(args.p, mode=mode), runtime, args.epochs
        )
        err = check_equivalence(runtime, args.p, mode)
        spmm_stacked, spmm_split = time_spmm(runtime, args.p, mode, reps=20)
        results[f"bns_{mode}"] = {
            "explicit_plans_per_sec": round(n_plans / explicit_s, 2),
            "split_plans_per_sec": round(n_plans / split_s, 2),
            "plan_speedup": round(explicit_s / split_s, 2),
            "spmm_stacked_ms": round(spmm_stacked * 1e3, 4),
            "spmm_split_ms": round(spmm_split * 1e3, 4),
            "max_abs_error": err,
        }
        print(
            f"BNS p={args.p} [{mode:6s}]  "
            f"explicit {n_plans / explicit_s:8.1f} plans/s   "
            f"split {n_plans / split_s:9.1f} plans/s   "
            f"speedup {explicit_s / split_s:5.2f}x   "
            f"max|err| {err:.2e}"
        )

    # Timed before the sampler-rate sweep below so the one-off pi
    # water-filling really is measured against a cold RankData cache.
    results["sampler_planning"] = time_sampler_planning(
        runtime, args.p, args.epochs
    )

    sampler_rates = {}
    for sampler in (
        FullBoundarySampler(),
        BoundaryNodeSampler(args.p),
        ImportanceBoundarySampler(args.p),
        BoundaryEdgeSampler(args.p),
        DropEdgeSampler(args.p),
    ):
        seconds = time_split_plans(sampler, runtime, args.epochs)
        rate = n_plans / seconds if seconds > 0 else float("inf")
        sampler_rates[sampler.name] = round(rate, 2)
        print(f"{sampler.name:10s} split planner: {rate:12.1f} plans/s")
    results["sampler_plans_per_sec"] = sampler_rates
    # The acceptance headline: BoundaryNodeSampler(p=0.1) in its
    # default (renorm) mode, plans/sec before vs after.
    results["headline"] = {
        "sampler": "BoundaryNodeSampler",
        "p": args.p,
        "mode": "renorm",
        "before_plans_per_sec": results["bns_renorm"]["explicit_plans_per_sec"],
        "after_plans_per_sec": results["bns_renorm"]["split_plans_per_sec"],
        "speedup": results["bns_renorm"]["plan_speedup"],
    }

    results["spmm_dtype"] = time_spmm_dtypes(
        runtime, args.p, reps=10 if args.smoke else 30
    )
    print(
        f"SpMM dtype: fp64 {results['spmm_dtype']['fp64_ms']:.3f} ms  "
        f"fp32 {results['spmm_dtype']['fp32_ms']:.3f} ms  "
        f"speedup {results['spmm_dtype']['speedup']:.2f}x"
    )
    results["spmm_backend"] = time_spmm_backends(
        runtime, args.p, reps=10 if args.smoke else 30
    )
    results["dtype_wire_ledger"] = dtype_wire_ledger(
        parts=min(args.parts, 4), seed=args.seed
    )
    print(
        "wire ledger: fp32 bytes exactly half of fp64 per tag -> "
        f"{results['dtype_wire_ledger']['fp32_exactly_half']}"
    )

    results["transport_allreduce"] = time_transports(
        parts=min(args.parts, 4),
        scalars=10_000 if args.smoke else 250_000,
        reps=3 if args.smoke else 10,
    )

    results["e2e_epoch"] = time_e2e_epoch(
        nodes=2500 if args.smoke else 8000,
        parts=min(args.parts, 4),
        epochs=6 if args.smoke else 8,
        seed=args.seed,
    )

    results["e2e_epoch_shm"] = time_e2e_epoch(
        nodes=2500 if args.smoke else 8000,
        parts=min(args.parts, 4),
        epochs=6 if args.smoke else 8,
        seed=args.seed,
        transport="shm",
    )

    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    speedup = results["bns_renorm"]["plan_speedup"]
    target = 5.0
    if not args.smoke and speedup < target:
        print(f"WARNING: renorm plan speedup {speedup}x below {target}x target")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
