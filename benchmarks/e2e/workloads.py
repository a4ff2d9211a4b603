"""The four workloads and the two runs (untraced, traced) over them.

Every number is taken from outside ``src/``: by timing calls into
public functions and by injecting the :mod:`probes` wrappers through
constructor arguments the trainers already accept.  README.md in this
directory says why each workload exists and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    BoundaryNodeSampler,
    DistributedTrainer,
    FullBoundarySampler,
    FullGraphTrainer,
    GraphSAGEModel,
    PipelinedTrainer,
    ProcessRankExecutor,
    load_dataset,
    partition_graph,
    partition_stats,
)
from repro.dist.transport import resolve_transport

import probes
from trace import Tracer

__all__ = [
    "WORKLOADS", "RUN_SECONDS", "Sizes", "run_untraced", "run_traced",
]

LR = 0.01
HIDDEN = 64
MODEL_SEED = 7
#: Seconds of measured work the epoch counts below are sized for;
#: ``--seconds`` scales the timed epochs in proportion.
RUN_SECONDS = 20
RESULTS_DIR = Path(__file__).resolve().parent / "results"
EPOCH_BLOCK = 20

Metric = Tuple[float, str]


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    parts: int
    layers: int
    dropout: float
    p: float  # boundary sampling rate; 1.0 = FullBoundarySampler
    transport: Optional[str]  # None = in-process DistributedTrainer
    schedule: str
    timed_epochs: int  # per launch, at --seconds RUN_SECONDS
    target_loss: float
    acc_floor: float


#: Why each exists: README.md here, and BENCHMARK.json's ``why`` lines.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sim-bns", "reddit-sim", scale=1.0, parts=4, layers=2,
             dropout=0.5, p=0.1, transport=None, schedule="synchronous",
             timed_epochs=120, target_loss=1.5, acc_floor=0.95),
    Workload("sim-manyparts", "papers-sim", scale=0.125, parts=16, layers=3,
             dropout=0.5, p=1.0, transport=None, schedule="synchronous",
             timed_epochs=100, target_loss=0.10, acc_floor=0.95),
    Workload("mp-pipes-sync", "yelp-sim", scale=1.0, parts=2, layers=2,
             dropout=0.1, p=1.0, transport="multiprocess",
             schedule="synchronous",
             timed_epochs=60, target_loss=0.30, acc_floor=0.70),
    Workload("mp-shm-pipelined", "reddit-sim", scale=1.0, parts=2, layers=2,
             dropout=0.5, p=0.1, transport="shm", schedule="pipelined",
             timed_epochs=80, target_loss=1.5, acc_floor=0.95),
)}


@dataclass(frozen=True)
class Sizes:
    """How much of everything one run does."""

    graph_scale: float
    setups: int  # cold set-ups; on mp-* each is followed by its own launch
    warmup: int
    epochs: Callable[[Workload], int]  # timed epochs (per launch)
    evals: int  # per group: one group per epoch block, two per launch
    reps: int  # stand-alone layer measurements (traced run)
    converged: bool  # whether the convergence gates apply

    @classmethod
    def full(cls, seconds: float) -> "Sizes":
        return cls(
            graph_scale=1.0, setups=3, warmup=3,
            epochs=lambda w: max(10, round(w.timed_epochs * seconds / RUN_SECONDS)),
            evals=5, reps=20, converged=True,
        )

    @classmethod
    def traced(cls) -> "Sizes":
        return cls(graph_scale=1.0, setups=1, warmup=3,
                   epochs=lambda w: 40, evals=0, reps=20, converged=False)

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(graph_scale=0.1, setups=1, warmup=1,
                   epochs=lambda w: 5, evals=1, reps=2, converged=False)


class Ops:
    """Operations attempted / failed.  Every set-up, epoch, eval and
    launch goes through :meth:`attempt`; an exception is a failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn: Callable, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - the benchmark boundary: count, report, go on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------
def make_graph(w: Workload, seed: int, sizes: Sizes):
    return load_dataset(w.dataset, scale=w.scale * sizes.graph_scale, seed=seed)


def make_model(w: Workload, graph, dropout: Optional[float] = None):
    out_dim = graph.labels.shape[1] if graph.multilabel else graph.num_classes
    return GraphSAGEModel(
        graph.feature_dim, HIDDEN, out_dim, w.layers,
        w.dropout if dropout is None else dropout,
        np.random.default_rng(MODEL_SEED),
    )


def make_sampler(w: Workload):
    return BoundaryNodeSampler(w.p) if w.p < 1.0 else FullBoundarySampler()


def in_process_cls(w: Workload):
    return PipelinedTrainer if w.schedule == "pipelined" else DistributedTrainer


def make_runner(w: Workload, graph, partition, seed: int):
    """The workload's own trainer: in-process or real ranks."""
    model, sampler = make_model(w, graph), make_sampler(w)
    if w.transport is None:
        return DistributedTrainer(graph, partition, model, sampler, lr=LR, seed=seed)
    return ProcessRankExecutor(
        graph, partition, model, sampler, transport=w.transport, lr=LR,
        seed=seed, schedule=w.schedule, timeout=120.0,
    )


def cold_setup(w: Workload, graph, seed: int):
    """partition + trainer/executor construction; returns the runner,
    the partition and the two wall times."""
    gc.collect()
    t0 = time.perf_counter()
    partition = partition_graph(graph, w.parts, method="metis", seed=seed)
    t1 = time.perf_counter()
    runner = make_runner(w, graph, partition, seed)
    return runner, partition, t1 - t0, time.perf_counter() - t1


def timed_epoch(trainer, ops: Ops, tracer: Optional[Tracer] = None,
                epoch: Optional[int] = None) -> float:
    """Wall of one ``train_epoch()``; under a tracer, the epoch runs
    inside a ``trainer.epoch`` span that the probes' spans nest in."""
    if tracer is None:
        t0 = time.perf_counter()
        ops.attempt(trainer.train_epoch)
        return time.perf_counter() - t0
    tracer.epoch = epoch
    with tracer.span("trainer.epoch") as span:
        ops.attempt(trainer.train_epoch)
        trainer.comm.flush()
    tracer.epoch = None
    return span["end"] - span["start"]


def train_in_process(trainer, warmup: int, epochs: int, ops: Ops):
    """``warmup`` untimed + ``epochs`` timed ``train_epoch()`` calls.
    Returns the timed walls and every epoch's per-tag ledger."""
    walls: List[float] = []
    tags: List[Dict[str, int]] = []
    for epoch in range(warmup + epochs):
        if epoch == warmup:
            gc.collect()
        wall = timed_epoch(trainer, ops)
        if epoch >= warmup:
            walls.append(wall)
        tags.append(dict(trainer.comm.meter.by_tag))
    return walls, tags


def time_evals(runner, count: int, ops: Ops) -> Tuple[List[float], float]:
    walls, scores = [], None
    gc.collect()
    for _ in range(count):
        t0 = time.perf_counter()
        scores = ops.attempt(runner.evaluate)
        walls.append(time.perf_counter() - t0)
    return walls, float("nan") if scores is None else scores["test"]


def epochs_to_target(losses: List[float], target: float) -> float:
    """First epoch (counted from 1) whose trailing-5-epoch mean loss is
    at or below ``target``, interpolated between that epoch and the one
    before it so the answer does not move in whole-epoch steps.  The
    full epoch count when the target is never reached."""
    previous = None
    for epoch in range(5, len(losses) + 1):
        mean = sum(losses[epoch - 5:epoch]) / 5
        if mean <= target:
            if previous is None or previous <= mean:
                return float(epoch)
            return epoch - (target - mean) / (previous - mean)
        previous = mean
    return float(len(losses))


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def ms_p50(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e3


def quiet_ms_p50(seconds: List[float], block: int) -> float:
    """Median of the quietest block of ``block`` consecutive samples.

    This box is shared: for a minute or two at a time something else
    takes a core and every wall inside that stretch reads 1.3x to 2x.
    Interference only ever adds time, so the smallest block median is
    the median the program shows when left alone; the median over the
    whole run moved 15-28 % between runs of identical code, this one
    3-10 % (README, "Noise rules").  A trailing partial block is left
    out unless it is the only one.
    """
    blocks = [seconds[i:i + block] for i in range(0, len(seconds), block)]
    whole = [b for b in blocks if len(b) == block] or blocks
    return min(statistics.median(b) for b in whole) * 1e3


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def reference_ledger(w: Workload, graph, partition, seed: int, epochs: int, ops: Ops):
    """Per-epoch per-tag bytes of the in-process trainer on the same
    config — what a real-rank launch must reproduce byte for byte."""
    trainer = in_process_cls(w)(
        graph, partition, make_model(w, graph), make_sampler(w), lr=LR, seed=seed
    )
    _walls, tags = train_in_process(trainer, 0, epochs, ops)
    return tags


def matches_full_graph(w: Workload, graph, partition, seed: int, ops: Ops) -> bool:
    """p = 1 at dropout 0 is full-graph training: 3 epochs to 1e-9."""
    parted = DistributedTrainer(
        graph, partition, make_model(w, graph, dropout=0.0),
        FullBoundarySampler(), lr=LR, seed=seed,
    )
    full = FullGraphTrainer(graph, make_model(w, graph, dropout=0.0), lr=LR, seed=seed)
    for _ in range(3):
        a, b = ops.attempt(parted.train_epoch), ops.attempt(full.train_epoch)
        if a is None or b is None or abs(a - b) > 1e-9:
            return False
    return True


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ----------------------------------------------------------------------
@dataclass
class Launch:
    walls: List[float]  # timed epochs only
    losses: List[float]  # every epoch
    comm: List[int]  # every epoch
    tags: List[Dict[str, int]]  # every epoch


def run_untraced(w: Workload, seed: int, sizes: Sizes) -> dict:
    ops = Ops()
    checks: Dict[str, bool] = {}
    graph = make_graph(w, seed, sizes)
    epochs = sizes.epochs(w)
    setup_samples: List[float] = []
    launches: List[Launch] = []

    eval_walls: List[float] = []
    test_acc = float("nan")
    runner = partition = None
    if w.transport is None:
        for _ in range(sizes.setups):
            built = ops.attempt(cold_setup, w, graph, seed)
            if built is not None:
                runner, partition, part_s, ctor_s = built
                setup_samples.append(part_s + ctor_s)
        if runner is not None:
            walls: List[float] = []
            tags: List[Dict[str, int]] = []
            # A group of evals after every block of epochs, so that both
            # are sampled all through the run (see quiet_ms_p50).
            while len(walls) < epochs:
                more_walls, more_tags = train_in_process(
                    runner, 0 if walls else sizes.warmup,
                    min(EPOCH_BLOCK, epochs - len(walls)), ops,
                )
                walls += more_walls
                tags += more_tags
                more_evals, test_acc = time_evals(runner, sizes.evals, ops)
                eval_walls += more_evals
            history = runner.history
            launches.append(Launch(walls, history.loss, history.comm_bytes, tags))
    else:
        # One cold set-up per launch: spawn, shard shipping and result
        # return are set-up the user waits for, so they are added in.
        for _ in range(sizes.setups):
            built = ops.attempt(cold_setup, w, graph, seed)
            if built is None:
                continue
            runner, partition, part_s, ctor_s = built
            gc.collect()
            result = ops.attempt(runner.train, sizes.warmup + epochs)
            if result is None:
                continue
            ops.attempted += sizes.warmup + epochs
            history = result.history
            overhead = result.launch_seconds - sum(history.wall_seconds)
            setup_samples.append(part_s + ctor_s + overhead)
            launches.append(Launch(
                history.wall_seconds[sizes.warmup:], history.loss,
                history.comm_bytes, result.by_tag,
            ))
            more_evals, test_acc = time_evals(runner, 2 * sizes.evals, ops)
            eval_walls += more_evals
    if not launches:
        raise RuntimeError(f"{w.name}: no launch completed")

    first = launches[0]
    rss = peak_rss_mb()  # before the gate below allocates its twins

    losses = first.losses
    ops.failed += sum(
        1 for run in launches for loss in run.losses if not math.isfinite(loss)
    )
    epoch_ms = min(quiet_ms_p50(run.walls, EPOCH_BLOCK) for run in launches)
    to_target = statistics.median(
        epochs_to_target(run.losses, w.target_loss) for run in launches
    )
    comm_per_epoch = statistics.fmean(first.comm[sizes.warmup:])
    final_loss = statistics.fmean(losses[-10:])

    checks["ledger_tags_sum_to_total"] = all(
        sum(tags.values()) == total
        for run in launches for tags, total in zip(run.tags, run.comm)
    )
    checks["launches_agree"] = all(
        run.comm == first.comm and run.losses == losses for run in launches
    )
    if w.transport is not None:
        reference = reference_ledger(w, graph, partition, seed, 3, ops)
        checks["ledger_matches_in_process"] = first.tags[:3] == reference
    if w.p >= 1.0 and w.transport is None:
        checks["matches_full_graph"] = matches_full_graph(
            w, graph, partition, seed, ops
        )
    if sizes.converged:
        checks["loss_decreased"] = final_loss < statistics.fmean(losses[:10])
        checks["target_reached"] = to_target < len(losses)
        checks["test_acc_floor"] = test_acc >= w.acc_floor

    metrics: Dict[str, Metric] = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "epoch_ms_p50": (epoch_ms, "ms"),
        "time_to_target_s": (to_target * epoch_ms / 1e3, "s"),
        "eval_ms_p50": (quiet_ms_p50(eval_walls, sizes.evals), "ms"),
        "comm_bytes_per_epoch": (comm_per_epoch, "bytes"),
        "peak_rss_mb": (rss, "MB"),
        "mean_loss": (statistics.fmean(losses), "loss"),
        "test_acc": (test_acc, "frac"),
    }
    return {
        "workload": w.name,
        "seed": seed,
        "metrics": metrics,
        "checks": checks,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "samples": {
            "setup_s": len(setup_samples),
            "epoch_ms_p50": sum(len(run.walls) for run in launches),
            "eval_ms_p50": len(eval_walls),
            "epochs_to_target": to_target,
            "final_loss": final_loss,
        },
    }


# ----------------------------------------------------------------------
# The traced run: per-layer metrics
# ----------------------------------------------------------------------
def run_traced(w: Workload, seed: int, sizes: Sizes) -> dict:
    ops = Ops()
    tracer = Tracer()
    epochs = sizes.epochs(w)
    m: Dict[str, Metric] = {}

    with tracer.span("graph.generate") as span:
        graph = make_graph(w, seed, sizes)
    m["graph.generate_s"] = (span["end"] - span["start"], "s")
    m["graph.nodes"] = (graph.num_nodes, "count")
    m["graph.edges"] = (graph.adj.nnz, "count")

    # -- one cold set-up, every injected probe in place -----------------
    model = make_model(w, graph)
    sampler = probes.TimingSampler(make_sampler(w), model.dims, tracer)
    comm = probes.CountingCommunicator(w.parts, tracer)
    backend = probes.register_timing_backend(tracer)
    with tracer.span("setup"):
        with tracer.span("partition.partition") as part_span:
            partition = partition_graph(graph, w.parts, method="metis", seed=seed)
        with tracer.span("core.runtime_build") as build_span:
            traced = in_process_cls(w)(
                graph, partition, model, sampler, lr=LR, seed=seed,
                optimizer=probes.TimingAdam(model.parameters(), LR, tracer),
                transport=comm, kernel_backend=backend,
            )
    ops.attempted += 1
    stats = partition_stats(graph.adj, partition)
    sizes_per_part = partition.part_sizes()
    m["partition.partition_s"] = (part_span["end"] - part_span["start"], "s")
    m["partition.total_boundary"] = (stats.total_boundary, "count")
    m["partition.edge_cut"] = (stats.edge_cut, "count")
    m["partition.max_boundary_inner_ratio"] = (stats.max_ratio, "ratio")
    m["partition.balance"] = (sizes_per_part.max() / sizes_per_part.mean(), "ratio")
    m["core.runtime_build_s"] = (build_span["end"] - build_span["start"], "s")

    # -- traced epochs, interleaved with the same epochs on an unprobed
    # twin so that machine drift cancels out of trace.overhead_frac ----
    plain = in_process_cls(w)(
        graph, partition, make_model(w, graph), make_sampler(w), lr=LR, seed=seed
    )
    total_epochs = sizes.warmup + epochs
    timed = range(sizes.warmup, total_epochs)
    traced_walls: List[float] = []
    plain_walls: List[float] = []
    tags: List[Dict[str, int]] = []
    for epoch in range(total_epochs):
        if epoch == sizes.warmup:
            gc.collect()
        traced_wall = timed_epoch(traced, ops, tracer, epoch)
        plain_wall = timed_epoch(plain, ops)
        tags.append(dict(comm.meter.by_tag))
        if epoch in timed:
            traced_walls.append(traced_wall)
            plain_walls.append(plain_wall)
    epoch_walls = plain_walls
    m["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
        "frac",
    )

    epoch_total = sum(traced_walls)

    def share(name: str) -> float:
        by_epoch = tracer.per_epoch(name)
        return sum(by_epoch.get(e, 0.0) for e in timed) / epoch_total

    m["sampler.plan_ms_p50"] = (ms_p50(tracer.durations("sampler.plan")), "ms")
    m["sampler.epoch_share"] = (share("sampler.plan"), "frac")
    bytes_per_scalar = comm.bytes_per_scalar
    kept = statistics.fmean(t.get("sample_sync", 0) for t in tags) / (
        (w.parts - 1) * bytes_per_scalar
    )
    m["sampler.kept_frac"] = (kept / stats.total_boundary, "frac")

    m["kernels.spmm_fwd_ms_p50"] = (ms_p50(tracer.durations("kernels.spmm_fwd")), "ms")
    m["kernels.spmm_bwd_ms_p50"] = (ms_p50(tracer.durations("kernels.spmm_bwd")), "ms")
    m["kernels.spmm_calls_per_epoch"] = (
        (tracer.calls("kernels.spmm_fwd") + tracer.calls("kernels.spmm_bwd"))
        / total_epochs, "count",
    )
    m["kernels.epoch_share"] = (
        share("kernels.spmm_fwd") + share("kernels.spmm_bwd"), "frac"
    )
    rank0 = traced.runtime.ranks[0]
    m["kernels.fused_build_ms_p50"] = (
        ms_p50(probes.time_fused_build(rank0, make_sampler(w), seed, sizes.reps)),
        "ms",
    )

    fwd, bwd = probes.time_shard_step(
        graph, rank0, make_model(w, graph), make_sampler(w), seed, sizes.reps
    )
    m["nn.fwd_ms_p50"] = (ms_p50(fwd), "ms")
    m["nn.bwd_ms_p50"] = (ms_p50(bwd), "ms")
    m["nn.num_parameters"] = (model.num_parameters(), "count")
    m["optim.step_ms_p50"] = (ms_p50(tracer.durations("optim.step")), "ms")

    own = tracer.self_seconds()
    m["trainer.self_ms_p50"] = (ms_p50([
        own[s["id"]] for s in tracer.spans
        if s["name"] == "trainer.epoch" and s["epoch"] in timed
    ]), "ms")
    flops_per_epoch = sampler.flops / total_epochs
    m["trainer.flops_per_epoch"] = (flops_per_epoch, "flop")

    for tag in ("forward", "backward", "sample_sync", "reduce"):
        m[f"comm.bytes_{tag}"] = (
            statistics.fmean(t.get(tag, 0) for t in tags), "bytes"
        )
    m["comm.p2p_calls_per_epoch"] = (comm.p2p_calls / total_epochs, "count")
    m["comm.meter_ms_p50"] = (ms_p50(tracer.durations("comm.meter")), "ms")

    # -- the real-rank layers: one launch + the wire microbenchmark ------
    extra: dict = {}
    for name, unit in (
        ("transport.launch_s", "s"), ("transport.exchange_ms_p50", "ms"),
        ("transport.allreduce_ms_p50", "ms"), ("executor.blocked_frac", "frac"),
        ("executor.blocked_ms_p50", "ms"), ("executor.compute_ms_p50", "ms"),
        ("executor.rank_wall_imbalance", "ratio"),
        ("executor.launch_overhead_s", "s"),
    ):
        m[name] = (0.0, unit)  # layer not on an in-process workload's path
    if w.transport is not None:
        executor = make_runner(w, graph, partition, seed)
        gc.collect()
        with tracer.span("executor.launch"):
            result = ops.attempt(executor.train, sizes.warmup + epochs)
        if result is None:
            raise RuntimeError(f"{w.name}: traced launch failed")
        ops.attempted += sizes.warmup + epochs
        epoch_walls = result.history.wall_seconds[sizes.warmup:]
        rank_walls = np.asarray(result.epoch_wall_seconds[sizes.warmup:])
        blocked = np.asarray(result.blocked_recv_seconds[sizes.warmup:])
        m["executor.blocked_frac"] = (result.blocked_fraction(sizes.warmup), "frac")
        m["executor.blocked_ms_p50"] = (ms_p50(list(blocked.mean(axis=1))), "ms")
        m["executor.compute_ms_p50"] = (
            ms_p50(list((rank_walls - blocked).mean(axis=1))), "ms"
        )
        m["executor.rank_wall_imbalance"] = (
            float(np.median(rank_walls.max(axis=1) / rank_walls.mean(axis=1))),
            "ratio",
        )
        m["executor.launch_overhead_s"] = (
            result.launch_seconds - sum(result.history.wall_seconds), "s"
        )
        flops_per_epoch = statistics.fmean(sum(e) for e in result.flops)
        m["trainer.flops_per_epoch"] = (flops_per_epoch, "flop")
        extra["executor"] = {
            "epoch_wall_seconds": result.epoch_wall_seconds,
            "blocked_recv_seconds": result.blocked_recv_seconds,
        }
        with tracer.span("transport.wire"):
            wire = ops.attempt(
                probes.time_wire, resolve_transport(w.transport, w.parts),
                max(1, round(kept / w.parts)), HIDDEN, model.num_parameters(),
                max(sizes.reps, 2),
            )
        if wire is None:
            raise RuntimeError(f"{w.name}: wire microbenchmark failed")
        m["transport.launch_s"] = (wire[0], "s")
        m["transport.exchange_ms_p50"] = (ms_p50(wire[1]), "ms")
        m["transport.allreduce_ms_p50"] = (ms_p50(wire[2]), "ms")

    epoch_s = statistics.median(epoch_walls)
    m["trainer.epoch_ms_p90"] = (
        statistics.quantiles(epoch_walls, n=10)[-1] * 1e3, "ms"
    )
    m["trainer.gflops_per_s"] = (flops_per_epoch / epoch_s / 1e9, "gflop/s")

    # -- the plain single-worker baseline -------------------------------
    baseline = FullGraphTrainer(graph, make_model(w, graph), lr=LR, seed=seed)
    gc.collect()
    for _ in range(sizes.warmup + sizes.reps):
        ops.attempt(baseline.train_epoch)
    baseline_s = statistics.median(baseline.wall_seconds[sizes.warmup:])
    m["baseline.fullgraph_epoch_ms_p50"] = (baseline_s * 1e3, "ms")
    m["trainer.partition_overhead_x"] = (epoch_s / baseline_s, "x")

    losses = traced.history.loss + plain.history.loss + baseline.loss_history
    ops.failed += sum(1 for loss in losses if not math.isfinite(loss))
    trace_path = RESULTS_DIR / f"trace-{w.name}.json"
    tracer.dump(trace_path, {"workload": w.name, "seed": seed, **extra})
    return {
        "workload": w.name,
        "seed": seed,
        "metrics": m,
        "checks": {"trace_written": trace_path.is_file()},
        "attempted": ops.attempted,
        "failed": ops.failed,
        "samples": {"epochs": epochs, "reps": sizes.reps},
        "trace_file": str(trace_path),
    }
