"""Command-line driver mirroring the paper artifact's ``main.py``.

The BNS-GCN artifact exposes a ``main.py`` whose options choose the
dataset, number of partitions, sampling rate, partitioner, model and
training hyper-parameters.  This module provides the same workflow:

    python -m repro --dataset reddit-sim --n-partitions 4 \\
        --sampling-rate 0.1 --n-epochs 200 --n-hidden 64 --n-layers 2

It prints per-eval progress and a final summary with the metered
communication and the modelled epoch breakdown.

``dist-train`` runs the same training with ranks actually executing
behind a data-moving transport (one worker process per partition by
default), exchanging boundary features/gradients for real:

    python -m repro dist-train --dataset reddit-sim --n-partitions 4 \\
        --sampling-rate 0.1 --n-epochs 20 --transport multiprocess

``lint`` runs the repo's invariant static-analysis passes (dtype-width
discipline, metering discipline, SpMM kept in the kernel layer,
concurrency hygiene, determinism, resource lifecycle) over ``src/`` and
``benchmarks/``; every finding fails the run unless waived inline at
its line:

    python -m repro lint
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .bench.tables import format_table
from .core.sampler import MODES, SAMPLER_NAMES, BoundarySampler, make_sampler
from .core.trainer import DistributedTrainer
from .core.gat_trainer import DistributedGATTrainer
from .core.pipeline import PipelinedTrainer
from .dist.cost_model import RTX2080TI_CLUSTER
from .dist.executor import SCHEDULES
from .graph.datasets import DATASET_SPECS, load_dataset
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.models import GATModel, GCNModel, GraphSAGEModel
from .nn.schedulers import CosineAnnealingLR, StepLR
from .partition import partition_graph

__all__ = [
    "build_parser",
    "build_dist_parser",
    "build_sampler",
    "main",
    "dist_train_main",
]


def _common_options() -> argparse.ArgumentParser:
    """Options shared by the simulated and dist-train drivers."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--dataset", default="reddit-sim", choices=sorted(DATASET_SPECS),
        help="which synthetic dataset analogue to train on",
    )
    common.add_argument("--scale", type=float, default=0.25,
                        help="dataset size multiplier (1.0 = full analogue)")
    common.add_argument("--n-partitions", type=int, default=4)
    common.add_argument(
        "--partition-method", default="metis",
        choices=("metis", "random", "spectral"),
    )
    common.add_argument(
        "--sampling-rate", type=float, default=0.1,
        help="boundary node sampling rate p (1.0 = vanilla)",
    )
    common.add_argument(
        "--sampler", default="bns", choices=SAMPLER_NAMES,
        help="boundary sampling strategy: bns (uniform), importance "
             "(degree-proportional keep probabilities, same expected "
             "traffic as bns at equal p, lower variance on skewed "
             "boundaries), bes/dropedge (Table 9 ablations), full",
    )
    common.add_argument(
        "--mode", default="renorm", choices=MODES,
        help="estimator mode: renorm (surviving-degree renormalisation, "
             "the training default) or scale (unbiased 1/p — per-node "
             "1/pi for --sampler importance — column rescale)",
    )
    common.add_argument(
        "--p-min", type=float, default=None,
        help="importance sampling clip floor for the keep probabilities "
             "(default p/4; only used by --sampler importance)",
    )
    common.add_argument(
        "--dtype", default=None, choices=("float32", "float64"),
        help="numeric precision of tensors, operators and wire payloads; "
             "the byte ledger meters the chosen scalar width (8 B fp64, "
             "4 B fp32).  Defaults to the library default (REPRO_DTYPE "
             "env var, else float64)",
    )
    common.add_argument("--n-hidden", type=int, default=64)
    common.add_argument("--n-layers", type=int, default=2)
    common.add_argument("--dropout", type=float, default=0.5)
    common.add_argument("--lr", type=float, default=0.01)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--quiet", action="store_true")
    return common


def build_parser() -> argparse.ArgumentParser:
    """Argument parser mirroring the artifact's main.py options."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Partition-parallel GCN training with boundary node sampling",
        epilog="subcommands: 'repro dist-train' runs the same training "
               "with real multiprocess ranks behind a data-moving "
               "transport (see 'repro dist-train --help'); 'repro lint' "
               "runs the invariant static-analysis passes (see "
               "'repro lint --help')",
        parents=[_common_options()],
    )
    parser.add_argument(
        "--partition-objective", default="volume", choices=("volume", "cut"),
        help="METIS-like objective (the paper uses communication volume)",
    )
    parser.add_argument(
        "--model", default="sage", choices=("sage", "gcn", "gat")
    )
    parser.add_argument("--n-epochs", type=int, default=200)
    parser.add_argument("--eval-every", type=int, default=25)
    parser.add_argument(
        "--pipelined", action="store_true",
        help="use the PipeGCN-style pipelined trainer (stale boundary "
             "features; communication overlaps compute)",
    )
    parser.add_argument(
        "--patience", type=int, default=0,
        help="early-stop after this many evaluations without val improvement",
    )
    parser.add_argument(
        "--lr-schedule", default="none", choices=("none", "step", "cosine"),
        help="optional learning-rate schedule over --n-epochs",
    )
    parser.add_argument(
        "--save-checkpoint", metavar="PATH", default=None,
        help="write model+optimizer state here after training",
    )
    parser.add_argument(
        "--resume", metavar="PATH", default=None,
        help="load model+optimizer state from a checkpoint before training",
    )
    return parser


def build_dist_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``dist-train`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro dist-train",
        description="Partition-parallel BNS training with real "
                    "multiprocess (or threaded) ranks",
        parents=[_common_options()],
    )
    parser.add_argument("--model", default="sage", choices=("sage", "gcn"))
    parser.add_argument("--n-epochs", type=int, default=20)
    parser.add_argument(
        "--transport", default="multiprocess",
        choices=("multiprocess", "shm", "local"),
        help="how ranks execute: worker processes over pipes "
             "(multiprocess), worker processes over zero-copy "
             "shared-memory rings with pipes for control only (shm), "
             "or threads over queues (local)",
    )
    parser.add_argument(
        "--schedule", default="synchronous", choices=SCHEDULES,
        help="rank execution schedule: synchronous blocks on every "
             "layer's boundary exchange; pipelined overlaps it with "
             "compute via staleness-1 features (PipeGCN-style) — same "
             "bytes, measured lower blocked-in-recv time",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="launch deadline in seconds; a hung rank fails fast",
    )
    return parser


def build_sampler(args: argparse.Namespace) -> BoundarySampler:
    """The one sampler construction point shared by ``train``,
    ``dist-train`` and the bench drivers: --sampler/--sampling-rate/
    --mode/--p-min resolved through
    :func:`~repro.core.sampler.make_sampler` (bns and importance
    collapse to the zero-overhead full sampler at p >= 1)."""
    return make_sampler(
        args.sampler, args.sampling_rate, mode=args.mode, p_min=args.p_min
    )


def dist_train_main(argv: Sequence[str]) -> int:
    """Run the ``dist-train`` subcommand; returns a process exit code."""
    from .dist.executor import ProcessRankExecutor

    parser = build_dist_parser()
    args = parser.parse_args(argv)
    if args.n_epochs < 1:
        parser.error(f"--n-epochs must be >= 1, got {args.n_epochs}")
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if not args.quiet:
        print(f"loaded {graph}")
    partition = partition_graph(
        graph, args.n_partitions, method=args.partition_method, seed=args.seed
    )

    rng = np.random.default_rng(args.seed + 7)
    model_cls = GraphSAGEModel if args.model == "sage" else GCNModel
    model = model_cls(
        graph.feature_dim, args.n_hidden, graph.num_classes,
        args.n_layers, args.dropout, rng, dtype=args.dtype,
    )
    sampler = build_sampler(args)
    executor = ProcessRankExecutor(
        graph, partition, model, sampler,
        transport=args.transport, lr=args.lr, seed=args.seed,
        aggregation="sym" if args.model == "gcn" else "mean",
        schedule=args.schedule, timeout=args.timeout,
        dtype=args.dtype,
    )
    if not args.quiet:
        print(
            f"launching {args.n_partitions} ranks on the "
            f"{executor.transport.name} transport "
            f"({args.schedule} schedule)"
        )
    result = executor.train(args.n_epochs)
    scores = executor.evaluate()

    history = result.history
    # Measured compute/communication split: skip the warm-up epoch so
    # the pipelined figure reflects the steady state.
    steady = 1 if args.n_epochs > 1 else 0
    rows = [
        ["transport", executor.transport.name],
        ["schedule", args.schedule],
        ["dtype", f"{executor.dtype} ({executor.transport.bytes_per_scalar} B/scalar)"],
        ["test score", f"{scores['test']:.4f}"],
        ["val score", f"{scores['val']:.4f}"],
        ["final loss", f"{history.loss[-1]:.4f}"],
        ["comm / epoch", f"{np.mean(history.comm_bytes) / 1e6:.2f} MB"],
        ["wall / epoch", f"{np.mean(history.wall_seconds) * 1e3:.1f} ms"],
        ["blocked in recv", f"{result.blocked_fraction(steady) * 100:.1f}% "
                            "of rank-seconds"],
    ]
    for tag, nbytes in sorted(result.by_tag[-1].items()):
        rows.append([f"  bytes [{tag}]", f"{nbytes / 1e6:.3f} MB"])
    print(format_table(["metric", "value"], rows, title="\ndist-train summary"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Train one configuration from CLI args; returns a process exit code."""
    arg_list = list(sys.argv[1:]) if argv is None else list(argv)
    if arg_list and arg_list[0] == "dist-train":
        return dist_train_main(arg_list[1:])
    if arg_list and arg_list[0] == "lint":
        from .analysis.lint import main as lint_main

        return lint_main(arg_list[1:])
    args = build_parser().parse_args(arg_list)
    if args.model == "gat":
        # The GAT trainer draws uniform BNS over edge lists and has no
        # pipelined variant; refuse what it cannot honour.
        unsupported = [flag for flag, given in (
            ("--pipelined", args.pipelined),
            (f"--sampler {args.sampler}", args.sampler not in ("bns", "full")),
            (f"--mode {args.mode}", args.mode != "renorm"),
            ("--p-min", args.p_min is not None),
        ) if given]
        if unsupported:
            print(f"error: {', '.join(unsupported)} is not supported with "
                  "--model gat", file=sys.stderr)
            return 2
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if not args.quiet:
        print(f"loaded {graph}")

    partition = partition_graph(
        graph, args.n_partitions, method=args.partition_method,
        seed=args.seed, objective=args.partition_objective,
    )
    if not args.quiet:
        sizes = partition.part_sizes()
        print(
            f"partitioned with {partition.method}: sizes "
            f"[{sizes.min()}..{sizes.max()}]"
        )

    rng = np.random.default_rng(args.seed + 7)
    if args.model == "gat":
        model = GATModel(
            graph.feature_dim, args.n_hidden, graph.num_classes,
            args.n_layers, args.dropout, rng, num_heads=2, dtype=args.dtype,
        )
        trainer = DistributedGATTrainer(
            graph, partition, model,
            p=1.0 if args.sampler == "full" else args.sampling_rate,
            lr=args.lr, seed=args.seed,
            cluster=RTX2080TI_CLUSTER, dtype=args.dtype,
        )
    else:
        model_cls = GraphSAGEModel if args.model == "sage" else GCNModel
        model = model_cls(
            graph.feature_dim, args.n_hidden, graph.num_classes,
            args.n_layers, args.dropout, rng, dtype=args.dtype,
        )
        sampler = build_sampler(args)
        trainer_cls = PipelinedTrainer if args.pipelined else DistributedTrainer
        trainer = trainer_cls(
            graph, partition, model, sampler, lr=args.lr, seed=args.seed,
            cluster=RTX2080TI_CLUSTER,
            aggregation="sym" if args.model == "gcn" else "mean",
            dtype=args.dtype,
        )

    if args.resume:
        epoch = load_checkpoint(args.resume, model, trainer.optimizer)
        if not args.quiet:
            print(f"resumed from {args.resume} (epoch {epoch})")

    scheduler = None
    if args.lr_schedule == "step":
        scheduler = StepLR(
            trainer.optimizer, step_size=max(args.n_epochs // 3, 1), gamma=0.3
        )
    elif args.lr_schedule == "cosine":
        scheduler = CosineAnnealingLR(trainer.optimizer, t_max=args.n_epochs)
    history = trainer.train(
        args.n_epochs, eval_every=args.eval_every,
        verbose=not args.quiet, patience=args.patience,
        scheduler=scheduler,
    )

    if args.save_checkpoint:
        path = save_checkpoint(
            args.save_checkpoint, model, trainer.optimizer,
            epoch=len(history.loss),
        )
        if not args.quiet:
            print(f"checkpoint written to {path}")

    scores = trainer.evaluate()
    rows = [
        ["dtype", f"{trainer.dtype} ({trainer.comm.bytes_per_scalar} B/scalar)"],
        ["test score", f"{scores['test']:.4f}"],
        ["val score", f"{scores['val']:.4f}"],
        ["best val / its test", f"{history.best_val:.4f} / {history.test_at_best_val():.4f}"],
        ["final loss", f"{history.loss[-1]:.4f}"],
        ["comm / epoch", f"{np.mean(history.comm_bytes) / 1e6:.2f} MB"],
        ["wall / epoch", f"{np.mean(history.wall_seconds) * 1e3:.1f} ms (this process)"],
    ]
    if history.modeled:
        bd = history.modeled[-1]
        rows.append(["modelled epoch", f"{bd.total * 1e3:.2f} ms "
                     f"(comp {bd.compute * 1e3:.2f} / comm {bd.communication * 1e3:.2f} "
                     f"/ reduce {bd.reduce * 1e3:.2f})"])
    print(format_table(["metric", "value"], rows, title="\nsummary"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
