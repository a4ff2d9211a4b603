"""Partition-parallel GCN training — Algorithm 1 end to end.

:class:`DistributedTrainer` executes boundary-sampled partition-parallel
training exactly as the paper's Algorithm 1, with all ranks simulated in
one process:

* line 4-5:  each rank draws its sampled boundary set U_i through the
  configured :class:`~repro.core.sampler.BoundarySampler`;
* line 6-7:  the kept index sets are "broadcast" (metered through the
  :class:`~repro.dist.comm.SimulatedCommunicator`) and resolved into
  per-owner gather lists (precomputed sort makes this a group-by);
* line 9-10: per layer, boundary features are gathered from their
  owners (metered as forward traffic) and each rank runs its local
  layer on ``[H_i ; H_{U_i}]`` with the 1/p-rescaled operator;
* line 12-13: per-rank loss over inner training nodes; one global
  backward pass pushes boundary-feature gradients back through the
  fetched rows (metered as backward traffic — the transpose of forward
  for every layer but the first: layer 0's input is data, so no
  gradient flows to it and none is metered);
* line 14-15: the gradient AllReduce is metered, and because all ranks
  share one model replica in-process, the accumulated gradient already
  equals the AllReduce-sum.

With ``FullBoundarySampler`` (p=1) and dropout disabled the trainer is
numerically identical to single-device full-graph training — the
central correctness property, asserted in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..dist.transport import Transport, resolve_transport
from ..dist.cost_model import (
    SECONDS_PER_SAMPLER_EDGE,
    ClusterSpec,
    EpochBreakdown,
    epoch_time,
    layer_flops,
)
from ..graph.graph import Graph
from ..nn import functional as F
from ..nn.metrics import evaluate_full_graph
from ..nn.module import resolve_model_dtype
from ..nn.optim import Adam, Optimizer
from ..partition.types import PartitionResult
from ..tensor import Tensor, gather_concat, gather_rows, relu, resolve_backend, use_backend
from .bns import PartitionRuntime, RankData, derive_seeds
from .sampler import BoundarySampler, EpochPlan, FullBoundarySampler, plan_sampling_ops

__all__ = ["TrainHistory", "DistributedTrainer", "BNSTrainer"]


@dataclass
class TrainHistory:
    """Per-epoch records of one training run."""

    loss: List[float] = field(default_factory=list)
    val_metric: List[float] = field(default_factory=list)
    test_metric: List[float] = field(default_factory=list)
    eval_epochs: List[int] = field(default_factory=list)
    comm_bytes: List[int] = field(default_factory=list)
    sampling_seconds: List[float] = field(default_factory=list)
    wall_seconds: List[float] = field(default_factory=list)
    modeled: List[EpochBreakdown] = field(default_factory=list)

    @property
    def best_val(self) -> float:
        return max(self.val_metric) if self.val_metric else float("nan")

    def test_at_best_val(self) -> float:
        """Test metric at the best-validation epoch (paper protocol)."""
        if not self.val_metric:
            return float("nan")
        return self.test_metric[int(np.argmax(self.val_metric))]


class DistributedTrainer:
    """Boundary-sampled partition-parallel trainer (Algorithm 1).

    Parameters
    ----------
    graph / partition:
        The full graph and its k-way partition.
    model:
        A :class:`GraphSAGEModel` or :class:`GCNModel`; its layer count
        and widths drive both computation and byte metering.
    sampler:
        Boundary sampling strategy; ``FullBoundarySampler`` = vanilla.
    lr:
        Adam learning rate.
    seed:
        Seeds the per-rank sampling RNGs and the dropout RNG.
    cluster:
        Optional :class:`ClusterSpec`; when given, every epoch also
        records a modelled :class:`EpochBreakdown` built from the
        *metered* traffic of that epoch.
    transport:
        Optional :class:`~repro.dist.transport.Transport` to meter
        through (any implementation conforms; the default is a fresh
        :class:`~repro.dist.comm.SimulatedCommunicator`).  The trainer
        runs every rank in-process either way — to actually execute
        ranks behind a data-moving transport use
        :class:`~repro.dist.executor.ProcessRankExecutor`.
    dtype:
        Numeric precision of the run (float32/float64).  Omitted, it is
        taken from the model's parameters, so metering is honest by
        construction: a default transport's ``bytes_per_scalar`` is the
        actual scalar width shipped, not an assumed 4 bytes.  Given
        explicitly, the model is cast to it in place.
    kernel_backend:
        Name of a backend registered with
        :func:`~repro.tensor.kernels.register_backend` that the epoch
        bodies run under — the seam a benchmark uses to wrap the fused
        SpMM kernel.  ``None`` keeps the fused kernel.
    """

    #: Whether the modelled epoch hides boundary traffic behind compute
    #: (``EpochBreakdown.overlap_communication``); blocking exchanges don't.
    overlap_communication = False

    def __init__(
        self,
        graph: Graph,
        partition: PartitionResult,
        model,
        sampler: Optional[BoundarySampler] = None,
        lr: float = 0.01,
        seed: int = 0,
        cluster: Optional[ClusterSpec] = None,
        optimizer: Optional[Optimizer] = None,
        aggregation: str = "mean",
        transport: Optional[Transport] = None,
        dtype=None,
        kernel_backend=None,
    ) -> None:
        self.dtype = resolve_model_dtype(model, dtype, optimizer)
        self.graph = graph
        self.runtime = PartitionRuntime(
            graph, partition, aggregation=aggregation, dtype=self.dtype
        )
        self.kernel_backend = resolve_backend(kernel_backend)
        self.model = model
        self.sampler = sampler or FullBoundarySampler()
        self.comm = resolve_transport(
            transport, partition.num_parts, dtype=self.dtype
        )
        self.cluster = cluster
        self.optimizer = optimizer or Adam(model.parameters(), lr=lr)
        # Independent sampling stream per rank (Algorithm 1 samples
        # locally and independently), plus one stream for dropout.
        sample_seeds, dropout_seed = derive_seeds(seed, partition.num_parts)
        self.sample_rngs = [np.random.default_rng(s) for s in sample_seeds]
        self.dropout_rng = np.random.default_rng(dropout_seed)
        self.history = TrainHistory()
        self._loss_denom = F.loss_denominator(graph)
        self._features = [
            np.asarray(graph.features[r.inner], dtype=self.dtype)
            for r in self.runtime.ranks
        ]

    # ------------------------------------------------------------------
    @property
    def num_parts(self) -> int:
        return self.runtime.num_parts

    # ------------------------------------------------------------------
    # The five steps of the epoch body a subclass may replace (the
    # pipelined trainer: b, d; the GAT trainer: a, c, e).  Everything
    # else — metering call sites, RNG order, loss reduction, AllReduce,
    # bookkeeping — is the same for every in-process trainer.
    def _draw_plan(self, rank: RankData) -> EpochPlan:
        """(a) Lines 4-5: rank ``rank.rank``'s sampling decision."""
        return self.sampler.plan(rank, self.sample_rngs[rank.rank])

    def _boundary_source(
        self, layer_idx: int, h_ranks: List[Tensor]
    ) -> Callable[[int, np.ndarray], Tuple[Tensor, Optional[np.ndarray]]]:
        """(b) Called once per layer with every rank's layer input;
        returns ``fetch(owner, rows)``, the ``(tensor, rows)`` block a
        consumer stacks under its own (``rows=None``: all of it) — here
        ``owner``'s input at ``rows``, so backward returns the boundary
        gradients to those rows."""
        return lambda owner, rows: (h_ranks[owner], rows)

    def _apply_layer(
        self, layer_idx: int, rank: RankData, plan: EpochPlan, h_all: Tensor
    ) -> Tuple[Tensor, float]:
        """(c) Layer ``layer_idx`` on ``[H_i ; H_{U_i}]`` (pre-activation)
        and the forward+backward FLOPs it is priced at."""
        dims = self.model.dims
        out = self.model.layers[layer_idx](plan.prop, h_all, h_all[0:rank.n_inner])
        return out, layer_flops(
            plan.prop.nnz, rank.n_inner, dims[layer_idx], dims[layer_idx + 1]
        )

    def _backward(self, loss: Tensor) -> None:
        """(d) Differentiate the objective; harvest what the next epoch needs."""
        loss.backward()

    def _full_logits(self, features: Tensor) -> Tensor:
        """(e) Unsampled full-graph forward used by :meth:`evaluate`."""
        return self.model.full_forward(self.runtime.full_prop, features, self.dropout_rng)

    # ------------------------------------------------------------------
    def train_epoch(self) -> float:
        """One iteration of Algorithm 1's outer loop; returns the loss.

        The whole epoch body (forward SpMMs and the backward through
        the tape) runs under this trainer's kernel backend, and its
        wall time lands in ``history.wall_seconds``.
        """
        t0 = time.perf_counter()
        with use_backend(self.kernel_backend):
            loss = self._train_epoch()
        self.history.wall_seconds.append(time.perf_counter() - t0)
        return loss

    def _train_epoch(self) -> float:
        self.model.train()
        self.comm.reset()
        ranks = self.runtime.ranks
        dims = self.model.dims
        last = len(self.model.layers) - 1
        multilabel = self.graph.multilabel

        # --- lines 4-7: sample, broadcast selections ------------------
        plans = [self._draw_plan(r) for r in ranks]
        sampling_seconds = sum(pl.sampling_seconds for pl in plans)
        # Modelled (device-scale) sampling cost for the epoch-time
        # breakdown: proportional to the elements the sampler touches
        # (boundary nodes drawn + edges of the selected columns).
        # Plans with zero wall cost are cached (p ∈ {0, 1}): zero ops.
        sampling_ops = sum(
            plan_sampling_ops(r, pl)
            for r, pl in zip(ranks, plans)
            if pl.sampling_seconds > 0.0
        )
        for i, pl in enumerate(plans):
            # Index broadcast: |U_i| int32 ids to every other rank.
            self.comm.broadcast(i, len(pl.kept_positions), "sample_sync")

        # --- lines 8-11: layered forward with exchanges ---------------
        h_ranks = [Tensor(x) for x in self._features]
        flops = np.zeros(self.num_parts)
        for layer_idx in range(last + 1):
            d_in = dims[layer_idx]
            fetch = self._boundary_source(layer_idx, h_ranks)
            new_h = []
            for i, r in enumerate(ranks):
                pl = plans[i]
                blocks = [(h_ranks[i], None)]
                for owner, _pos, owner_rows in r.boundary_groups(pl.kept_positions):
                    blocks.append(fetch(owner, owner_rows))
                    # features now, gradients on the way back — except
                    # at layer 0, whose input is data and has none
                    self.comm.send(owner, i, len(owner_rows) * d_in, "forward")
                    if layer_idx > 0:
                        self.comm.send(i, owner, len(owner_rows) * d_in, "backward")
                h_all = gather_concat(blocks) if len(blocks) > 1 else h_ranks[i]
                h_all = self.model.dropout(h_all, self.dropout_rng)
                out, layer_cost = self._apply_layer(layer_idx, r, pl, h_all)
                new_h.append(relu(out) if layer_idx < last else out)
                flops[i] += layer_cost
            h_ranks = new_h

        # --- lines 12-13: loss and backward ----------------------------
        total = None
        for i, r in enumerate(ranks):
            if r.train_local.size == 0:
                continue
            logits = gather_rows(h_ranks[i], r.train_local)
            part_loss = F.task_loss(
                logits, r.labels[r.train_local], multilabel, reduction="sum"
            )
            total = part_loss if total is None else total + part_loss
        if total is None:
            raise RuntimeError("no training nodes in any partition")
        loss = total * (1.0 / self._loss_denom)
        self.optimizer.zero_grad()
        self._backward(loss)

        # --- lines 14-15: AllReduce + update ---------------------------
        # Snapshot point-to-point traffic first: the collective is
        # priced from the model size, not as pairwise bytes.
        p2p_bytes = self.comm.pairwise.copy()
        self.comm.allreduce(self.model.num_parameters(), "reduce")
        self.optimizer.step()

        # --- bookkeeping -----------------------------------------------
        self.history.loss.append(loss.item())
        self.history.comm_bytes.append(self.comm.total_bytes())
        self.history.sampling_seconds.append(sampling_seconds)
        if self.cluster is not None:
            breakdown = epoch_time(
                per_rank_flops=flops,
                pairwise_comm_bytes=p2p_bytes,
                model_bytes=self.model.num_parameters() * self.comm.bytes_per_scalar,
                cluster=self.cluster,
                sampling_seconds=sampling_ops * SECONDS_PER_SAMPLER_EDGE,
            )
            breakdown.overlap_communication = self.overlap_communication
            self.history.modeled.append(breakdown)
        return loss.item()

    # ------------------------------------------------------------------
    def evaluate(self) -> Dict[str, float]:
        """Full-graph evaluation (standard protocol: no sampling)."""
        return evaluate_full_graph(self.model, self.graph, self._full_logits)

    # ------------------------------------------------------------------
    def train(
        self,
        epochs: int,
        eval_every: int = 0,
        verbose: bool = False,
        patience: int = 0,
        scheduler=None,
    ) -> TrainHistory:
        """Run ``epochs`` iterations; optionally evaluate periodically.

        Parameters
        ----------
        patience:
            If non-zero, stop early once the validation metric has not
            improved for ``patience`` consecutive evaluations (requires
            ``eval_every``).
        scheduler:
            Optional :class:`~repro.nn.schedulers.LRScheduler`; its
            :meth:`step` is called once per epoch
            (:class:`ReduceLROnPlateau` is stepped with the validation
            metric at each evaluation instead).
        """
        if patience and not eval_every:
            raise ValueError("patience requires eval_every > 0")
        from ..nn.schedulers import ReduceLROnPlateau

        plateau = isinstance(scheduler, ReduceLROnPlateau)
        best_val = -float("inf")
        bad_evals = 0
        for epoch in range(epochs):
            loss = self.train_epoch()
            if scheduler is not None and not plateau:
                scheduler.step()
            if eval_every and (epoch % eval_every == eval_every - 1 or epoch == epochs - 1):
                scores = self.evaluate()
                self.history.val_metric.append(scores["val"])
                self.history.test_metric.append(scores["test"])
                self.history.eval_epochs.append(epoch)
                if plateau:
                    scheduler.step(scores["val"])
                if verbose:
                    print(
                        f"epoch {epoch:4d}  loss {loss:.4f}  "
                        f"val {scores['val']:.4f}  test {scores['test']:.4f}"
                    )
                if patience:
                    if scores["val"] > best_val:
                        best_val = scores["val"]
                        bad_evals = 0
                    else:
                        bad_evals += 1
                        if bad_evals >= patience:
                            break
            elif verbose:
                print(f"epoch {epoch:4d}  loss {loss:.4f}")
        return self.history


#: The paper's name for the synchronous boundary-sampled trainer.
BNSTrainer = DistributedTrainer
