"""Shared plumbing for the sampling-based training baselines.

Every baseline (GraphSAGE neighbour sampling, FastGCN, LADIES,
ClusterGCN, GraphSAINT, VR-GCN) trains the same kind of model on the
same graph but builds its per-step computation from a different sample.
This module centralises:

* minibatch iteration over the training set,
* full-graph evaluation (the common protocol — all methods are scored
  on unsampled inference),
* bookkeeping of loss, wall time, *sampled-structure statistics*
  (FLOPs executed, edges touched while sampling) that feed the
  epoch-time model used by Tables 5/11/12.

Timing note: all methods run on the same numpy substrate here, so their
*relative* wall-clock is meaningful; the harness additionally reports a
modelled GPU epoch time computed from the recorded FLOPs and sampling
ops (see :mod:`repro.bench.timemodel`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..graph.graph import Graph
from ..graph.propagation import mean_aggregation, sym_norm
from ..nn import functional as F
from ..nn.metrics import evaluate_full_graph
from ..nn.module import module_dtype
from ..nn.optim import Adam, Optimizer
from ..tensor import Tensor

__all__ = ["BaselineHistory", "MiniBatchTrainer"]


@dataclass
class BaselineHistory:
    """Per-epoch records common to every baseline."""

    loss: List[float] = field(default_factory=list)
    val_metric: List[float] = field(default_factory=list)
    test_metric: List[float] = field(default_factory=list)
    eval_epochs: List[int] = field(default_factory=list)
    wall_seconds: List[float] = field(default_factory=list)
    sampling_seconds: List[float] = field(default_factory=list)
    compute_flops: List[float] = field(default_factory=list)
    sampler_edges: List[float] = field(default_factory=list)

    @property
    def best_val(self) -> float:
        return max(self.val_metric) if self.val_metric else float("nan")

    def test_at_best_val(self) -> float:
        if not self.val_metric:
            return float("nan")
        return self.test_metric[int(np.argmax(self.val_metric))]


class MiniBatchTrainer:
    """Base class: batching, evaluation, history, epoch loop."""

    name = "abstract"

    def __init__(
        self,
        graph: Graph,
        model,
        lr: float = 0.01,
        batch_size: int = 512,
        seed: int = 0,
        optimizer: Optional[Optimizer] = None,
        aggregation: str = "mean",
    ) -> None:
        self.graph = graph
        self.model = model
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.dropout_rng = np.random.default_rng(seed + 1)
        self.optimizer = optimizer or Adam(model.parameters(), lr=lr)
        # evaluate() runs in the model's dtype (see evaluate_full_graph).
        normalise = mean_aggregation if aggregation == "mean" else sym_norm
        self.eval_prop = normalise(graph.adj, dtype=module_dtype(model))
        self.train_nodes = np.flatnonzero(graph.train_mask)
        self.history = BaselineHistory()
        # Per-epoch accumulators, reset by train_epoch.
        self._flops = 0.0
        self._sampler_edges = 0.0
        self._sampling_seconds = 0.0

    # ------------------------------------------------------------------
    def _batches(self) -> Iterator[np.ndarray]:
        order = self.rng.permutation(self.train_nodes)
        for start in range(0, len(order), self.batch_size):
            yield order[start:start + self.batch_size]

    def _loss(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        return F.task_loss(logits, labels, self.graph.multilabel)

    # ------------------------------------------------------------------
    def train_step(self, batch: np.ndarray) -> float:  # pragma: no cover
        raise NotImplementedError

    def train_epoch(self) -> float:
        self.model.train()
        self._flops = 0.0
        self._sampler_edges = 0.0
        self._sampling_seconds = 0.0
        t0 = time.perf_counter()
        losses = []
        for batch in self._batches():
            losses.append(self.train_step(batch))
        wall = time.perf_counter() - t0
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        self.history.loss.append(mean_loss)
        self.history.wall_seconds.append(wall)
        self.history.sampling_seconds.append(self._sampling_seconds)
        self.history.compute_flops.append(self._flops)
        self.history.sampler_edges.append(self._sampler_edges)
        return mean_loss

    # ------------------------------------------------------------------
    def evaluate(self) -> Dict[str, float]:
        return evaluate_full_graph(
            self.model, self.graph,
            lambda x: self.model.full_forward(self.eval_prop, x, self.dropout_rng),
        )

    def train(self, epochs: int, eval_every: int = 0) -> BaselineHistory:
        for epoch in range(epochs):
            self.train_epoch()
            if eval_every and (
                epoch % eval_every == eval_every - 1 or epoch == epochs - 1
            ):
                scores = self.evaluate()
                self.history.val_metric.append(scores["val"])
                self.history.test_metric.append(scores["test"])
                self.history.eval_epochs.append(epoch)
        return self.history

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def _record_sampling(self, seconds: float, edges: float) -> None:
        self._sampling_seconds += seconds
        self._sampler_edges += edges

    def _record_flops(self, flops: float) -> None:
        self._flops += flops
