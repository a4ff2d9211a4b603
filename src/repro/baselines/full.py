"""Single-device full-graph training — the reference the distributed
trainer must match exactly at p = 1 (and the "ideal" accuracy anchor
for every comparison table)."""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..graph.graph import Graph
from ..graph.propagation import mean_aggregation, sym_norm
from ..nn import functional as F
from ..nn.metrics import evaluate_full_graph
from ..nn.module import resolve_model_dtype
from ..nn.optim import Adam, Optimizer
from ..tensor import Tensor

__all__ = ["FullGraphTrainer"]


class FullGraphTrainer:
    """Plain full-graph gradient descent on one device."""

    def __init__(
        self,
        graph: Graph,
        model,
        lr: float = 0.01,
        seed: int = 0,
        optimizer: Optional[Optimizer] = None,
        aggregation: str = "mean",
        dtype=None,
    ) -> None:
        self.dtype = resolve_model_dtype(model, dtype, optimizer)
        self.graph = graph
        self.model = model
        if aggregation == "mean":
            self.prop = mean_aggregation(graph.adj, dtype=self.dtype)
        elif aggregation == "sym":
            self.prop = sym_norm(graph.adj, dtype=self.dtype)
        else:
            raise ValueError(f"unknown aggregation {aggregation!r}")
        self.optimizer = optimizer or Adam(model.parameters(), lr=lr)
        self.dropout_rng = np.random.default_rng(seed)
        self.loss_history: List[float] = []
        self.wall_seconds: List[float] = []

    def train_epoch(self) -> float:
        self.model.train()
        g = self.graph
        t0 = time.perf_counter()
        out = self.model.full_forward(
            self.prop, Tensor(g.features, dtype=self.dtype), self.dropout_rng
        )
        logits = F.masked_rows(out, g.train_mask)
        loss = F.task_loss(logits, g.labels[g.train_mask], g.multilabel)
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        self.wall_seconds.append(time.perf_counter() - t0)
        self.loss_history.append(loss.item())
        return loss.item()

    def evaluate(self) -> Dict[str, float]:
        return evaluate_full_graph(
            self.model, self.graph,
            lambda x: self.model.full_forward(self.prop, x, self.dropout_rng),
        )

    def train(self, epochs: int) -> List[float]:
        for _ in range(epochs):
            self.train_epoch()
        return self.loss_history
