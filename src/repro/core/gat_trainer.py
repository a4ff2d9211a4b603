"""Partition-parallel GAT training with boundary node sampling (Table 10).

GAT aggregates with learned attention over explicit edges, so BNS takes
an even simpler form than for SAGE: dropping a boundary node just
removes its incident cross-partition edges, and the per-destination
softmax renormalises over the survivors (a convex combination needs no
1/p correction).  Communication is identical to the SAGE case — the
features/gradients of kept boundary nodes — which is why the paper's
Table 10 speedups mirror the SAGE ones at a lower ratio (GAT is more
compute-heavy, diluting the communication share).

Accordingly :class:`DistributedGATTrainer` is
:class:`~repro.core.trainer.DistributedTrainer` with three steps
replaced — the plan is an edge list, the layer is an attention layer
priced by its own FLOP count, and evaluation runs over the full edge
list — while the exchange, its metering, the loss and the training
loop are the inherited ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..dist.cost_model import ClusterSpec
from ..graph.graph import Graph
from ..nn.models import GATModel
from ..nn.optim import Optimizer
from ..partition.types import PartitionResult
from .sampler import EpochPlan
from .trainer import DistributedTrainer

__all__ = ["DistributedGATTrainer"]


@dataclass
class _RankEdges:
    """Static edge lists of one rank in local coordinates.

    Sources index the concatenated ``[inner ; boundary]`` space;
    destinations index inner nodes.  Self-loops are included (standard
    GAT practice: every node attends to itself).
    """

    src_inner: np.ndarray  # src < n_in
    dst_inner: np.ndarray
    src_bd_pos: np.ndarray  # boundary position (0..n_bd)
    dst_bd: np.ndarray


class DistributedGATTrainer(DistributedTrainer):
    """Algorithm 1 with a GAT model instead of GraphSAGE: uniform BNS
    at rate ``p`` over explicit edge lists (see the module docstring)."""

    def __init__(
        self,
        graph: Graph,
        partition: PartitionResult,
        model: GATModel,
        p: float = 1.0,
        lr: float = 0.01,
        seed: int = 0,
        cluster: Optional[ClusterSpec] = None,
        optimizer: Optional[Optimizer] = None,
        transport=None,
        dtype=None,
    ) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"sampling rate p must be in [0, 1], got {p}")
        super().__init__(
            graph, partition, model, lr=lr, seed=seed, cluster=cluster,
            optimizer=optimizer, transport=transport, dtype=dtype,
        )
        self.p = p
        self._edges: List[_RankEdges] = [
            self._build_edges(r) for r in self.runtime.ranks
        ]

    @staticmethod
    def _build_edges(rank_data) -> _RankEdges:
        in_coo = rank_data.a_in.tocoo()
        bd_coo = rank_data.a_bd.tocoo()
        n_in = rank_data.n_inner
        self_loop = np.arange(n_in, dtype=np.int64)
        return _RankEdges(
            src_inner=np.concatenate([in_coo.col.astype(np.int64), self_loop]),
            dst_inner=np.concatenate([in_coo.row.astype(np.int64), self_loop]),
            src_bd_pos=bd_coo.col.astype(np.int64),
            dst_bd=bd_coo.row.astype(np.int64),
        )

    # ------------------------------------------------------------------
    def _draw_plan(self, rank) -> EpochPlan:
        """BNS draw over edge lists: ``plan.prop`` is the ``(src, dst)``
        pair of the surviving edges, not a propagation operator."""
        t0 = time.perf_counter()
        if self.p >= 1.0:
            kept = np.arange(rank.n_boundary, dtype=np.int64)
        elif self.p <= 0.0:
            kept = np.empty(0, dtype=np.int64)
        else:
            draws = self.sample_rngs[rank.rank].random(rank.n_boundary)
            kept = np.flatnonzero(draws < self.p)
        e = self._edges[rank.rank]
        # Keep boundary edges whose source survived; remap source
        # columns into the compacted [inner ; kept] space.
        pos_map = np.full(rank.n_boundary, -1, dtype=np.int64)
        pos_map[kept] = np.arange(len(kept))
        alive = pos_map[e.src_bd_pos] >= 0
        src = np.concatenate(
            [e.src_inner, rank.n_inner + pos_map[e.src_bd_pos[alive]]]
        )
        dst = np.concatenate([e.dst_inner, e.dst_bd[alive]])
        # Device-scale sampling cost for the modelled breakdown: p=1
        # needs no per-epoch work; otherwise ops ∝ boundary nodes drawn
        # plus boundary edges filtered/remapped.
        ops = 0 if self.p >= 1.0 else rank.n_boundary + len(e.src_bd_pos)
        return EpochPlan((src, dst), kept, time.perf_counter() - t0, ops)

    def _apply_layer(self, layer_idx, rank, plan, h_all):
        layer = self.model.layers[layer_idx]
        src, dst = plan.prop
        out = layer(h_all, src, dst, rank.n_inner)
        return out, 3.0 * layer.flops(rank.n_inner, h_all.shape[0], len(src))

    def _full_logits(self, features):
        src, dst = self.graph.edge_list()
        # Self loops for evaluation too.
        loop = np.arange(self.graph.num_nodes, dtype=np.int64)
        return self.model.full_forward(
            np.concatenate([src, loop]), np.concatenate([dst, loop]),
            features, self.dropout_rng,
        )
