"""Benchmark-side wrappers injected through arguments the trainers
already take (``sampler=``, ``optimizer=``, ``transport=``,
``kernel_backend=``), plus the stand-alone layer measurements of the
traced run.  Nothing here changes what the program computes: every
wrapper delegates to the object it wraps inside a :class:`Tracer` span.
"""

from __future__ import annotations

import gc
import time
from typing import List, Tuple

import numpy as np

from repro import Adam, SimulatedCommunicator
from repro.core.sampler import BoundarySampler
from repro.dist.cost_model import layer_flops
from repro.nn import functional as F
from repro.tensor import (
    KernelBackend,
    Tensor,
    concat_rows,
    gather_rows,
    get_backend,
    get_default_dtype,
    register_backend,
    relu,
)
from repro.tensor.kernels import merge_split_csr

from trace import Tracer

__all__ = [
    "TimingSampler",
    "TimingAdam",
    "CountingCommunicator",
    "register_timing_backend",
    "time_fused_build",
    "time_shard_step",
    "time_wire",
]


class TimingSampler(BoundarySampler):
    """``core.sampler`` probe: spans every ``plan()`` and prices the
    plan's FLOPs (``layer_flops`` over the model's widths)."""

    name = "e2e-timing"

    def __init__(self, inner: BoundarySampler, dims: List[int], tracer: Tracer) -> None:
        self.inner = inner
        self.dims = dims
        self.tracer = tracer
        self.flops = 0.0

    def plan(self, rank_data, rng):
        with self.tracer.span("sampler.plan"):
            plan = self.inner.plan(rank_data, rng)
        self.flops += sum(
            layer_flops(plan.prop.nnz, rank_data.n_inner, d_in, d_out)
            for d_in, d_out in zip(self.dims[:-1], self.dims[1:])
        )
        return plan


class TimingAdam(Adam):
    """``nn.optim`` probe."""

    def __init__(self, params, lr: float, tracer: Tracer) -> None:
        super().__init__(params, lr=lr)
        self.tracer = tracer

    def step(self) -> None:
        with self.tracer.span("optim.step"):
            super().step()


class CountingCommunicator(SimulatedCommunicator):
    """``dist.comm`` probe: counts metering calls and their busy time.

    A p = 1 epoch on 16 ranks makes ~1500 metering calls of well under
    a microsecond each, so they are folded into one ``comm.meter`` span
    per epoch (:meth:`flush`) instead of a span apiece.
    """

    def __init__(self, num_parts: int, tracer: Tracer) -> None:
        super().__init__(num_parts)
        self.tracer = tracer
        self.p2p_calls = 0
        self._busy = 0.0
        self._calls = 0

    def _metered(self, method, *args) -> int:
        t0 = time.perf_counter()
        nbytes = method(*args)
        self._busy += time.perf_counter() - t0
        self._calls += 1
        return nbytes

    def send(self, src, dst, num_scalars, tag) -> int:
        self.p2p_calls += 1
        return self._metered(super().send, src, dst, num_scalars, tag)

    def broadcast(self, src, num_scalars, tag) -> int:
        self.p2p_calls += self.num_parts - 1
        return self._metered(super().broadcast, src, num_scalars, tag)

    def allreduce(self, num_scalars, tag) -> int:
        return self._metered(super().allreduce, num_scalars, tag)

    def flush(self) -> None:
        """Emit this epoch's metering as one aggregated span."""
        self.tracer.add("comm.meter", self._busy, self._calls)
        self._busy, self._calls = 0.0, 0


class _TimingBackend(KernelBackend):
    """``tensor.kernels`` probe: delegates to the backend that was the
    default when it was registered."""

    name = "e2e-timing"

    def __init__(self, inner: KernelBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def split_spmm_forward(self, op, h):
        with self.tracer.span("kernels.spmm_fwd"):
            return self.inner.split_spmm_forward(op, h)

    def split_spmm_backward(self, op, g):
        with self.tracer.span("kernels.spmm_bwd"):
            return self.inner.split_spmm_backward(op, g)


def register_timing_backend(tracer: Tracer) -> str:
    """Register the delegating backend; returns the name to pass as
    ``kernel_backend=``."""
    return register_backend(_TimingBackend(get_backend(), tracer)).name


# ----------------------------------------------------------------------
# Stand-alone layer measurements
# ----------------------------------------------------------------------
def time_fused_build(rank_data, sampler, seed: int, reps: int) -> List[float]:
    """``merge_split_csr`` on one epoch plan of ``rank_data`` — what a
    sampled epoch pays per rank before its first SpMM."""
    op = sampler.plan(rank_data, np.random.default_rng(seed)).prop
    walls = []
    gc.collect()
    for _ in range(reps):
        t0 = time.perf_counter()
        merge_split_csr(op.inner, op.boundary_csr, op.row_scale, op.col_scale)
        walls.append(time.perf_counter() - t0)
    return walls


def time_shard_step(
    graph, rank_data, model, sampler, seed: int, reps: int
) -> Tuple[List[float], List[float]]:
    """Forward+loss and ``backward()`` of one rank's shard, no trainer:
    the ``tensor``/``nn`` stack alone.  Hidden-layer boundary rows are
    zero blocks of the right shape (a lone rank has no peer to ask)."""
    rng = np.random.default_rng(seed)
    plan = sampler.plan(rank_data, rng)
    dtype = get_default_dtype()
    kept = rank_data.boundary[plan.kept_positions]
    inner_x = np.asarray(graph.features[rank_data.inner], dtype=dtype)
    blocks = [np.asarray(graph.features[kept], dtype=dtype)] + [
        np.zeros((kept.size, d), dtype=dtype) for d in model.dims[1:-1]
    ]
    labels = rank_data.labels[rank_data.train_local]
    loss_fn = F.bce_with_logits if graph.multilabel else F.cross_entropy
    model.train()
    fwd, bwd = [], []
    gc.collect()
    for _ in range(reps):
        t0 = time.perf_counter()
        h = Tensor(inner_x)
        for idx, layer in enumerate(model.layers):
            h_all = concat_rows([h, Tensor(blocks[idx])]) if kept.size else h
            h_all = model.dropout(h_all, rng)
            h = layer(plan.prop, h_all, h_all[0:rank_data.n_inner])
            if idx < len(model.layers) - 1:
                h = relu(h)
        loss = loss_fn(gather_rows(h, rank_data.train_local), labels)
        t1 = time.perf_counter()
        for p in model.parameters():
            p.zero_grad()
        loss.backward()
        t2 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return fwd, bwd


# repro-lint: comm-entry
def _wire_worker(ep, payload):
    """One rank of the wire microbenchmark: ``reps`` blocking all-peer
    exchanges and ring AllReduces at the workload's payload sizes."""
    rows, width, num_params, reps = payload
    dtype = get_default_dtype()
    peers = [j for j in range(ep.num_parts) if j != ep.rank]
    block = np.ones((rows, width), dtype=dtype)
    grads = np.ones(num_params, dtype=dtype)
    exchange, allreduce = [], []
    t_start = time.perf_counter()
    for _ in range(reps):
        t0 = time.perf_counter()
        ep.exchange({j: block for j in peers}, peers, tag="forward")
        t1 = time.perf_counter()
        ep.allreduce(grads, "reduce")
        t2 = time.perf_counter()
        exchange.append(t1 - t0)
        allreduce.append(t2 - t1)
    return exchange, allreduce, time.perf_counter() - t_start


def time_wire(transport, rows: int, width: int, num_params: int, reps: int):
    """Drive ``transport.launch`` with :func:`_wire_worker`; returns
    (launch overhead seconds, exchange seconds, allreduce seconds) with
    the per-op lists taken from the slowest rank of each repetition."""
    payload = (rows, width, num_params, reps)
    t0 = time.perf_counter()
    results = transport.launch(
        _wire_worker, [payload] * transport.num_parts, timeout=60.0
    )
    wall = time.perf_counter() - t0
    exchange = np.max([r[0] for r in results], axis=0)
    allreduce = np.max([r[1] for r in results], axis=0)
    return wall - max(r[2] for r in results), list(exchange), list(allreduce)
