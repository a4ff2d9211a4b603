"""Real multi-rank execution of Algorithm 1 over a data-moving transport.

:class:`ProcessRankExecutor` is the sim-to-real counterpart of
:class:`~repro.core.trainer.DistributedTrainer`: the same algorithm,
but each rank actually *holds only its own shard*.  The parent ships
every rank a :class:`_RankTask` — its
:class:`~repro.core.bns.RankData`, inner features, a model replica and
a seeded sampler — through the transport's launch channel (pickled
through a pipe on :class:`~repro.dist.transport.MultiprocessTransport`,
so the shard genuinely leaves the parent process), and the workers run
boundary-sampled training with real exchanges:

* **sample_sync** — each rank broadcasts the global ids of its kept
  boundary nodes; owners resolve the ids they own into local rows by
  binary search (Algorithm 1's "broadcast U_i / record S_{i,j}");
* **forward** — per layer, owners push the requested feature rows;
  consumers stack them under their inner block and apply the
  :class:`~repro.tensor.sparse.SplitOperator`-backed epoch plan;
* **backward** — the layer-synchronous mirror image: the per-layer
  tape is cut at the layer inputs, gradients w.r.t. the gathered
  boundary blocks travel back to their owners and are scatter-added
  into the owner's input gradient before the next tape segment runs.
  Layer 0's input is data (it requires no gradient, as in a PyTorch
  model), so its segment runs for the weight gradients only: no rank
  builds, ships or meters a layer-0 input gradient, and the per-epoch
  ``backward`` ledger is ``Σ_i |U_i| · Σ_{1≤ℓ<L} d_ℓ`` scalars.
  Summed over the AllReduce this reproduces the single-tape gradient
  of the simulated trainer exactly (up to float addition order — the
  equivalence suite pins 1e-9);
* **reduce** — a real ring AllReduce over the flattened
  parameter gradients.  The reduced buffer is bitwise identical on
  every rank, so the per-rank Adam replicas stay in lockstep without
  any further synchronisation.

One rank body, :meth:`_RankLoop.epoch`, runs both schedules.  Every
exchange in it is a :meth:`~repro.dist.transport.Endpoint.post_exchange`
followed by a ``complete_exchange``; the schedule only decides when two
of them are posted or completed:

* ``schedule="synchronous"`` (default) — staleness 0, Algorithm 1
  verbatim: each layer exchanges its own input before computing, and
  each segment's returned boundary gradients are completed and added
  before the descent continues;
* ``schedule="pipelined"`` — the PipeGCN-style staleness-1 execution
  of :class:`~repro.core.pipeline.PipelinedTrainer`, for real: after
  the kept-id sync, each rank posts *every* layer's boundary features
  from its previous-epoch layer inputs and computes while they travel;
  the returned boundary gradients are drained after the descent and
  injected next epoch at the rows served then — the distributed image
  of the simulated trainer's ghost-loss construction.  Epoch 0 warms
  up on the synchronous forward, like PipeGCN's first iteration.

The bytes are identical either way — staleness changes *when* traffic
moves, not how much — so the per-tag ledgers match the in-process
trainers byte for byte.

Every rank additionally records, per epoch, its wall seconds and the
seconds it spent blocked inside ``recv`` (the transport's
``blocked_seconds`` counter) — so the overlap claim is *measured*, not
modeled: the end-to-end benchmark (``benchmarks/e2e``) reports it as
``executor.blocked_frac`` for the synchronous and pipelined workloads.

Byte metering is identical to the simulated run by construction: every
worker meters its own traffic through the same
:class:`~repro.dist.transport.ByteMeter` rules, and the per-epoch
merged ledgers match the ``SimulatedCommunicator`` ledgers
byte-for-byte (asserted end-to-end in the equivalence tests).

Dropout note: the simulated trainer threads *one* RNG through all
ranks' dropout masks, which has no multi-process analogue; workers
draw from per-rank streams instead.  Training is equally correct, but
bitwise trajectory comparison against the simulated path is only
meaningful at ``dropout=0`` (or in eval mode).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import sanitizer as lock_sanitizer
from ..core.bns import PartitionRuntime, RankData, derive_seeds
from ..core.sampler import BoundarySampler, FullBoundarySampler
from ..core.trainer import TrainHistory
from ..graph.graph import Graph
from ..nn import functional as F
from ..nn.metrics import evaluate_full_graph
from ..nn.models import GCNModel, GraphSAGEModel
from ..nn.module import resolve_model_dtype
from ..nn.optim import Adam
from ..partition.types import PartitionResult
from ..tensor import Tensor, concat_rows, gather_rows, relu
from .cost_model import layer_flops
from .transport import Endpoint, resolve_transport

__all__ = ["ProcessRankExecutor", "DistTrainResult", "SCHEDULES"]

#: Execution schedules the worker loop understands.
SCHEDULES = ("synchronous", "pipelined")


# ----------------------------------------------------------------------
# Shipment and result containers
# ----------------------------------------------------------------------
@dataclass
class _RankTask:
    """Everything one worker needs — shippable (pure numpy/scipy state).

    ``sampler`` is the *spec*, not per-rank state: any
    :class:`~repro.core.sampler.BoundarySampler` pickles through the
    launch channel and draws its plans worker-side against the shipped
    :class:`~repro.core.bns.RankData`.  Samplers whose distribution
    depends on the rank (e.g. the importance sampler's π vector) must
    derive it rank-locally — that keeps the wire format and the byte
    ledger identical across sampler choices, which the equivalence
    suite asserts.
    """

    rank: int
    num_parts: int
    rank_data: RankData
    features: np.ndarray
    model_kind: str  # "sage" | "gcn"
    model_dims: List[int]
    dropout: float
    state: Dict[str, np.ndarray]
    sampler: BoundarySampler
    sample_seed: int
    dropout_seed: Tuple[int, int]
    epochs: int
    lr: float
    loss_denom: float
    multilabel: bool
    #: Wire/compute dtype name.  Required, no literal default: the
    #: executor always ships the configured run dtype, and a silent
    #: "float64" fallback here is exactly the class of constant the
    #: dtype-width lint exists to keep out.
    dtype: str
    schedule: str = "synchronous"


@dataclass
class _RankOutcome:
    """One worker's training record, returned through the transport."""

    rank: int
    local_losses: List[float]
    sampling_seconds: List[float]
    by_tag: List[Dict[str, int]]
    pairwise: List[np.ndarray]
    grad_flat: np.ndarray
    state: Dict[str, np.ndarray]
    epoch_seconds: List[float] = field(default_factory=list)
    blocked_seconds: List[float] = field(default_factory=list)
    flops: List[float] = field(default_factory=list)


@dataclass
class DistTrainResult:
    """Merged view of a distributed run (parent-side)."""

    history: TrainHistory
    by_tag: List[Dict[str, int]] = field(default_factory=list)
    pairwise: List[np.ndarray] = field(default_factory=list)
    grad_flat: Optional[np.ndarray] = None
    schedule: str = "synchronous"
    #: ``[epoch][rank]`` wall seconds of each rank's epoch body.
    epoch_wall_seconds: List[List[float]] = field(default_factory=list)
    #: ``[epoch][rank]`` seconds each rank spent blocked inside recv.
    blocked_recv_seconds: List[List[float]] = field(default_factory=list)
    #: ``[epoch][rank]`` modeled forward+backward FLOPs (layer_flops).
    flops: List[List[float]] = field(default_factory=list)
    launch_seconds: float = 0.0

    def blocked_fraction(self, start_epoch: int = 0) -> float:
        """Share of rank-seconds spent blocked in recv from
        ``start_epoch`` on (skip 1 to exclude the pipelined warm-up)."""
        wall = sum(sum(epoch) for epoch in self.epoch_wall_seconds[start_epoch:])
        blocked = sum(
            sum(epoch) for epoch in self.blocked_recv_seconds[start_epoch:]
        )
        return blocked / wall if wall > 0 else 0.0


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _build_model(task: _RankTask):
    dims = task.model_dims
    num_layers = len(dims) - 1
    hidden = dims[1] if num_layers > 1 else dims[-1]
    cls = GraphSAGEModel if task.model_kind == "sage" else GCNModel
    model = cls(dims[0], hidden, dims[-1], num_layers, task.dropout,
                np.random.default_rng(0), dtype=np.dtype(task.dtype))
    model.load_state_dict(task.state)
    return model


def _resolve_requests(
    rank_data: RankData, incoming: Dict[int, np.ndarray]
) -> Dict[int, np.ndarray]:
    """Map each requester's kept global ids to my local feature rows.

    The broadcast carries *all* of the requester's kept boundary ids;
    each owner extracts the ones it holds.  ``inner`` is sorted, and a
    requester's ids owned by one rank arrive in ascending order (the
    boundary list is owner-then-id sorted), so the resolved row order
    matches the row order the requester's gather expects.
    """
    inner = rank_data.inner
    serve: Dict[int, np.ndarray] = {}
    for src, ids in incoming.items():
        ids = np.asarray(ids, dtype=np.int64)
        if len(inner) == 0 or ids.size == 0:
            serve[src] = np.empty(0, dtype=np.int64)
            continue
        idx = np.searchsorted(inner, ids)
        idx_clipped = np.minimum(idx, len(inner) - 1)
        mine = (idx < len(inner)) & (inner[idx_clipped] == ids)
        serve[src] = idx_clipped[mine]
    return serve


class _RankLoop:
    """One rank's training state and its epoch body."""

    def __init__(self, ep: Endpoint, task: _RankTask) -> None:
        self.ep = ep
        self.task = task
        self.rank_data = task.rank_data
        self.model = _build_model(task)
        self.model.train()
        self.optimizer = Adam(self.model.parameters(), lr=task.lr)
        self.sample_rng = np.random.default_rng(task.sample_seed)
        self.dropout_rng = np.random.default_rng(task.dropout_seed)
        self.peers = [j for j in range(task.num_parts) if j != task.rank]
        self.n_inner = self.rank_data.n_inner
        self.dims = task.model_dims
        self.num_layers = len(self.model.layers)
        # Pipelined (staleness-1) state, never filled on the synchronous
        # schedule: my layer inputs of the previous epoch (what
        # neighbours consume this epoch) and the boundary gradients
        # peers returned then, as (layer, rows I served, received).
        self._stale_x: List[Optional[np.ndarray]] = [None] * self.num_layers
        self._returned: List[Tuple[int, Dict, Dict[int, np.ndarray]]] = []

    # -- shared epoch pieces -------------------------------------------
    def sample_and_sync(self):
        """Lines 4-7: sample locally, broadcast kept ids, resolve."""
        plan = self.task.sampler.plan(self.rank_data, self.sample_rng)
        kept_ids = self.rank_data.boundary[plan.kept_positions]
        incoming = self.ep.exchange(
            {j: kept_ids for j in self.peers}, self.peers, tag="sample_sync"
        )
        serve_rows = _resolve_requests(self.rank_data, incoming)
        groups = list(self.rank_data.boundary_groups(plan.kept_positions))
        return plan, serve_rows, groups

    def forward_segment(self, plan, groups, x, received, layer_idx):
        """One layer on ``[own block ; gathered boundary blocks]``.

        Cuts the tape at the layer input: the segment's leaves are this
        rank's own features plus the gathered remote blocks.  Layer 0's
        input is data, so none of them requires a gradient there: that
        segment's backward yields weight gradients only.
        """
        needs_grad = layer_idx > 0
        h_leaf = Tensor(x, requires_grad=needs_grad)
        parts: List[Tensor] = [h_leaf]
        leaves = []
        for owner, _pos, owner_rows in groups:
            block = Tensor(received[owner], requires_grad=needs_grad)
            leaves.append((owner, owner_rows, block))
            parts.append(block)
        h_all = concat_rows(parts) if len(parts) > 1 else h_leaf
        h_all = self.model.dropout(h_all, self.dropout_rng)
        h_self = h_all[0:self.n_inner]
        out = self.model.layers[layer_idx](plan.prop, h_all, h_self)
        if layer_idx < self.num_layers - 1:
            out = relu(out)
        return h_leaf, leaves, out

    def local_loss(self, segments):
        """Lines 12-13: this rank's share of the global objective."""
        rank_data, task = self.rank_data, self.task
        if not rank_data.train_local.size:
            return None
        logits = gather_rows(segments[-1][2], rank_data.train_local)
        labels = rank_data.labels[rank_data.train_local]
        part = F.task_loss(logits, labels, task.multilabel, reduction="sum")
        return part * (1.0 / task.loss_denom)

    def segment_grads(self, leaves, d_in):
        """Per-owner gradients w.r.t. the gathered boundary blocks."""
        sends: Dict[int, np.ndarray] = {}
        for owner, owner_rows, block in leaves:
            grad = block.grad
            if grad is None:
                grad = np.zeros((owner_rows.size, d_in), dtype=block.dtype)
            sends[owner] = grad
        return sends

    def reduce_and_step(self) -> np.ndarray:
        """Lines 14-15: real AllReduce + local replica update."""
        params = self.model.parameters()
        flat = np.concatenate([
            (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
            for p in params
        ]) if params else np.zeros(0)
        summed = self.ep.allreduce(flat, "reduce")
        offset = 0
        for p in params:
            p.grad = summed[offset:offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size
        self.optimizer.step()
        return summed

    def epoch_flops(self, plan) -> float:
        """Modeled fwd+bwd FLOPs of this rank's epoch (shared helper —
        the same accounting the simulated trainers record)."""
        return sum(
            layer_flops(plan.prop.nnz, self.n_inner,
                        self.dims[l], self.dims[l + 1])
            for l in range(self.num_layers)
        )

    # -- the epoch (both schedules) ------------------------------------
    def epoch(self):
        """One epoch of Algorithm 1; ``task.schedule`` decides only
        steps (i) and (ii) below.  Synchronous is staleness 0."""
        ep = self.ep
        pipelined = self.task.schedule == "pipelined"
        plan, serve_rows, groups = self.sample_and_sync()
        expect_owners = [owner for owner, _pos, _rows in groups]
        serve_peers = [j for j, rows in serve_rows.items() if rows.size]

        def post_forward(x):
            sends = {j: x[serve_rows[j]] for j in serve_peers}
            return ep.post_exchange(sends, expect_owners, tag="forward")

        # (i) Pipelined and warm: post every layer's boundary features
        # from last epoch's layer inputs now, so they travel while this
        # epoch's SpMMs run (the PipeGCN overlap).  Otherwise — the
        # synchronous schedule, or the pipelined warm-up epoch like
        # PipeGCN's first iteration — each layer posts its fresh input
        # when it starts.  Either way the layer completes it first.
        fwd_handles = []
        if pipelined and all(x is not None for x in self._stale_x):
            fwd_handles = [post_forward(x) for x in self._stale_x]
        x = self.task.features
        segments = []
        for layer_idx in range(self.num_layers):
            handle = fwd_handles[layer_idx] if fwd_handles else post_forward(x)
            if pipelined:
                self._stale_x[layer_idx] = x  # neighbours consume it next epoch
            received = ep.complete_exchange(handle)
            seg = self.forward_segment(plan, groups, x, received, layer_idx)
            segments.append(seg)
            x = seg[2].numpy()

        # Backward: run each tape segment top-down.  (ii) The gradients
        # w.r.t. the gathered boundary blocks are posted back to their
        # owners at once.  Synchronous: complete them now and add them
        # at this epoch's served rows before descending.  Pipelined:
        # drain them after the descent and add them next epoch at the
        # rows served then — the ghost-loss term d/dh <stop_grad(g),
        # h[rows]> of PipelinedTrainer.  Layer 0's segment runs for
        # its weight gradients only: its input is data, so no rank
        # posts a layer-0 exchange and the tags stay matched.
        loss_local = self.local_loss(segments)
        self.optimizer.zero_grad()
        seed: Optional[np.ndarray] = None
        returned = self._returned
        posted = []
        for layer_idx in range(self.num_layers - 1, -1, -1):
            h_leaf, leaves, out = segments[layer_idx]
            d_in = self.dims[layer_idx]
            if layer_idx == self.num_layers - 1:
                if loss_local is not None:
                    loss_local.backward()
            else:
                out.backward(seed)
            if layer_idx == 0:
                break
            handle = ep.post_exchange(
                self.segment_grads(leaves, d_in), serve_peers, tag="backward"
            )
            if pipelined:
                posted.append((layer_idx, handle))
            else:
                returned = [(layer_idx, serve_rows, ep.complete_exchange(handle))]
            grad_h = h_leaf.grad
            if grad_h is None:
                grad_h = np.zeros((self.n_inner, d_in), dtype=h_leaf.dtype)
            for rec_layer, rows, received in returned:
                if rec_layer == layer_idx:
                    for j, grad in received.items():
                        grad_h[rows[j]] += grad
            seed = grad_h

        if pipelined:
            # Peers posted top-down, so completing in posting order
            # matches the channel order.
            lock_sanitizer.schedule_checkpoint("pipelined-drain")
            self._returned = [
                (layer_idx, serve_rows, ep.complete_exchange(pending))
                for layer_idx, pending in posted
            ]
        return plan, loss_local, self.reduce_and_step()


def _run_rank(ep: Endpoint, task: _RankTask) -> _RankOutcome:
    """One rank's whole training loop (runs inside a thread or process)."""
    if lock_sanitizer.locks_enabled():
        # Under REPRO_SANITIZE=locks each rank checks its own observed
        # lock-order graph; a forked worker must not inherit edges the
        # parent observed among its own (distinct) lock instances.
        lock_sanitizer.reset_graph()
    loop = _RankLoop(ep, task)
    outcome = _RankOutcome(
        rank=task.rank, local_losses=[], sampling_seconds=[],
        by_tag=[], pairwise=[], grad_flat=np.zeros(0), state={},
    )
    for _epoch in range(task.epochs):
        # A jitter point per epoch under REPRO_SANITIZE=schedule, so
        # different seeds stagger the ranks' epoch boundaries.
        lock_sanitizer.schedule_checkpoint("epoch-start")
        ep.meter.reset()
        loop.model.train()
        blocked0 = ep.blocked_seconds
        t0 = time.perf_counter()
        plan, loss_local, summed = loop.epoch()
        outcome.epoch_seconds.append(time.perf_counter() - t0)
        outcome.blocked_seconds.append(ep.blocked_seconds - blocked0)
        outcome.flops.append(loop.epoch_flops(plan))
        outcome.local_losses.append(
            float(loss_local.item()) if loss_local is not None else 0.0
        )
        outcome.sampling_seconds.append(plan.sampling_seconds)
        pairwise, by_tag = ep.meter.snapshot()
        outcome.pairwise.append(pairwise)
        outcome.by_tag.append(by_tag)
        outcome.grad_flat = summed
    outcome.state = loop.model.state_dict()
    return outcome


# ----------------------------------------------------------------------
# Parent-side orchestration
# ----------------------------------------------------------------------
class ProcessRankExecutor:
    """Run Algorithm 1 with each rank behind a data-moving transport.

    Parameters
    ----------
    graph / partition / model / sampler / lr / seed / aggregation:
        As for :class:`~repro.core.trainer.DistributedTrainer` — the
        seed derivation is identical, so a seeded run reproduces the
        simulated trainer's sampling draws exactly.  Any sampler spec
        ships to the workers as-is (uniform, importance-weighted,
        edge-based or custom); rank-dependent structure such as the
        importance π vector is derived on the worker from its own
        ``RankData``, never serialised.
    transport:
        A :class:`~repro.dist.transport.LocalTransport`,
        :class:`~repro.dist.transport.MultiprocessTransport`,
        :class:`~repro.dist.transport.SharedMemoryTransport`, or one
        of the strings ``"local"`` / ``"multiprocess"`` / ``"shm"``
        (default ``"multiprocess"``).  ``"shm"`` keeps the worker
        processes but moves payloads through zero-copy shared-memory
        rings — same ledger, same results, less wire time.
    schedule:
        ``"synchronous"`` (default) blocks on every layer's exchange;
        ``"pipelined"`` runs the PipeGCN-style staleness-1 schedule —
        epoch *t−1*'s layer inputs serve the neighbours while epoch
        *t*'s local compute runs, stale boundary gradients delivered
        one epoch late.  A seeded pipelined run matches
        :class:`~repro.core.pipeline.PipelinedTrainer` at
        dtype-appropriate tolerance with byte-identical metering.
    timeout:
        Deadline in seconds for the whole launch; a hung worker fails
        fast instead of stalling the caller.  A transport built by the
        executor (``transport`` given as ``None`` or a string) also
        uses this as its per-receive window; a :class:`Transport`
        *instance* keeps its own ``recv_timeout`` — size it for the
        slowest single receive you expect (peer death is detected by
        EOF regardless).
    dtype:
        Precision of the run; taken from the model when omitted (as for
        :class:`~repro.core.trainer.DistributedTrainer`).  Every rank's
        shard — operator blocks, features, replica, gradients — ships
        and computes in this dtype, and the transport meters its actual
        scalar width.
    """

    def __init__(
        self,
        graph: Graph,
        partition: PartitionResult,
        model,
        sampler: Optional[BoundarySampler] = None,
        transport=None,
        lr: float = 0.01,
        seed: int = 0,
        aggregation: str = "mean",
        schedule: str = "synchronous",
        timeout: float = 300.0,
        dtype=None,
    ) -> None:
        if isinstance(model, GraphSAGEModel):
            self._model_kind = "sage"
        elif isinstance(model, GCNModel):
            self._model_kind = "gcn"
        else:
            raise TypeError(
                "ProcessRankExecutor supports GraphSAGEModel/GCNModel, "
                f"got {type(model).__name__}"
            )
        if schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; expected one of {SCHEDULES}"
            )
        self.dtype = resolve_model_dtype(model, dtype)
        self.graph = graph
        self.runtime = PartitionRuntime(
            graph, partition, aggregation=aggregation, dtype=self.dtype
        )
        self.model = model
        self.sampler = sampler or FullBoundarySampler()
        self.lr = lr
        self.seed = seed
        self.schedule = schedule
        self.timeout = timeout
        m = partition.num_parts
        # A transport built here inherits the executor's deadline as
        # its per-recv window: a caller raising `timeout` for long
        # epochs must not be cut short by the transport default.  (A
        # transport passed in keeps its own recv_timeout; dead peers
        # surface via EOF either way.)
        # wrap_protocol is the identity unless REPRO_SANITIZE=protocol
        # is set, in which case the transport's typestate table (no
        # re-entrant launch, ...) is enforced on every call.
        self.transport = lock_sanitizer.wrap_protocol(resolve_transport(
            "multiprocess" if transport is None else transport,
            m, dtype=self.dtype, recv_timeout=timeout,
        ))
        # The in-process trainers' derivation, so seeded runs draw
        # identical boundary samples.
        self._sample_seeds, self._dropout_base = derive_seeds(seed, m)
        self.result: Optional[DistTrainResult] = None

    # ------------------------------------------------------------------
    @property
    def num_parts(self) -> int:
        return self.runtime.num_parts

    def _tasks(self, epochs: int) -> List[_RankTask]:
        denom = F.loss_denominator(self.graph)
        state = self.model.state_dict()
        return [
            _RankTask(
                rank=r.rank,
                num_parts=self.num_parts,
                rank_data=r,
                features=np.asarray(
                    self.graph.features[r.inner], dtype=self.dtype
                ),
                model_kind=self._model_kind,
                model_dims=list(self.model.dims),
                dropout=self.model.dropout.rate,
                state=state,
                sampler=self.sampler,
                sample_seed=self._sample_seeds[r.rank],
                dropout_seed=(self._dropout_base, r.rank),
                epochs=epochs,
                lr=self.lr,
                loss_denom=float(denom),
                multilabel=bool(self.graph.multilabel),
                dtype=str(self.dtype),
                schedule=self.schedule,
            )
            for r in self.runtime.ranks
        ]

    def train(self, epochs: int) -> DistTrainResult:
        """Run ``epochs`` epochs across all ranks; merge the records.

        The final replica state is loaded back into ``self.model`` (the
        replicas are verified identical first), so evaluation and
        checkpointing work exactly as after an in-process run.  An
        executor trains once: a second launch would re-seed the
        sampling and dropout streams and start a fresh Adam and
        pipeline state, silently restarting the run on trained weights.
        """
        if self.result is not None:
            raise RuntimeError(
                "ProcessRankExecutor.train() already ran; a second launch "
                "would restart the RNG streams and optimizer state — build "
                "a new executor to train again"
            )
        if self.runtime.total_train == 0:
            # Fail as loudly as DistributedTrainer.train_epoch does
            # instead of silently training on an all-zero loss.
            raise RuntimeError("no training nodes in any partition")
        t0 = time.perf_counter()
        outcomes: Sequence[_RankOutcome] = self.transport.launch(
            _run_rank, self._tasks(epochs), timeout=self.timeout
        )
        wall = time.perf_counter() - t0
        outcomes = sorted(outcomes, key=lambda o: o.rank)

        for other in outcomes[1:]:
            for name, arr in outcomes[0].state.items():
                if not np.array_equal(arr, other.state[name]):
                    raise RuntimeError(
                        f"model replicas diverged at {name!r} "
                        f"(rank 0 vs rank {other.rank})"
                    )
        self.model.load_state_dict(outcomes[0].state)

        history = TrainHistory()
        by_tag_epochs: List[Dict[str, int]] = []
        pairwise_epochs: List[np.ndarray] = []
        epoch_wall: List[List[float]] = []
        blocked: List[List[float]] = []
        flops: List[List[float]] = []
        for e in range(epochs):
            history.loss.append(sum(o.local_losses[e] for o in outcomes))
            history.sampling_seconds.append(
                sum(o.sampling_seconds[e] for o in outcomes)
            )
            merged_tags: Dict[str, int] = {}
            for o in outcomes:
                for tag, nbytes in o.by_tag[e].items():
                    merged_tags[tag] = merged_tags.get(tag, 0) + nbytes
            by_tag_epochs.append(merged_tags)
            pairwise_epochs.append(
                np.sum([o.pairwise[e] for o in outcomes], axis=0)
            )
            history.comm_bytes.append(sum(merged_tags.values()))
            epoch_wall.append([o.epoch_seconds[e] for o in outcomes])
            blocked.append([o.blocked_seconds[e] for o in outcomes])
            flops.append([o.flops[e] for o in outcomes])
            # The epoch is paced by its slowest rank — a measured
            # epoch time, not the launch wall smeared over epochs.
            history.wall_seconds.append(max(epoch_wall[-1]))

        self.result = DistTrainResult(
            history=history,
            by_tag=by_tag_epochs,
            pairwise=pairwise_epochs,
            grad_flat=outcomes[0].grad_flat,
            schedule=self.schedule,
            epoch_wall_seconds=epoch_wall,
            blocked_recv_seconds=blocked,
            flops=flops,
            launch_seconds=wall,
        )
        return self.result

    # ------------------------------------------------------------------
    def evaluate(self) -> Dict[str, float]:
        """Full-graph evaluation of the (synchronised) final replica."""
        rng = np.random.default_rng(0)
        return evaluate_full_graph(
            self.model, self.graph,
            lambda x: self.model.full_forward(self.runtime.full_prop, x, rng),
        )
