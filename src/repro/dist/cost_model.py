"""Cluster cost and memory models (Eq. 3/4 priced in seconds and bytes).

Everything in the benchmark suite that quotes an "epoch time" gets it
from here, so distributed runs and single-device baselines share one
consistent axis:

* :class:`DeviceSpec` / :class:`ClusterSpec` — named device and cluster
  descriptions.  ``RTX2080TI_CLUSTER`` models the paper's main testbed
  (one machine, 10 GPUs on a shared PCIe fabric); ``V100_MULTI_MACHINE``
  models the 32-machine AWS cluster of the papers100M experiment, where
  the cross-machine link is the bottleneck (Table 6's 99%-communication
  epochs).
* :func:`epoch_time` — turns one epoch's *metered* traffic (the
  :class:`~repro.dist.comm.SimulatedCommunicator` pairwise matrix) plus
  per-rank FLOPs into an :class:`EpochBreakdown`.
* :func:`bns_epoch_model` / :func:`roc_epoch_model` /
  :func:`cagnet_epoch_model` — analytic per-epoch models on a
  :class:`~repro.dist.systems.Workload`, used by the Figure 4 system
  comparison.  The BNS sampling term is priced per *touched* element,
  matching the split-operator planner whose per-epoch cost scales with
  the kept boundary set, not the boundary universe.
* :class:`MemoryModel` — Eq. 4 as an affine function of the boundary
  count, the basis of the Appendix E rate auto-tuner.
* ``SECONDS_PER_SAMPLER_EDGE`` — sampler cost per touched element,
  calibrated so GraphSAINT-style whole-graph samplers land in the
  ~20% overhead regime their authors report (Appendix D), which puts
  BNS at the 0-7% of Table 12 with no further tuning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..tensor.dtype import scalar_nbytes

__all__ = [
    "PAPER_DTYPE",
    "SECONDS_PER_SAMPLER_EDGE",
    "DeviceSpec",
    "ClusterSpec",
    "EpochBreakdown",
    "MemoryModel",
    "RTX2080TI_CLUSTER",
    "V100_MULTI_MACHINE",
    "epoch_time",
    "layer_flops",
    "bns_epoch_model",
    "roc_epoch_model",
    "cagnet_epoch_model",
]


def layer_flops(nnz: float, n_rows: float, d_in: int, d_out: int) -> float:
    """Fwd+bwd FLOPs of one SAGE/GCN layer on one rank.

    One SpMM over the rank's operator (``2·nnz·d_in``) plus the dense
    self/neighbour transforms (``4·n_rows·d_in·d_out``), tripled for
    the backward pass (~2x the forward).  The single source of truth
    for per-rank FLOP accounting — the simulated trainers, the
    pipelined trainer and the real-rank executor all price compute
    through this helper, so modeled sync-vs-pipelined comparisons
    cannot drift apart.
    """
    return 3.0 * (2.0 * float(nnz) * d_in + 4.0 * float(n_rows) * d_in * d_out)

#: Wire/storage size the *analytic* system models price scalars at.
#: The paper's testbeds train in fp32, so the Figure 4 / Table 6 style
#: models stay calibrated to 4-byte scalars regardless of the library's
#: numeric default; pass ``dtype=`` to re-price them at another
#: precision.  Metered runs (trainers/transports) derive their own
#: ``bytes_per_scalar`` from the active dtype instead of this constant.
PAPER_DTYPE = np.float32  # repro-lint: ignore[dtype-width] — the one sanctioned literal: the paper's testbed precision, priced through scalar_nbytes below
BYTES = scalar_nbytes(PAPER_DTYPE)

#: Seconds per element a sampler touches while drawing its per-epoch
#: structure (boundary nodes drawn + edges of the selected columns).
#: Calibrated against the ~23% sampling share GraphSAINT reports for
#: its node sampler (see bench.timemodel's calibration test).
SECONDS_PER_SAMPLER_EDGE = 6.0e-10


@dataclass(frozen=True)
class DeviceSpec:
    """One accelerator: sustained training throughput and memory."""

    name: str
    effective_flops: float  # sustained (not peak) training FLOP/s
    memory_bytes: float


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster: devices, machine grouping, links.

    Ranks are laid out ``machine = rank // devices_per_machine``.
    ``intra_*`` prices links between ranks on one machine, ``inter_*``
    links between machines, and ``host_bandwidth`` the (shared) PCIe
    path to host memory that swapping systems like ROC ride on.
    """

    name: str
    device: DeviceSpec
    devices_per_machine: int
    intra_bandwidth: float  # bytes/s between ranks on one machine
    inter_bandwidth: float  # bytes/s between machines
    intra_latency: float  # seconds per message
    inter_latency: float
    host_bandwidth: float = 8.0e9  # device<->host, shared per machine

    def machine_of(self, rank: int) -> int:
        return rank // self.devices_per_machine

    def bandwidth(self, src: int, dst: int) -> float:
        if self.machine_of(src) == self.machine_of(dst):
            return self.intra_bandwidth
        return self.inter_bandwidth

    def latency(self, src: int, dst: int) -> float:
        if self.machine_of(src) == self.machine_of(dst):
            return self.intra_latency
        return self.inter_latency

    def bottleneck(self, num_ranks: int):
        """(bandwidth, latency) of the slowest link a ring over
        ``num_ranks`` ranks must cross."""
        if num_ranks > self.devices_per_machine:
            return self.inter_bandwidth, self.inter_latency
        return self.intra_bandwidth, self.intra_latency


#: The paper's main testbed: one machine, 10× RTX 2080 Ti (11 GB) on a
#: shared PCIe fabric.  Effective per-device training throughput is
#: pinned at 0.8 TFLOP/s by the bench.timemodel calibration tests.
RTX2080TI_CLUSTER = ClusterSpec(
    name="rtx2080ti-x10",
    device=DeviceSpec("RTX 2080 Ti", effective_flops=8.0e11, memory_bytes=11.0e9),
    devices_per_machine=10,
    intra_bandwidth=2.5e9,
    inter_bandwidth=1.25e9,
    intra_latency=4.0e-6,
    inter_latency=5.0e-5,
    host_bandwidth=8.0e9,
)

#: The papers100M testbed: 32 machines × 6 V100; NVLink inside a
#: machine, a ~10 GbE link between machines — the link whose saturation
#: produces Table 6's 99%-communication vanilla epochs.
V100_MULTI_MACHINE = ClusterSpec(
    name="v100-32x6",
    device=DeviceSpec("V100", effective_flops=2.4e12, memory_bytes=16.0e9),
    devices_per_machine=6,
    intra_bandwidth=6.0e10,
    inter_bandwidth=1.25e9,
    intra_latency=5.0e-6,
    inter_latency=4.0e-5,
    host_bandwidth=8.0e9,
)


@dataclass
class EpochBreakdown:
    """One epoch's modelled time, split the way Figure 5 plots it.

    ``total`` honours ``overlap_communication`` (PipeGCN-style
    pipelining hides boundary traffic behind compute, so the epoch is
    paced by their max instead of their sum).
    """

    compute: float
    communication: float
    reduce: float
    sampling: float = 0.0
    overlap_communication: bool = False

    @property
    def total(self) -> float:
        if self.overlap_communication:
            paced = max(self.compute, self.communication)
        else:
            paced = self.compute + self.communication
        return paced + self.reduce + self.sampling

    @property
    def throughput(self) -> float:
        """Epochs per second."""
        t = self.total
        return 1.0 / t if t > 0 else float("inf")


# ----------------------------------------------------------------------
# Shared pricing helpers
# ----------------------------------------------------------------------

def _comm_seconds(pairwise_bytes: np.ndarray, cluster: ClusterSpec) -> float:
    """Per-rank communication time; the epoch waits for the slowest rank.

    Rank *i* spends ``(sent + received)/bandwidth`` plus one latency
    per active peer (messages to distinct peers are serialised on the
    NIC, the conservative model the paper's profiling supports).
    """
    b = np.asarray(pairwise_bytes, dtype=np.float64)
    m = b.shape[0]
    if m < 2:
        return 0.0
    worst = 0.0
    for i in range(m):
        t = 0.0
        for j in range(m):
            if i == j:
                continue
            volume = b[i, j] + b[j, i]
            if volume > 0:
                t += volume / cluster.bandwidth(i, j) + cluster.latency(i, j)
        worst = max(worst, t)
    return worst


def _reduce_seconds(model_bytes: float, cluster: ClusterSpec, num_ranks: int) -> float:
    """Bandwidth-optimal AllReduce over the model gradient.

    Per-rank wire volume is ``2 (m-1)/m · n → 2n``; we price the
    asymptote so the reduce slice is partition-count independent (what
    NCCL rings deliver in practice), plus the ring's latency chain.
    """
    if num_ranks < 2 or model_bytes <= 0:
        return 0.0
    bw, lat = cluster.bottleneck(num_ranks)
    return 2.0 * model_bytes / bw + 2.0 * (num_ranks - 1) * lat


def epoch_time(
    per_rank_flops: np.ndarray,
    pairwise_comm_bytes: np.ndarray,
    model_bytes: float,
    cluster: ClusterSpec,
    sampling_seconds: float = 0.0,
) -> EpochBreakdown:
    """Price one epoch from metered quantities.

    Parameters
    ----------
    per_rank_flops:
        Forward+backward FLOPs each rank executed; the epoch waits for
        the slowest rank (synchronous training).
    pairwise_comm_bytes:
        ``(m, m)`` bytes ``[src, dst]`` of point-to-point traffic (the
        communicator's ``pairwise`` matrix — boundary features,
        gradients and index broadcasts; the AllReduce is priced from
        ``model_bytes`` separately).
    model_bytes:
        Gradient bytes AllReduced at the end of the epoch.
    sampling_seconds:
        Modelled (device-scale) sampling cost of drawing the epoch's
        plans.
    """
    flops = np.asarray(per_rank_flops, dtype=np.float64)
    m = len(flops)
    return EpochBreakdown(
        compute=float(flops.max()) / cluster.device.effective_flops if m else 0.0,
        communication=_comm_seconds(pairwise_comm_bytes, cluster),
        reduce=_reduce_seconds(model_bytes, cluster, m),
        sampling=sampling_seconds,
    )


# ----------------------------------------------------------------------
# Analytic per-system epoch models (Figure 4 / Table 6)
# ----------------------------------------------------------------------

def _sage_flops(n_rows: float, nnz: float, dims: Sequence[int]) -> float:
    """Fwd+bwd FLOPs of a GraphSAGE stack on one rank (×3 ≈ fwd + bwd)."""
    total = 0.0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        total += layer_flops(nnz, n_rows, d_in, d_out)
    return total


def bns_epoch_model(workload, cluster: ClusterSpec, p: float,
                    dtype=PAPER_DTYPE) -> EpochBreakdown:
    """BNS-GCN epoch at boundary sampling rate ``p`` (Eq. 3 priced).

    Communication is the kept boundary features moving owner→consumer
    each layer, and their gradients moving back for every layer but the
    first (layer 0's input is data); sampling cost follows the
    split-operator planner — proportional to the *kept* boundary
    nodes/edges, zero at p=1 where the cached full plan is reused.
    ``dtype`` prices the wire scalars (fp32, the paper's setting, by
    default).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"sampling rate p must be in [0, 1], got {p}")
    nbytes = scalar_nbytes(dtype)
    m = workload.num_parts
    dims = workload.layer_dims
    # Layer input widths, as metered: features travel for every layer,
    # gradients for every layer but the first (its input is data).
    fwd_width = float(sum(dims[:-1]))
    bwd_width = float(sum(dims[1:-1]))

    flops = np.array(
        [
            _sage_flops(
                workload.inner_sizes[i],
                workload.nnz_inner[i] + p * workload.nnz_boundary[i],
                dims,
            )
            for i in range(m)
        ]
    )

    pair = np.asarray(workload.boundary_pair_counts, dtype=np.float64)
    b = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            # forward: owner j -> consumer i; backward: gradients retrace it
            b[j, i] += p * pair[j, i] * fwd_width * nbytes
            b[i, j] += p * pair[j, i] * bwd_width * nbytes

    if p >= 1.0 or p <= 0.0:
        sampling = 0.0  # cached degenerate plans: zero per-epoch work
    else:
        # Mirror the metered planner (core.sampler.plan_sampling_ops):
        # one Bernoulli draw per boundary node plus the kept columns'
        # edges (p of the boundary block in expectation).
        touched = float(workload.boundary_sizes.sum()) + p * float(
            workload.nnz_boundary.sum()
        )
        sampling = touched * SECONDS_PER_SAMPLER_EDGE

    return EpochBreakdown(
        compute=float(flops.max()) / cluster.device.effective_flops,
        communication=_comm_seconds(b, cluster),
        reduce=_reduce_seconds(workload.model_params * nbytes, cluster, m),
        sampling=sampling,
    )


def roc_epoch_model(workload, cluster: ClusterSpec,
                    dtype=PAPER_DTYPE) -> EpochBreakdown:
    """ROC (Jia et al.): full-graph training that streams partition
    activations over the (shared) host link every layer.

    Per layer each rank moves its inputs in and outputs out across
    PCIe, forward and backward; the host link is shared by all ranks
    on a machine, which is why ROC's throughput stalls as partitions
    are added (Figure 4's flat curves).
    """
    nbytes = scalar_nbytes(dtype)
    m = workload.num_parts
    dims = workload.layer_dims
    n_local = workload.inner_sizes + workload.boundary_sizes
    total_nnz = workload.nnz_inner + workload.nnz_boundary
    flops = np.array(
        [
            _sage_flops(workload.inner_sizes[i], total_nnz[i], dims)
            for i in range(m)
        ]
    )
    layer_widths = sum(d_in + d_out for d_in, d_out in zip(dims[:-1], dims[1:]))
    sharing = min(m, cluster.devices_per_machine)
    swap_bytes = n_local.astype(np.float64) * layer_widths * nbytes * 2.0
    comm = float(swap_bytes.max()) * sharing / cluster.host_bandwidth
    return EpochBreakdown(
        compute=float(flops.max()) / cluster.device.effective_flops,
        communication=comm,
        reduce=_reduce_seconds(workload.model_params * nbytes, cluster, m),
        sampling=0.0,
    )


def cagnet_epoch_model(workload, cluster: ClusterSpec, c: int,
                       dtype=PAPER_DTYPE) -> EpochBreakdown:
    """CAGNET's 1.5D algorithm with replication factor ``c``.

    Each layer broadcasts the (replicated) feature blocks around the
    rank grid: per-rank volume ≈ ``N · d / c`` regardless of the
    partition count — the broadcast traffic that does *not* shrink
    with more partitions, unlike BNS's boundary traffic.
    """
    if c < 1:
        raise ValueError(f"replication factor c must be >= 1, got {c}")
    nbytes = scalar_nbytes(dtype)
    m = workload.num_parts
    dims = workload.layer_dims
    n = float(workload.num_nodes)
    total_nnz = float(workload.nnz_inner.sum() + workload.nnz_boundary.sum())
    flops = _sage_flops(n / m, total_nnz / m, dims)
    width = float(sum(dims[:-1]))
    bw, lat = cluster.bottleneck(m)
    # Broadcast volume per rank per epoch (forward + transposed backward),
    # shrunk by the replication factor; one message per grid step.
    volume = 2.0 * n * width * nbytes / c
    steps = max(m // max(c, 1) - 1, 1)
    comm = volume / bw + steps * lat
    # Replicas combine partial aggregates with a c-way reduce per layer.
    replica_bytes = (n / m) * width * nbytes * max(c - 1, 0)
    comm += replica_bytes / bw
    return EpochBreakdown(
        compute=flops / cluster.device.effective_flops,
        communication=comm,
        reduce=_reduce_seconds(workload.model_params * nbytes, cluster, m),
        sampling=0.0,
    )


# ----------------------------------------------------------------------
# Memory (Eq. 4 + caches)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MemoryModel:
    """Per-partition training memory, affine in the boundary count.

    Inner nodes hold every layer's activations *and* their gradients
    (full-graph training keeps the whole tape); boundary nodes hold the
    received features per layer plus the gradients routed back.  Model
    parameters add Adam's two moments on top of weights and gradients.
    """

    bytes_per_scalar: int = BYTES
    activation_copies: float = 2.0  # activations + gradients
    optimizer_copies: float = 3.0  # grads + Adam m/v (on top of weights)

    def per_partition_bytes(
        self,
        inner_sizes: np.ndarray,
        boundary_sizes: np.ndarray,
        layer_dims: Sequence[int],
        model_params: int = 0,
    ) -> np.ndarray:
        inner = np.asarray(inner_sizes, dtype=np.float64)
        boundary = np.asarray(boundary_sizes, dtype=np.float64)
        dims = list(layer_dims)
        inner_width = float(sum(dims))  # every layer input + the output
        boundary_width = float(sum(dims[:-1]))  # received per layer input
        bps = float(self.bytes_per_scalar)
        act = self.activation_copies * bps * (
            inner * inner_width + boundary * boundary_width
        )
        model = (1.0 + self.optimizer_copies) * bps * float(model_params)
        return act + model
