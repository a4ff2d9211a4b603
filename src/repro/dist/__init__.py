"""Distributed-execution substrate: transports, metering, cost models.

The paper evaluates BNS-GCN on real clusters; this package provides
both the laptop-scale stand-ins used across the repo and the real
multi-rank execution path:

* :mod:`repro.dist.transport` — the :class:`Transport` interface and
  its byte-metering core (:class:`ByteMeter`, Eq. 3 made measurable),
  plus the three data-moving implementations:
  :class:`LocalTransport` (threads + queues),
  :class:`MultiprocessTransport` (processes + pipes, real ring
  AllReduce) and :class:`SharedMemoryTransport` (processes +
  zero-copy shared-memory rings; pipes carry control traffic only);
* :mod:`repro.dist.comm` — :class:`SimulatedCommunicator`, the
  metering-only transport behind the in-process trainers;
* :mod:`repro.dist.executor` — :class:`ProcessRankExecutor`, which
  ships each rank's shard to a worker and runs BNS training with real
  boundary feature/gradient exchange, on a synchronous or a
  staleness-1 pipelined schedule with measured compute vs
  blocked-in-recv seconds (imported lazily: it pulls in the trainer
  stack);
* :mod:`repro.dist.cost_model` — device/cluster specs, the per-epoch
  time model (compute / boundary communication / AllReduce / sampling)
  and the analytic system models for BNS, ROC and CAGNET used by the
  Figure 4-6 benchmarks, plus the Eq. 4 memory model;
* :mod:`repro.dist.systems` — :class:`Workload`, the partition-level
  summary (sizes, boundary pair counts, nnz) the cost and memory
  models consume.
"""

from .comm import SimulatedCommunicator
from .cost_model import (
    SECONDS_PER_SAMPLER_EDGE,
    ClusterSpec,
    DeviceSpec,
    EpochBreakdown,
    MemoryModel,
    RTX2080TI_CLUSTER,
    V100_MULTI_MACHINE,
    bns_epoch_model,
    cagnet_epoch_model,
    epoch_time,
    roc_epoch_model,
)
from .systems import Workload, build_workload
from .transport import (
    ByteMeter,
    LocalTransport,
    MultiprocessTransport,
    SharedMemoryTransport,
    Transport,
    TransportError,
    ring_allreduce_scalars,
)

__all__ = [
    "SimulatedCommunicator",
    "SECONDS_PER_SAMPLER_EDGE",
    "ClusterSpec",
    "DeviceSpec",
    "EpochBreakdown",
    "MemoryModel",
    "RTX2080TI_CLUSTER",
    "V100_MULTI_MACHINE",
    "bns_epoch_model",
    "cagnet_epoch_model",
    "epoch_time",
    "roc_epoch_model",
    "Workload",
    "build_workload",
    "ByteMeter",
    "LocalTransport",
    "MultiprocessTransport",
    "SharedMemoryTransport",
    "Transport",
    "TransportError",
    "ring_allreduce_scalars",
    "ProcessRankExecutor",
    "DistTrainResult",
]

_LAZY = ("ProcessRankExecutor", "DistTrainResult")


def __getattr__(name):
    # The executor sits on top of the trainer stack; importing it here
    # eagerly would close an import cycle (executor -> core.trainer ->
    # dist).  PEP 562 keeps `from repro.dist import ProcessRankExecutor`
    # working without paying that import at package init.
    if name in _LAZY:
        from . import executor

        return getattr(executor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
