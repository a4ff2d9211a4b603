"""The paper's contribution: BNS-GCN sampling + partition-parallel trainers.

Algorithm 1's epoch is implemented once, in
:class:`~repro.core.trainer.DistributedTrainer`;
:class:`~repro.core.pipeline.PipelinedTrainer` and
:class:`~repro.core.gat_trainer.DistributedGATTrainer` subclass it and
replace only the steps that differ (which boundary block is stacked
and what is differentiated; how a plan is drawn and a layer applied).
"""

from .sampler import (
    BoundaryEdgeSampler,
    BoundaryNodeSampler,
    BoundarySampler,
    DropEdgeSampler,
    EpochPlan,
    FullBoundarySampler,
    ImportanceBoundarySampler,
    degree_keep_probs,
    explicit_stacked_operator,
    make_sampler,
    plan_sampling_ops,
)
from .bns import PartitionRuntime, RankData
from .trainer import BNSTrainer, DistributedTrainer, TrainHistory
from .gat_trainer import DistributedGATTrainer
from .pipeline import PipelinedTrainer
from .autotune import PerPartitionSampler, balanced_rates, max_rate_for_memory
from . import variance

__all__ = [
    "BoundaryEdgeSampler",
    "BoundaryNodeSampler",
    "BoundarySampler",
    "DropEdgeSampler",
    "EpochPlan",
    "FullBoundarySampler",
    "ImportanceBoundarySampler",
    "degree_keep_probs",
    "explicit_stacked_operator",
    "make_sampler",
    "plan_sampling_ops",
    "PartitionRuntime",
    "RankData",
    "BNSTrainer",
    "DistributedTrainer",
    "DistributedGATTrainer",
    "PipelinedTrainer",
    "TrainHistory",
    "PerPartitionSampler",
    "balanced_rates",
    "max_rate_for_memory",
    "variance",
]
