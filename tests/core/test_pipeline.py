"""PipelinedTrainer: staleness-1 boundary features + BNS composition.

Key invariants:
* the warm-up epoch (no caches yet) is numerically identical to the
  synchronous trainer's first epoch;
* the metered traffic is identical to the synchronous trainer's — the
  pipeline changes *when* bytes move, never how many;
* the modelled epoch time overlaps communication with compute;
* training still converges, within a few points of synchronous, and
  composes with BoundaryNodeSampler.
"""

import numpy as np
import pytest

from repro.core import (
    BoundaryNodeSampler,
    DistributedTrainer,
    FullBoundarySampler,
    PipelinedTrainer,
)
from repro.dist import RTX2080TI_CLUSTER
from repro.nn import GraphSAGEModel
from repro.partition import partition_graph

from ..util import assert_backward_mirrors_forward, tagged_pairwise


def paired_models(graph, dropout=0.0, layers=2, hidden=16, seed=42):
    a = GraphSAGEModel(
        graph.feature_dim, hidden, graph.num_classes, layers, dropout,
        np.random.default_rng(seed),
    )
    b = GraphSAGEModel(
        graph.feature_dim, hidden, graph.num_classes, layers, dropout,
        np.random.default_rng(seed + 1),
    )
    b.load_state_dict(a.state_dict())
    return a, b


class TestWarmup:
    def test_first_epoch_matches_synchronous(self, small_graph, small_partition):
        m_sync, m_pipe = paired_models(small_graph)
        t_sync = DistributedTrainer(
            small_graph, small_partition, m_sync, FullBoundarySampler(), lr=0.01
        )
        t_pipe = PipelinedTrainer(
            small_graph, small_partition, m_pipe, FullBoundarySampler(), lr=0.01
        )
        assert abs(t_sync.train_epoch() - t_pipe.train_epoch()) < 1e-9

    def test_is_warm_transitions(self, small_graph, small_partition):
        _, model = paired_models(small_graph)
        t = PipelinedTrainer(
            small_graph, small_partition, model, FullBoundarySampler(), lr=0.01
        )
        assert not t.is_warm
        t.train_epoch()
        assert t.is_warm

    def test_reset_pipeline_clears_caches(self, small_graph, small_partition):
        _, model = paired_models(small_graph)
        t = PipelinedTrainer(
            small_graph, small_partition, model, FullBoundarySampler(), lr=0.01
        )
        t.train_epoch()
        t.reset_pipeline()
        assert not t.is_warm

    def test_second_epoch_differs_from_synchronous(self, small_graph, small_partition):
        # Staleness must actually bite from epoch 2 onward (otherwise
        # the pipeline silently fell back to fresh features).
        m_sync, m_pipe = paired_models(small_graph)
        t_sync = DistributedTrainer(
            small_graph, small_partition, m_sync, FullBoundarySampler(), lr=0.01
        )
        t_pipe = PipelinedTrainer(
            small_graph, small_partition, m_pipe, FullBoundarySampler(), lr=0.01
        )
        t_sync.train_epoch()
        t_pipe.train_epoch()
        l_sync = t_sync.train_epoch()
        l_pipe = t_pipe.train_epoch()
        assert l_sync != l_pipe


class TestTrafficInvariance:
    @pytest.mark.parametrize("p", [1.0, 0.5, 0.1])
    def test_bytes_match_synchronous(self, small_graph, small_partition, p):
        sampler = FullBoundarySampler() if p == 1.0 else BoundaryNodeSampler(p)
        m_sync, m_pipe = paired_models(small_graph)
        t_sync = DistributedTrainer(
            small_graph, small_partition, m_sync, sampler, lr=0.01, seed=9
        )
        t_pipe = PipelinedTrainer(
            small_graph, small_partition, m_pipe, sampler, lr=0.01, seed=9
        )
        for _ in range(3):
            t_sync.train_epoch()
            t_pipe.train_epoch()
        assert t_sync.history.comm_bytes == t_pipe.history.comm_bytes

    def test_pairwise_traffic_symmetric_roles(self, small_graph, small_partition):
        _, model = paired_models(small_graph, layers=3)
        t = PipelinedTrainer(
            small_graph, small_partition, model, FullBoundarySampler(), lr=0.01
        )
        for _ in range(2):  # the warm-up epoch, then a stale one
            per_tag = tagged_pairwise(t.comm)
            t.train_epoch()
            # backward bytes j->i mirror forward bytes i->j at layers 1..
            assert_backward_mirrors_forward(per_tag, model.dims)


class TestModeledOverlap:
    def test_breakdown_flags_overlap(self, small_graph, small_partition):
        _, model = paired_models(small_graph)
        t = PipelinedTrainer(
            small_graph, small_partition, model, FullBoundarySampler(),
            lr=0.01, cluster=RTX2080TI_CLUSTER,
        )
        t.train_epoch()
        b = t.history.modeled[-1]
        assert b.overlap_communication
        assert b.total <= b.compute + b.communication + b.reduce + 1e-12
        assert b.total >= max(b.compute, b.communication)

    def test_pipelined_epoch_never_slower_than_synchronous_model(
        self, small_graph, small_partition
    ):
        m_sync, m_pipe = paired_models(small_graph)
        t_sync = DistributedTrainer(
            small_graph, small_partition, m_sync, FullBoundarySampler(),
            lr=0.01, cluster=RTX2080TI_CLUSTER,
        )
        t_pipe = PipelinedTrainer(
            small_graph, small_partition, m_pipe, FullBoundarySampler(),
            lr=0.01, cluster=RTX2080TI_CLUSTER,
        )
        t_sync.train_epoch()
        t_pipe.train_epoch()
        assert t_pipe.history.modeled[-1].total <= t_sync.history.modeled[-1].total + 1e-12


class TestConvergence:
    def test_converges_close_to_synchronous(self, small_graph):
        part = partition_graph(small_graph, 3, method="metis", seed=0)
        m_sync, m_pipe = paired_models(small_graph, layers=2, hidden=24)
        t_sync = DistributedTrainer(small_graph, part, m_sync, lr=0.01)
        t_pipe = PipelinedTrainer(small_graph, part, m_pipe, lr=0.01)
        t_sync.train(60)
        t_pipe.train(60)
        acc_sync = t_sync.evaluate()["test"]
        acc_pipe = t_pipe.evaluate()["test"]
        assert acc_pipe > acc_sync - 0.08

    def test_composes_with_bns(self, small_graph):
        part = partition_graph(small_graph, 3, method="metis", seed=0)
        _, model = paired_models(small_graph, layers=2, hidden=24)
        t = PipelinedTrainer(
            small_graph, part, model, BoundaryNodeSampler(0.3), lr=0.01, seed=1
        )
        t.train(60)
        assert t.evaluate()["test"] > 0.5

    def test_loss_decreases(self, small_graph, small_partition):
        _, model = paired_models(small_graph)
        t = PipelinedTrainer(small_graph, small_partition, model, lr=0.01)
        h = t.train(30)
        assert h.loss[-1] < h.loss[0]


class TestMultilabel:
    def test_pipelined_multilabel_runs(self, multilabel_graph):
        part = partition_graph(multilabel_graph, 2, method="metis", seed=0)
        model = GraphSAGEModel(
            multilabel_graph.feature_dim, 16, multilabel_graph.num_classes,
            2, 0.0, np.random.default_rng(0),
        )
        t = PipelinedTrainer(
            multilabel_graph, part, model, BoundaryNodeSampler(0.5), lr=0.01
        )
        h = t.train(10)
        assert len(h.loss) == 10
        assert np.isfinite(h.loss).all()
