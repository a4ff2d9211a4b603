"""DistributedTrainer: the Algorithm 1 loop and its invariants.

The heart of the suite: with p=1 and no dropout, the partition-parallel
trainer must be numerically identical to single-device full-graph
training, and the metered communication must equal Eq. 3 exactly.
"""

import numpy as np
import pytest

from repro.baselines import FullGraphTrainer
from repro.core import (
    BoundaryNodeSampler,
    DistributedTrainer,
    FullBoundarySampler,
)
from repro.dist import RTX2080TI_CLUSTER
from repro.nn import GCNModel, GraphSAGEModel
from repro.partition import communication_volume, partition_graph

from ..util import assert_backward_mirrors_forward, tagged_pairwise


def make_models(graph, dropout=0.0, layers=2, hidden=16, seed=42):
    """Two models with identical initial weights."""
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


class TestFullGraphEquivalence:
    """p = 1, dropout = 0  =>  bitwise-equal to single-device training."""

    @pytest.mark.parametrize("num_parts", [2, 3, 5])
    def test_losses_match(self, small_graph, num_parts):
        part = partition_graph(small_graph, num_parts, method="metis", seed=0)
        m_full, m_dist = make_models(small_graph)
        t_full = FullGraphTrainer(small_graph, m_full, lr=0.01)
        t_dist = DistributedTrainer(
            small_graph, part, m_dist, FullBoundarySampler(), lr=0.01
        )
        for _ in range(3):
            lf = t_full.train_epoch()
            ld = t_dist.train_epoch()
            assert abs(lf - ld) < 1e-9

    def test_weights_match_after_training(self, small_graph, small_partition):
        m_full, m_dist = make_models(small_graph)
        t_full = FullGraphTrainer(small_graph, m_full, lr=0.01)
        t_dist = DistributedTrainer(
            small_graph, small_partition, m_dist, FullBoundarySampler(), lr=0.01
        )
        for _ in range(3):
            t_full.train_epoch()
            t_dist.train_epoch()
        for (_, pa), (_, pb) in zip(
            m_full.named_parameters(), m_dist.named_parameters()
        ):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-9)

    def test_evaluations_match(self, small_graph, small_partition):
        m_full, m_dist = make_models(small_graph)
        t_full = FullGraphTrainer(small_graph, m_full)
        t_dist = DistributedTrainer(
            small_graph, small_partition, m_dist, FullBoundarySampler()
        )
        sf = t_full.evaluate()
        sd = t_dist.evaluate()
        for key in ("train", "val", "test"):
            assert sf[key] == pytest.approx(sd[key])

    def test_random_partition_also_equivalent(self, small_graph):
        part = partition_graph(small_graph, 4, method="random", seed=1)
        m_full, m_dist = make_models(small_graph)
        t_full = FullGraphTrainer(small_graph, m_full)
        t_dist = DistributedTrainer(small_graph, part, m_dist, FullBoundarySampler())
        assert abs(t_full.train_epoch() - t_dist.train_epoch()) < 1e-9


class TestCommunicationMetering:
    def test_forward_bytes_equal_eq3(self, small_graph, small_partition):
        """Metered forward traffic == Σ_i |B_i| · Σ_ℓ d_ℓ · scalar bytes.

        The scalar width is the run's actual dtype (8 B for the fp64
        default) — the ledger prices what the wire would ship.
        """
        _, model = make_models(small_graph, layers=2, hidden=16)
        trainer = DistributedTrainer(
            small_graph, small_partition, model, FullBoundarySampler()
        )
        trainer.train_epoch()
        assert trainer.comm.bytes_per_scalar == np.dtype(trainer.dtype).itemsize
        volume = communication_volume(small_graph.adj, small_partition)
        width_sum = sum(model.dims[:-1])  # layer input widths
        expected = volume * width_sum * trainer.comm.bytes_per_scalar
        assert trainer.comm.total_bytes("forward") == expected

    def test_backward_mirrors_forward(self, small_graph, small_partition):
        """Metered backward traffic == Σ_i |B_i| · Σ_{1≤ℓ<L} d_ℓ · scalar
        bytes: layer 0's input is data, so no gradient returns for it."""
        _, model = make_models(small_graph, layers=3)
        trainer = DistributedTrainer(
            small_graph, small_partition, model, FullBoundarySampler()
        )
        per_tag = tagged_pairwise(trainer.comm)
        trainer.train_epoch()
        volume = communication_volume(small_graph.adj, small_partition)
        width_sum = sum(model.dims[1:-1])  # layer input widths but the first
        expected = volume * width_sum * trainer.comm.bytes_per_scalar
        assert trainer.comm.total_bytes("backward") == expected
        assert_backward_mirrors_forward(per_tag, model.dims)

    def test_bns_scales_traffic(self, small_graph, small_partition):
        _, m1 = make_models(small_graph)
        t1 = DistributedTrainer(small_graph, small_partition, m1, FullBoundarySampler())
        t1.train_epoch()
        _, m2 = make_models(small_graph)
        t2 = DistributedTrainer(
            small_graph, small_partition, m2, BoundaryNodeSampler(0.1), seed=0
        )
        t2.train_epoch()
        ratio = t2.comm.total_bytes("forward") / t1.comm.total_bytes("forward")
        assert 0.02 < ratio < 0.35  # ~0.1 with binomial noise

    def test_p_zero_only_reduce_traffic(self, small_graph, small_partition):
        _, model = make_models(small_graph)
        trainer = DistributedTrainer(
            small_graph, small_partition, model, BoundaryNodeSampler(0.0)
        )
        trainer.train_epoch()
        assert trainer.comm.total_bytes("forward") == 0
        assert trainer.comm.total_bytes("backward") == 0
        assert trainer.comm.total_bytes("reduce") > 0

    def test_sample_sync_metered(self, small_graph, small_partition):
        _, model = make_models(small_graph)
        trainer = DistributedTrainer(
            small_graph, small_partition, model, BoundaryNodeSampler(0.5)
        )
        trainer.train_epoch()
        assert trainer.comm.total_bytes("sample_sync") > 0


class TestTrainingBehaviour:
    def test_loss_decreases(self, small_graph, small_partition):
        _, model = make_models(small_graph, dropout=0.2, hidden=32)
        trainer = DistributedTrainer(
            small_graph, small_partition, model, BoundaryNodeSampler(0.5), lr=0.01
        )
        history = trainer.train(30)
        assert history.loss[-1] < history.loss[0]

    def test_learns_better_than_chance(self, small_graph, small_partition):
        _, model = make_models(small_graph, dropout=0.2, hidden=32)
        trainer = DistributedTrainer(
            small_graph, small_partition, model, BoundaryNodeSampler(0.5), lr=0.01
        )
        history = trainer.train(60, eval_every=30)
        chance = 1.0 / small_graph.num_classes
        assert history.test_metric[-1] > 3 * chance

    def test_multilabel_loss_and_metric(self, multilabel_graph):
        part = partition_graph(multilabel_graph, 3, method="metis", seed=0)
        model = GraphSAGEModel(
            multilabel_graph.feature_dim, 16, multilabel_graph.num_classes,
            2, 0.1, np.random.default_rng(0),
        )
        trainer = DistributedTrainer(
            multilabel_graph, part, model, BoundaryNodeSampler(0.5)
        )
        history = trainer.train(10, eval_every=10)
        assert np.isfinite(history.loss[-1])
        assert 0.0 <= history.test_metric[-1] <= 1.0

    def test_history_records_everything(self, small_graph, small_partition):
        _, model = make_models(small_graph)
        trainer = DistributedTrainer(
            small_graph, small_partition, model, BoundaryNodeSampler(0.3),
            cluster=RTX2080TI_CLUSTER,
        )
        history = trainer.train(5, eval_every=2)
        assert len(history.loss) == 5
        assert len(history.comm_bytes) == 5
        assert len(history.modeled) == 5
        assert len(history.wall_seconds) == 5
        assert len(history.val_metric) == len(history.eval_epochs)
        assert all(b.total > 0 for b in history.modeled)

    def test_test_at_best_val(self, small_graph, small_partition):
        _, model = make_models(small_graph, dropout=0.2)
        trainer = DistributedTrainer(
            small_graph, small_partition, model, BoundaryNodeSampler(0.5)
        )
        history = trainer.train(20, eval_every=5)
        idx = int(np.argmax(history.val_metric))
        assert history.test_at_best_val() == history.test_metric[idx]

    def test_gcn_model_supported(self, small_graph, small_partition):
        model = GCNModel(
            small_graph.feature_dim, 16, small_graph.num_classes, 2, 0.0,
            np.random.default_rng(0),
        )
        trainer = DistributedTrainer(
            small_graph, small_partition, model, FullBoundarySampler(),
            aggregation="sym",
        )
        loss = trainer.train_epoch()
        assert np.isfinite(loss)

    def test_gcn_p1_equivalence(self, small_graph, small_partition):
        a = GCNModel(
            small_graph.feature_dim, 16, small_graph.num_classes, 2, 0.0,
            np.random.default_rng(3),
        )
        b = GCNModel(
            small_graph.feature_dim, 16, small_graph.num_classes, 2, 0.0,
            np.random.default_rng(4),
        )
        b.load_state_dict(a.state_dict())
        t_full = FullGraphTrainer(small_graph, a, aggregation="sym")
        t_dist = DistributedTrainer(
            small_graph, small_partition, b, FullBoundarySampler(), aggregation="sym"
        )
        assert abs(t_full.train_epoch() - t_dist.train_epoch()) < 1e-9

    def test_empty_history_nan(self):
        from repro.core import TrainHistory

        h = TrainHistory()
        assert np.isnan(h.best_val)
        assert np.isnan(h.test_at_best_val())
