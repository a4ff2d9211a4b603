"""Sampling-based baseline trainers: each learns, samples correctly,
and records the bookkeeping the time model needs."""

import numpy as np
import pytest

from repro.baselines import (
    ClusterGCNTrainer,
    FastGCNTrainer,
    FullGraphTrainer,
    GraphSaintTrainer,
    LadiesTrainer,
    NeighborSamplingTrainer,
    SAMPLERS,
    VRGCNTrainer,
)
from repro.nn import GCNModel, GraphSAGEModel


def sage_model(graph, seed=0, hidden=16, layers=2, dropout=0.1):
    return GraphSAGEModel(
        graph.feature_dim, hidden, graph.num_classes, layers, dropout,
        np.random.default_rng(seed),
    )


def gcn_model(graph, seed=0, hidden=16, layers=2, dropout=0.1):
    return GCNModel(
        graph.feature_dim, hidden, graph.num_classes, layers, dropout,
        np.random.default_rng(seed),
    )


class TestFullGraphTrainer:
    def test_loss_decreases(self, small_graph):
        t = FullGraphTrainer(small_graph, sage_model(small_graph), lr=0.01)
        losses = t.train(20)
        assert losses[-1] < losses[0]

    def test_evaluate_keys(self, small_graph):
        t = FullGraphTrainer(small_graph, sage_model(small_graph))
        scores = t.evaluate()
        assert set(scores) == {"train", "val", "test"}

    def test_bad_aggregation(self, small_graph):
        with pytest.raises(ValueError):
            FullGraphTrainer(small_graph, sage_model(small_graph), aggregation="max")

    def test_multilabel(self, multilabel_graph):
        t = FullGraphTrainer(multilabel_graph, sage_model(multilabel_graph))
        loss = t.train_epoch()
        assert np.isfinite(loss)


class TestNeighborSampling:
    def test_learns(self, small_graph):
        t = NeighborSamplingTrainer(
            small_graph, sage_model(small_graph), fanout=5, batch_size=128, seed=0
        )
        h = t.train(8, eval_every=8)
        assert h.test_metric[-1] > 1.5 / small_graph.num_classes

    def test_invalid_fanout(self, small_graph):
        with pytest.raises(ValueError):
            NeighborSamplingTrainer(small_graph, sage_model(small_graph), fanout=0)

    def test_records_sampling_stats(self, small_graph):
        t = NeighborSamplingTrainer(
            small_graph, sage_model(small_graph), fanout=3, batch_size=128
        )
        t.train_epoch()
        assert t.history.sampler_edges[-1] > 0
        assert t.history.compute_flops[-1] > 0

    def test_block_respects_fanout(self, small_graph):
        t = NeighborSamplingTrainer(
            small_graph, sage_model(small_graph), fanout=4, batch_size=64
        )
        dst = np.flatnonzero(small_graph.train_mask)[:50]
        src, block, self_pos, _ = t._sample_block(dst)
        row_counts = np.diff(block.indptr)
        assert row_counts.max() <= 4
        # Self positions point back at the dst nodes inside src.
        np.testing.assert_array_equal(src[self_pos], dst)

    def test_block_rows_are_sample_means(self, small_graph):
        t = NeighborSamplingTrainer(
            small_graph, sage_model(small_graph), fanout=4, batch_size=64
        )
        dst = np.flatnonzero(small_graph.train_mask)[:20]
        _, block, _, _ = t._sample_block(dst)
        sums = np.asarray(block.sum(axis=1)).ravel()
        nonzero = sums[sums > 0]
        np.testing.assert_allclose(nonzero, 1.0)


class TestFastGCN:
    def test_learns(self, small_graph):
        t = FastGCNTrainer(
            small_graph, gcn_model(small_graph), layer_size=128, batch_size=128, seed=0
        )
        h = t.train(8, eval_every=8)
        assert h.test_metric[-1] > 1.5 / small_graph.num_classes

    def test_invalid_layer_size(self, small_graph):
        with pytest.raises(ValueError):
            FastGCNTrainer(small_graph, gcn_model(small_graph), layer_size=0)

    def test_importance_distribution_normalised(self, small_graph):
        t = FastGCNTrainer(small_graph, gcn_model(small_graph))
        assert t._q.sum() == pytest.approx(1.0)
        assert (t._q >= 0).all()


class TestLadies:
    def test_learns(self, small_graph):
        t = LadiesTrainer(
            small_graph, gcn_model(small_graph), layer_size=128, batch_size=128, seed=0
        )
        h = t.train(8, eval_every=8)
        assert h.test_metric[-1] > 1.5 / small_graph.num_classes

    def test_source_sets_contain_dst(self, small_graph):
        # LADIES keeps destination nodes in the source set (self loops).
        t = LadiesTrainer(small_graph, gcn_model(small_graph), layer_size=32)
        batch = np.flatnonzero(small_graph.train_mask)[:16]
        t.train_step(batch)  # exercises set construction without error


class TestClusterGCN:
    def test_learns(self, small_graph):
        t = ClusterGCNTrainer(
            small_graph, sage_model(small_graph), num_clusters=8,
            clusters_per_batch=2, seed=0,
        )
        h = t.train(8, eval_every=8)
        assert h.test_metric[-1] > 1.5 / small_graph.num_classes

    def test_invalid_cluster_config(self, small_graph):
        with pytest.raises(ValueError):
            ClusterGCNTrainer(
                small_graph, sage_model(small_graph),
                num_clusters=4, clusters_per_batch=8,
            )

    def test_clustering_cost_recorded(self, small_graph):
        t = ClusterGCNTrainer(
            small_graph, sage_model(small_graph), num_clusters=8, clusters_per_batch=2
        )
        assert t.clustering_seconds > 0
        assert t.clustering_edges == small_graph.adj.nnz

    def test_epoch_visits_every_cluster_once(self, small_graph):
        t = ClusterGCNTrainer(
            small_graph, sage_model(small_graph), num_clusters=8, clusters_per_batch=2
        )
        visited = []
        for nodes in t._batches():
            visited.extend(nodes.tolist())
        assert sorted(visited) == list(range(small_graph.num_nodes))


class TestGraphSaint:
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_each_sampler_trains(self, small_graph, sampler):
        t = GraphSaintTrainer(
            small_graph, sage_model(small_graph), sampler=sampler,
            budget=150, seed=0,
        )
        loss = t.train_epoch()
        assert np.isfinite(loss)

    def test_unknown_sampler(self, small_graph):
        with pytest.raises(ValueError):
            GraphSaintTrainer(small_graph, sage_model(small_graph), sampler="bfs")

    def test_learns(self, small_graph):
        t = GraphSaintTrainer(
            small_graph, sage_model(small_graph), sampler="node", budget=200, seed=0
        )
        h = t.train(10, eval_every=10)
        assert h.test_metric[-1] > 1.5 / small_graph.num_classes

    def test_sampler_overhead_recorded(self, small_graph):
        t = GraphSaintTrainer(
            small_graph, sage_model(small_graph), sampler="rw", budget=150
        )
        t.train_epoch()
        assert t.history.sampler_edges[-1] > 0


class TestVRGCN:
    def test_learns(self, small_graph):
        t = VRGCNTrainer(
            small_graph, sage_model(small_graph), fanout=2, batch_size=128, seed=0
        )
        h = t.train(6, eval_every=6)
        assert h.test_metric[-1] > 1.5 / small_graph.num_classes

    def test_invalid_fanout(self, small_graph):
        with pytest.raises(ValueError):
            VRGCNTrainer(small_graph, sage_model(small_graph), fanout=0)

    def test_history_memory_overhead(self, small_graph):
        t = VRGCNTrainer(small_graph, sage_model(small_graph, hidden=32, layers=3))
        # Histories: raw features + one hidden layer per extra layer.
        expected = small_graph.num_nodes * (small_graph.feature_dim + 32 + 32) * 8
        assert t.history_bytes == expected

    def test_history_refreshed_for_batch(self, small_graph):
        t = VRGCNTrainer(
            small_graph, sage_model(small_graph), fanout=2, batch_size=64, seed=0
        )
        before = t._history[1].copy()
        batch = np.flatnonzero(small_graph.train_mask)[:64]
        t.train_step(batch)
        assert not np.allclose(t._history[1][batch], before[batch])


class TestEvaluateDtype:
    """evaluate() runs in the model's dtype, whatever the library default."""

    @pytest.mark.parametrize("trainer_cls", [
        FullGraphTrainer, NeighborSamplingTrainer,
    ])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_eval_logits_follow_model_dtype(
        self, small_graph, monkeypatch, trainer_cls, dtype
    ):
        g = small_graph
        model = GraphSAGEModel(
            g.feature_dim, 8, g.num_classes, 2, 0.0,
            np.random.default_rng(0), dtype=dtype,
        )
        trainer = trainer_cls(g, model)
        seen = []
        full_forward = model.full_forward

        def spy(*args):
            out = full_forward(*args)
            seen.append(out.dtype)
            return out

        monkeypatch.setattr(model, "full_forward", spy)
        scores = trainer.evaluate()
        assert set(scores) == {"train", "val", "test"}
        assert seen == [np.dtype(dtype)]
