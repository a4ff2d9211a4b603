"""One Algorithm-1 epoch body: the pipelined and GAT trainers are
``DistributedTrainer`` subclasses that replace steps, not the loop."""

import numpy as np
import pytest

from repro.core import (
    BoundaryNodeSampler,
    DistributedGATTrainer,
    DistributedTrainer,
    PipelinedTrainer,
)
from repro.nn import GATModel, GraphSAGEModel
from repro.partition import partition_graph

SUBCLASSES = (PipelinedTrainer, DistributedGATTrainer)


@pytest.mark.parametrize("cls", SUBCLASSES)
class TestSingleBody:
    def test_is_subclass(self, cls):
        assert issubclass(cls, DistributedTrainer)

    @pytest.mark.parametrize("name", ["_train_epoch", "train_epoch", "train"])
    def test_inherits_the_loop(self, cls, name):
        assert getattr(cls, name) is getattr(DistributedTrainer, name)

    def test_defines_none_of_the_shared_pieces(self, cls):
        shared = {"train", "train_epoch", "_train_epoch", "_metric"}
        assert not shared & set(vars(cls))

    def test_overrides_are_declared_steps(self, cls):
        steps = {"_draw_plan", "_boundary_source", "_apply_layer",
                 "_backward", "_full_logits"}
        overridden = {
            name for name, value in vars(cls).items()
            if callable(value) and hasattr(DistributedTrainer, name)
            and name != "__init__"
        }
        assert overridden and overridden <= steps


# Recorded at the parent commit (the stand-alone GAT trainer): small
# graph (seed 5), 3 METIS parts, GATModel(hidden 8, 2 layers, dropout
# 0.1, 2 heads, rng 0, float64), lr 0.01, trainer seed 0, 5 epochs.
GAT_PINNED = {
    0.5: (
        [2.0714585729157253, 2.0098757007304613, 1.9879145760112549,
         1.9402115517862704, 1.9158599234765927],
        [(71424, 4464), (70912, 4432), (72704, 4544), (72192, 4512),
         (71168, 4448)],
    ),
    1.0: (
        [2.047401492530715, 2.00380925442295, 1.991695974355688,
         1.9752522136298634, 1.903161700535368],
        [(141568, 8848)] * 5,
    ),
}


@pytest.mark.parametrize("p", sorted(GAT_PINNED))
def test_gat_trajectory_matches_parent_commit(small_graph, p):
    g = small_graph
    part = partition_graph(g, 3, method="metis", seed=0)
    model = GATModel(
        g.feature_dim, 8, g.num_classes, 2, 0.1, np.random.default_rng(0),
        num_heads=2, dtype="float64",
    )
    trainer = DistributedGATTrainer(g, part, model, p=p, lr=0.01, seed=0)
    losses, ledgers = [], []
    for _ in range(5):
        losses.append(trainer.train_epoch())
        ledgers.append(dict(trainer.comm.meter.by_tag))
    want_losses, want_bytes = GAT_PINNED[p]
    np.testing.assert_allclose(losses, want_losses, rtol=1e-12, atol=0.0)
    assert ledgers == [
        {"forward": fwd, "backward": fwd, "reduce": 13824, "sample_sync": sync}
        for fwd, sync in want_bytes
    ]


@pytest.mark.parametrize("cls", (DistributedTrainer, PipelinedTrainer))
def test_history_is_rectangular_via_train_epoch(small_graph, small_partition, cls):
    g = small_graph
    model = GraphSAGEModel(
        g.feature_dim, 8, g.num_classes, 2, 0.0, np.random.default_rng(0)
    )
    trainer = cls(g, small_partition, model, BoundaryNodeSampler(0.5))
    for _ in range(3):
        trainer.train_epoch()
    trainer.train(2)
    h = trainer.history
    assert (len(h.loss) == len(h.comm_bytes) == len(h.sampling_seconds)
            == len(h.wall_seconds) == 5)
    assert all(w > 0 for w in h.wall_seconds)
