"""One Algorithm-1 epoch body: the pipelined and GAT trainers are
``DistributedTrainer`` subclasses that replace steps, not the loop."""

import hashlib

import numpy as np
import pytest

from repro.core import (
    BoundaryNodeSampler,
    DistributedGATTrainer,
    DistributedTrainer,
    FullBoundarySampler,
    PipelinedTrainer,
)
from repro.nn import GATModel, GraphSAGEModel
from repro.partition import partition_graph

SUBCLASSES = (PipelinedTrainer, DistributedGATTrainer)


def backward_bytes(forward, dims):
    """The ``backward`` bytes that mirror ``forward`` bytes: the same
    boundary rows, but only at layers 1.. — layer 0's input is data."""
    assert forward * sum(dims[1:-1]) % sum(dims[:-1]) == 0
    return forward * sum(dims[1:-1]) // sum(dims[:-1])


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
        {"forward": fwd, "backward": backward_bytes(fwd, model.dims),
         "reduce": 13824, "sample_sync": sync}
        for fwd, sync in want_bytes
    ]


# Recorded before boundary fetches became row-indexed gradients: small
# graph (seed 5), 4 METIS parts, GraphSAGE(hidden 8, 3 layers, dropout
# 0.5, rng 0, float64), lr 0.01, trainer seed 0, 5 epochs.  Exact, so a
# change in how the tape accumulates shows here first (a BLAS build that
# rounds matmuls differently would move them too).
SAGE_PINNED = {
    (DistributedTrainer, 1.0): (
        ["0x1.49ad91489680cp+1", "0x1.3049bd65041bfp+1", "0x1.30bab00925936p+1",
         "0x1.2bc33db74b4bdp+1", "0x1.1fa334d23beacp+1"],
        "cad695498644e9009d7c5ee3bd83b6d04e4737a69da9a17e264ea575d7711b68",
    ),
    (DistributedTrainer, 0.5): (
        ["0x1.486f1011ea997p+1", "0x1.379363ff1dd2cp+1", "0x1.30badd1c354c8p+1",
         "0x1.29542a51cc06fp+1", "0x1.1a6261765cee7p+1"],
        "02d48b6ac6ee7883de4bdd0a84b33bf57cc122ce1f5cb048d8216848d99ef1f8",
    ),
    (PipelinedTrainer, 1.0): (
        ["0x1.49ad91489680cp+1", "0x1.2fc4954231ca6p+1", "0x1.3263a52f6c066p+1",
         "0x1.290a692a82a49p+1", "0x1.21766e14354ebp+1"],
        "cfc973996bf32d5e1cd5b90f58ce0a96c03a873984ca066103a5da5f2553a81d",
    ),
    (PipelinedTrainer, 0.5): (
        ["0x1.486f1011ea997p+1", "0x1.36d58966a6878p+1", "0x1.312feae83538ep+1",
         "0x1.2b956784547a6p+1", "0x1.193f0df8c0117p+1"],
        "e2c6f9d2f7caa823367e953ce643d42cc0196bc05145976fcd3334080077bcd4",
    ),
}
# (sample_sync, forward) bytes per epoch; backward mirrors forward at
# layers 1.. (backward_bytes), the AllReduce is constant, and staleness
# moves no bytes.
SAGE_PINNED_BYTES = {
    1.0: [(17160, 183040)] * 5,
    0.5: [(8832, 94208), (8784, 93696), (8784, 93696), (8376, 89344),
          (8952, 95488)],
}


@pytest.mark.parametrize("cls, p", sorted(SAGE_PINNED, key=lambda k: (k[0].__name__, k[1])))
def test_sage_trajectory_matches_pinned(small_graph, small_partition, cls, p):
    g = small_graph
    model = GraphSAGEModel(
        g.feature_dim, 8, g.num_classes, 3, 0.5, np.random.default_rng(0),
        dtype="float64",
    )
    sampler = FullBoundarySampler() if p == 1.0 else BoundaryNodeSampler(p)
    trainer = cls(g, small_partition, model, sampler, lr=0.01, seed=0)
    losses, ledgers = [], []
    for _ in range(5):
        losses.append(trainer.train_epoch().hex())
        ledgers.append(dict(trainer.comm.meter.by_tag))
    digest = hashlib.sha256(b"".join(q.data.tobytes() for q in model.parameters()))
    assert (losses, digest.hexdigest()) == SAGE_PINNED[cls, p]
    assert ledgers == [
        {"sample_sync": sync, "forward": fwd,
         "backward": backward_bytes(fwd, model.dims), "reduce": 25728}
        for sync, fwd in SAGE_PINNED_BYTES[p]
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
