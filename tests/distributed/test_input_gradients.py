"""Layer 0's input is data: no rank computes, ships or meters a
gradient for it.

The input features require no gradient (as in a PyTorch model), so the
``backward`` ledger covers layers 1.. only:
``Σ_i |U_i| · Σ_{1≤ℓ<L} d_ℓ · bytes_per_scalar`` per epoch, while
``forward`` keeps every layer input.  A one-layer model moves no
gradients at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BoundaryNodeSampler, DistributedTrainer, PipelinedTrainer
from repro.dist.executor import SCHEDULES, ProcessRankExecutor, _RankLoop
from repro.dist.transport import resolve_transport
from repro.graph.generators import SyntheticSpec, generate_graph
from repro.nn.models import GraphSAGEModel
from repro.partition import partition_graph
from repro.tensor import get_default_dtype

SEED = 3
EPOCHS = 3
TOL = 1e-9 if get_default_dtype() == np.float64 else 1e-4

SPEC = SyntheticSpec(
    n=200,
    num_communities=5,
    avg_degree=9.0,
    homophily=0.7,
    degree_exponent=2.2,
    feature_dim=10,
    feature_signal=0.4,
    name="input-grads",
)


@pytest.fixture(scope="module")
def graph():
    return generate_graph(SPEC, seed=4)


@pytest.fixture(scope="module")
def partition(graph):
    return partition_graph(graph, 3, method="metis", seed=0)


def _model(graph, layers, dropout):
    return GraphSAGEModel(graph.feature_dim, 6, graph.num_classes, layers,
                          dropout, np.random.default_rng(1))


def _executor(graph, partition, transport, schedule, layers=3, dropout=0.5):
    return ProcessRankExecutor(
        graph, partition, _model(graph, layers, dropout),
        BoundaryNodeSampler(0.5), transport=transport, lr=0.01, seed=SEED,
        schedule=schedule,
    )


def _kept(by_tag, num_parts, bps):
    """Σ_i |U_i|: every rank broadcasts its kept ids to every peer."""
    return by_tag["sample_sync"] // ((num_parts - 1) * bps)


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("transport", ["local", "multiprocess", "shm"])
def test_executor_backward_is_closed_form(graph, partition, transport, schedule):
    """(a) Per epoch, the merged ledger prices gradients at layers 1..
    only, on every transport and schedule."""
    executor = _executor(graph, partition, transport, schedule)
    result = executor.train(EPOCHS)
    dims, m = executor.model.dims, partition.num_parts
    bps = np.dtype(executor.dtype).itemsize
    for by_tag in result.by_tag:
        kept = _kept(by_tag, m, bps)
        assert kept > 0
        assert by_tag["forward"] == kept * sum(dims[:-1]) * bps
        assert by_tag["backward"] == kept * sum(dims[1:-1]) * bps


@pytest.mark.parametrize("transport", ["local", "multiprocess"])
def test_one_layer_moves_no_gradients(graph, partition, transport):
    """(b) A one-layer model has no ``backward`` tag at all, and real
    ranks still reproduce the in-process trainer at dropout 0."""
    model = _model(graph, 1, 0.0)
    trainer = DistributedTrainer(graph, partition, model,
                                 BoundaryNodeSampler(0.5), lr=0.01, seed=SEED)
    ledgers = []
    for _ in range(EPOCHS):
        trainer.train_epoch()
        ledgers.append(trainer.comm.meter.snapshot())
    executor = ProcessRankExecutor(
        graph, partition, _model(graph, 1, 0.0), BoundaryNodeSampler(0.5),
        transport=transport, lr=0.01, seed=SEED,
    )
    result = executor.train(EPOCHS)
    np.testing.assert_allclose(result.history.loss, trainer.history.loss,
                               rtol=0.0, atol=TOL)
    for (pairwise, by_tag), dist_tags, dist_pairwise in zip(
        ledgers, result.by_tag, result.pairwise
    ):
        assert "backward" not in by_tag and by_tag["forward"] > 0
        assert dist_tags == by_tag
        np.testing.assert_array_equal(dist_pairwise, pairwise)


def test_pipelined_trainer_harvests_no_layer0_gradient(graph, partition):
    """(c) The stale-gradient records feed ghost terms at layers 1..
    only: layer 0's stale blocks are constants."""
    trainer = PipelinedTrainer(graph, partition, _model(graph, 3, 0.5),
                               BoundaryNodeSampler(0.5), lr=0.01, seed=SEED)
    for _ in range(EPOCHS):
        trainer.train_epoch()
        layers = {record[0] for record in trainer._stale_grads}
        assert layers == {1, 2}


def _returned_layers(ep, task):
    """Run a rank loop; after each epoch, the layers it holds returned
    boundary gradients for."""
    loop = _RankLoop(ep, task)
    seen = []
    for _ in range(task.epochs):
        ep.meter.reset()
        loop.epoch()
        seen.append(sorted({record[0] for record in loop._returned}))
    return seen


def test_pipelined_rank_keeps_no_layer0_gradient(graph, partition):
    """The pipelined rank loop posts, drains and re-injects boundary
    gradients for layers 1.. only."""
    executor = _executor(graph, partition, "local", "pipelined")
    transport = resolve_transport("local", partition.num_parts)
    seen = transport.launch(_returned_layers, executor._tasks(EPOCHS),
                            timeout=120)
    assert seen == [[[1, 2]] * EPOCHS] * partition.num_parts
