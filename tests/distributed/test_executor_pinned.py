"""Pinned real-rank trajectories, and one launch per executor.

The equivalence suites compare the executor with the in-process
trainers at dropout 0, where the two agree.  These pins cover what
they cannot: dropout 0.5 draws from per-rank streams, so the executor
is its own oracle here, recorded when the synchronous and pipelined
schedules still had separate rank bodies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sampler import BoundaryNodeSampler
from repro.dist.executor import SCHEDULES, ProcessRankExecutor
from repro.graph.generators import SyntheticSpec, generate_graph
from repro.nn.models import GraphSAGEModel
from repro.partition import partition_graph

SPEC = SyntheticSpec(
    n=300,
    num_communities=6,
    avg_degree=10.0,
    homophily=0.7,
    degree_exponent=2.2,
    feature_dim=12,
    feature_signal=0.4,
    name="pinned",
)


@pytest.fixture(scope="module")
def graph():
    return generate_graph(SPEC, seed=7)


@pytest.fixture(scope="module")
def partition(graph):
    return partition_graph(graph, 4, method="metis", seed=0)


def _executor(graph, partition, schedule):
    model = GraphSAGEModel(graph.feature_dim, 8, graph.num_classes, 2, 0.5,
                           np.random.default_rng(1), dtype="float64")
    return ProcessRankExecutor(
        graph, partition, model, BoundaryNodeSampler(0.5), transport="local",
        lr=0.01, seed=3, schedule=schedule,
    )


# Graph above (seed 7), 4 METIS parts, GraphSAGE(hidden 8, 2 layers,
# dropout 0.5, rng 1, float64), BNS p = 0.5, lr 0.01, executor seed 3,
# local transport, 5 epochs.  Epoch 0 is the pipelined warm-up, so it
# equals the synchronous epoch 0.
PINNED_LOSSES = {
    "synchronous": [2.4475518229095483, 2.3897369439377827,
                    2.176588818558704, 2.147164541969184,
                    2.0001275837565973],
    "pipelined": [2.4475518229095483, 2.3804436954814268,
                  2.149607755286614, 2.1628096261175123,
                  1.992791838015285],
}
# (sample_sync, forward) bytes per epoch; backward mirrors forward at
# layer 1 only (layer 0's input is data: width 8 of 12 + 8, so 42880 ->
# 17152) and the AllReduce is constant.  Staleness moves traffic in
# time, not in volume, so both schedules share the ledger.
PINNED_BYTES = [(6432, 42880), (6864, 45760), (6912, 46080),
                (6144, 40960), (6864, 45760)]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_trajectory_matches_pinned(graph, partition, schedule):
    executor = _executor(graph, partition, schedule)
    result = executor.train(5)
    np.testing.assert_allclose(
        result.history.loss, PINNED_LOSSES[schedule], rtol=1e-12, atol=0.0
    )
    dims = executor.model.dims
    assert result.by_tag == [
        {"sample_sync": sync, "forward": fwd,
         "backward": fwd * sum(dims[1:-1]) // sum(dims[:-1]), "reduce": 14496}
        for sync, fwd in PINNED_BYTES
    ]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_second_train_raises(graph, partition, schedule):
    """A second launch would re-seed the RNG streams and rebuild Adam
    on trained weights — a silent restart, not a continuation."""
    executor = _executor(graph, partition, schedule)
    executor.train(1)
    state = executor.model.state_dict()
    with pytest.raises(RuntimeError, match="new executor"):
        executor.train(1)
    for name, arr in executor.model.state_dict().items():
        np.testing.assert_array_equal(arr, state[name])
