"""Pipelined (staleness-1) execution on real ranks vs PipelinedTrainer.

The acceptance gate of the overlapped-execution PR: a seeded 4-rank
multiprocess run under ``schedule="pipelined"`` must reproduce the
in-process :class:`~repro.core.pipeline.PipelinedTrainer` — the same
stale-feature forward, the same ghost-loss stale-gradient delivery —
at dtype-appropriate tolerance (1e-9 fp64 / 1e-4 fp32):

* per-epoch loss trajectory,
* final (AllReduce-summed) parameter gradients,
* final model replicas,
* per-tag byte ledgers and pairwise matrices **byte-for-byte equal**
  every epoch (staleness changes *when* traffic moves, not how much).

On top of equivalence, the executor must *measure* the overlap: every
rank splits epoch wall time into compute vs blocked-in-recv seconds,
which is what the e2e benchmark's ``executor.blocked_frac`` reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import PipelinedTrainer
from repro.core.sampler import (
    BoundaryNodeSampler,
    FullBoundarySampler,
    ImportanceBoundarySampler,
)
from repro.core.trainer import DistributedTrainer
from repro.dist.executor import ProcessRankExecutor
from repro.graph.generators import SyntheticSpec, generate_graph
from repro.nn.models import GCNModel, GraphSAGEModel
from repro.partition import partition_graph
from repro.tensor import get_default_dtype

SEED = 3
EPOCHS = 4
TOL = 1e-9 if get_default_dtype() == np.float64 else 1e-4

SPEC = SyntheticSpec(
    n=300,
    num_communities=6,
    avg_degree=10.0,
    homophily=0.7,
    degree_exponent=2.2,
    feature_dim=12,
    feature_signal=0.4,
    name="pipelined-equiv",
)


@pytest.fixture(scope="module")
def graph():
    return generate_graph(SPEC, seed=7)


@pytest.fixture(scope="module")
def partition(graph):
    return partition_graph(graph, 4, method="metis", seed=0)


def _make_model(graph, kind="sage", dtype=None, layers=2):
    cls = GraphSAGEModel if kind == "sage" else GCNModel
    # dropout=0: per-rank dropout streams have no simulated analogue.
    return cls(graph.feature_dim, 8, graph.num_classes, layers, 0.0,
               np.random.default_rng(1), dtype=dtype)


def _sim_pipelined_run(graph, partition, sampler, kind="sage", epochs=EPOCHS,
                       dtype=None, layers=2):
    model = _make_model(graph, kind, dtype, layers)
    trainer = PipelinedTrainer(
        graph, partition, model, sampler, lr=0.01, seed=SEED,
        aggregation="sym" if kind == "gcn" else "mean",
    )
    by_tag, pairwise = [], []
    for _ in range(epochs):
        trainer.train_epoch()
        pw, tags = trainer.comm.meter.snapshot()
        by_tag.append(tags)
        pairwise.append(pw)
    grads = np.concatenate([p.grad.ravel() for p in model.parameters()])
    return trainer, model, by_tag, pairwise, grads


def _executor_run(graph, partition, sampler, transport, kind="sage",
                  epochs=EPOCHS, dtype=None, layers=2, **kwargs):
    model = _make_model(graph, kind, dtype, layers)
    executor = ProcessRankExecutor(
        graph, partition, model, sampler, transport=transport,
        lr=0.01, seed=SEED, schedule="pipelined",
        aggregation="sym" if kind == "gcn" else "mean", **kwargs,
    )
    result = executor.train(epochs)
    return executor, model, result


def _assert_equivalent(sim, dist, tol=None):
    tol = TOL if tol is None else tol
    trainer, sim_model, sim_tags, sim_pairwise, sim_grads = sim
    _executor, dist_model, result = dist
    np.testing.assert_allclose(
        result.history.loss, trainer.history.loss, rtol=0.0, atol=tol
    )
    np.testing.assert_allclose(result.grad_flat, sim_grads, rtol=0.0, atol=tol)
    for name, arr in sim_model.state_dict().items():
        np.testing.assert_allclose(
            dist_model.state_dict()[name], arr, rtol=0.0, atol=tol,
            err_msg=f"parameter {name} diverged",
        )
    assert result.by_tag == sim_tags
    for pw_dist, pw_sim in zip(result.pairwise, sim_pairwise):
        assert (pw_dist == pw_sim).all()


class TestMultiprocessPipelined:
    """The ISSUE acceptance case: 4 real processes, staleness-1."""

    def test_pipelined_seeded_4rank(self, graph, partition):
        sim = _sim_pipelined_run(graph, partition, BoundaryNodeSampler(0.5))
        dist = _executor_run(
            graph, partition, BoundaryNodeSampler(0.5), "multiprocess",
            timeout=240.0,
        )
        _assert_equivalent(sim, dist)

    def test_pipelined_importance_4rank(self, graph, partition):
        """Importance-weighted sampling under staleness-1: the workers
        derive π locally and the stale exchanges still match the
        simulated PipelinedTrainer byte for byte."""
        sim = _sim_pipelined_run(
            graph, partition, ImportanceBoundarySampler(0.4)
        )
        dist = _executor_run(
            graph, partition, ImportanceBoundarySampler(0.4),
            "multiprocess", timeout=240.0,
        )
        _assert_equivalent(sim, dist)


class TestSharedMemoryPipelined:
    """Staleness-1 over shared-memory rings: the non-blocking
    post_exchange/complete_exchange path rides the inherited Endpoint
    machinery, so the stale exchanges must match the simulated
    PipelinedTrainer exactly as the pipe-backed transport does."""

    def test_pipelined_seeded_4rank_shm(self, graph, partition):
        sim = _sim_pipelined_run(graph, partition, BoundaryNodeSampler(0.5))
        dist = _executor_run(
            graph, partition, BoundaryNodeSampler(0.5), "shm",
            timeout=240.0,
        )
        _assert_equivalent(sim, dist)

    def test_pipelined_fp32_4rank_shm(self, graph, partition):
        sim = _sim_pipelined_run(
            graph, partition, BoundaryNodeSampler(0.5), dtype="float32"
        )
        dist = _executor_run(
            graph, partition, BoundaryNodeSampler(0.5), "shm",
            dtype="float32", timeout=240.0,
        )
        _assert_equivalent(sim, dist, tol=1e-4)


class TestLocalPipelined:
    """Thread-backed pipelined runs: fast enough to sweep configs."""

    def test_bns_p05(self, graph, partition):
        sim = _sim_pipelined_run(graph, partition, BoundaryNodeSampler(0.5))
        dist = _executor_run(
            graph, partition, BoundaryNodeSampler(0.5), "local"
        )
        _assert_equivalent(sim, dist)

    def test_vanilla_p1(self, graph, partition):
        sim = _sim_pipelined_run(graph, partition, FullBoundarySampler())
        dist = _executor_run(graph, partition, FullBoundarySampler(), "local")
        _assert_equivalent(sim, dist)

    def test_isolated_p0(self, graph, partition):
        """No boundary traffic: stale caches never matter."""
        sim = _sim_pipelined_run(graph, partition, BoundaryNodeSampler(0.0))
        dist = _executor_run(
            graph, partition, BoundaryNodeSampler(0.0), "local"
        )
        _assert_equivalent(sim, dist)

    def test_importance_scale_mode(self, graph, partition):
        """HT-weighted stale operators (vector col_scale) pipeline too."""
        sim = _sim_pipelined_run(
            graph, partition, ImportanceBoundarySampler(0.4, mode="scale")
        )
        dist = _executor_run(
            graph, partition,
            ImportanceBoundarySampler(0.4, mode="scale"), "local",
        )
        _assert_equivalent(sim, dist)

    def test_gcn_sym_aggregation(self, graph, partition):
        sim = _sim_pipelined_run(
            graph, partition, BoundaryNodeSampler(0.5), "gcn"
        )
        dist = _executor_run(
            graph, partition, BoundaryNodeSampler(0.5), "local", "gcn"
        )
        _assert_equivalent(sim, dist)

    def test_fp32_pipelined(self, graph, partition):
        sim = _sim_pipelined_run(
            graph, partition, BoundaryNodeSampler(0.5), dtype="float32"
        )
        dist = _executor_run(
            graph, partition, BoundaryNodeSampler(0.5), "local",
            dtype="float32",
        )
        _assert_equivalent(sim, dist, tol=1e-4)
        assert dist[2].grad_flat.dtype == np.float32

    def test_three_layers(self, graph, partition):
        """The middle segment is seeded by ``out.backward(seed)`` and
        receives last epoch's returned gradients — a path two layers
        skip."""
        sim = _sim_pipelined_run(
            graph, partition, BoundaryNodeSampler(0.5), layers=3
        )
        dist = _executor_run(
            graph, partition, BoundaryNodeSampler(0.5), "local", layers=3
        )
        _assert_equivalent(sim, dist)

    def test_three_ranks_odd_world(self, graph):
        """An odd rank count splits the ring AllReduce into uneven
        chunks; the pipelined run must still match."""
        part3 = partition_graph(graph, 3, method="metis", seed=0)
        sim = _sim_pipelined_run(graph, part3, BoundaryNodeSampler(0.5))
        dist = _executor_run(graph, part3, BoundaryNodeSampler(0.5), "local")
        _assert_equivalent(sim, dist)

    def test_single_rank_degenerate(self, graph):
        part1 = partition_graph(graph, 1, method="random", seed=0)
        sim = _sim_pipelined_run(graph, part1, FullBoundarySampler())
        dist = _executor_run(graph, part1, FullBoundarySampler(), "local")
        _assert_equivalent(sim, dist)


class TestScheduleSemantics:
    """Properties of the schedule itself, not just sim agreement."""

    def test_warmup_epoch_matches_synchronous(self, graph, partition):
        """Epoch 0 serves fresh features (PipeGCN's first iteration),
        so its loss equals the synchronous schedule's epoch 0."""
        model = _make_model(graph)
        sync = DistributedTrainer(
            graph, partition, model, BoundaryNodeSampler(0.5),
            lr=0.01, seed=SEED,
        )
        sync.train_epoch()
        dist = _executor_run(
            graph, partition, BoundaryNodeSampler(0.5), "local", epochs=1
        )
        assert abs(dist[2].history.loss[0] - sync.history.loss[0]) < TOL

    def test_staleness_changes_bytes_not_at_all(self, graph, partition):
        """Synchronous and pipelined ledgers are identical per epoch —
        staleness moves traffic in time, not in volume."""
        model_a = _make_model(graph)
        sync_ex = ProcessRankExecutor(
            graph, partition, model_a, BoundaryNodeSampler(0.5),
            transport="local", lr=0.01, seed=SEED, schedule="synchronous",
        )
        sync_res = sync_ex.train(EPOCHS)
        dist = _executor_run(
            graph, partition, BoundaryNodeSampler(0.5), "local"
        )
        assert dist[2].by_tag == sync_res.by_tag
        for pw_a, pw_b in zip(dist[2].pairwise, sync_res.pairwise):
            assert (pw_a == pw_b).all()

    def test_wall_and_blocked_seconds_recorded(self, graph, partition):
        """Every rank's epoch splits into compute vs blocked-in-recv."""
        _, _, result = _executor_run(
            graph, partition, BoundaryNodeSampler(0.5), "local", epochs=3
        )
        m = partition.num_parts
        assert len(result.epoch_wall_seconds) == 3
        assert len(result.blocked_recv_seconds) == 3
        for walls, blocked in zip(
            result.epoch_wall_seconds, result.blocked_recv_seconds
        ):
            assert len(walls) == m and len(blocked) == m
            for w, b in zip(walls, blocked):
                assert w > 0.0
                assert 0.0 <= b <= w + 1e-6
        assert 0.0 <= result.blocked_fraction() <= 1.0
        assert result.schedule == "pipelined"
        # history.wall_seconds is the slowest rank of each epoch.
        assert result.history.wall_seconds == [
            max(walls) for walls in result.epoch_wall_seconds
        ]

    def test_flops_match_simulated_accounting(self, graph, partition):
        """The worker prices compute through the shared layer_flops
        helper — identical to what the simulated trainer records."""
        model = _make_model(graph)
        sim = DistributedTrainer(
            graph, partition, model, FullBoundarySampler(), lr=0.01,
            seed=SEED,
        )
        from repro.dist.cost_model import layer_flops

        dist = _executor_run(
            graph, partition, FullBoundarySampler(), "local", epochs=1
        )
        dims = model.dims
        for rank_flops, r in zip(dist[2].flops[0], sim.runtime.ranks):
            plan = FullBoundarySampler().plan(r, np.random.default_rng(0))
            expected = sum(
                layer_flops(plan.prop.nnz, r.n_inner, dims[l], dims[l + 1])
                for l in range(len(dims) - 1)
            )
            assert rank_flops == expected

    def test_unknown_schedule_rejected(self, graph, partition):
        with pytest.raises(ValueError, match="schedule"):
            ProcessRankExecutor(
                graph, partition, _make_model(graph),
                BoundaryNodeSampler(0.5), transport="local",
                schedule="warp-speed",
            )
