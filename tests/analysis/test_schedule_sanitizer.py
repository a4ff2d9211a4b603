"""Cross-rank communication checking: REPRO_SANITIZE=schedule.

Every seeded-violation fixture in ``comm_fixtures/`` must be caught by
the schedule explorer and every clean twin must run clean under it.
The executor's real rank program (both schedules, ring AllReduce,
world sizes 2–5) must run deadlock-free under explored
interleavings and reproduce the unexplored run exactly.
"""

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.core.sampler import BoundaryNodeSampler
from repro.dist import transport as transport_mod
from repro.dist.executor import ProcessRankExecutor
from repro.dist.transport import LocalTransport, TransportError
from repro.graph.generators import SyntheticSpec, generate_graph
from repro.nn.models import GraphSAGEModel
from repro.partition import partition_graph
from tests.analysis.comm_fixtures.clean_twins import (
    completed_exchange_worker,
    matched_tags_worker,
    safe_ring_worker,
    shared_allreduce_worker,
)
from tests.analysis.comm_fixtures.crossed_tags import crossed_tags_worker
from tests.analysis.comm_fixtures.leak_exchange import leak_exchange_worker
from tests.analysis.comm_fixtures.lonely_allreduce import (
    lonely_allreduce_worker,
)
from tests.analysis.comm_fixtures.send_cycle import send_cycle_worker


@pytest.fixture(autouse=True)
def _schedule_mode():
    sanitizer.install_schedule_sanitizer(True, seed=3)
    try:
        yield
    finally:
        sanitizer.reset()


def _launch(worker, world=3, timeout=20.0):
    transport = LocalTransport(world, recv_timeout=5.0)
    return transport.launch(worker, timeout=timeout)


def test_send_cycle_confirmed_as_deadlock():
    with pytest.raises(TransportError) as err:
        _launch(send_cycle_worker)
    text = str(err.value)
    assert "DeadlockError" in text
    assert "schedule trace" in text
    assert "REPRO_SCHEDULE_SEED" in text  # replay line


def test_lonely_allreduce_waits_on_finished_rank():
    with pytest.raises(TransportError) as err:
        _launch(lonely_allreduce_worker)
    assert "DeadlockError" in str(err.value)


def test_leaked_exchange_raises_at_rank_boundary():
    with pytest.raises(TransportError) as err:
        _launch(leak_exchange_worker)
    text = str(err.value)
    assert "ScheduleError" in text
    assert "never completed" in text


def test_crossed_tags_fail_fast():
    # The transport's own tag check fires on delivery; the explorer's
    # job is only to make sure the schedule still reaches it.
    with pytest.raises(TransportError) as err:
        _launch(crossed_tags_worker, world=2)
    assert "tag" in str(err.value)


@pytest.mark.parametrize("worker", [
    matched_tags_worker,
    safe_ring_worker,
    shared_allreduce_worker,
    completed_exchange_worker,
])
def test_clean_twins_run_clean(worker):
    results = _launch(worker)
    assert len(results) == 3


def test_trace_replays_deterministically():
    texts = []
    for _ in range(2):
        sanitizer.reset()
        sanitizer.install_schedule_sanitizer(True, seed=7)
        with pytest.raises(TransportError) as err:
            _launch(send_cycle_worker)
        texts.append(str(err.value))
    # Same seed, same fixture: the deadlock report (ranks, waits,
    # replay line) is identical across runs.
    markers = [
        [ln for ln in t.splitlines() if "replay:" in ln] for t in texts
    ]
    assert markers[0] == markers[1] and markers[0]


def test_disabled_explorer_is_inert():
    sanitizer.reset()  # back to plain queues
    results = _launch(shared_allreduce_worker)
    assert len(results) == 3


EXECUTOR_SPEC = SyntheticSpec(
    n=120,
    num_communities=4,
    avg_degree=6.0,
    homophily=0.7,
    degree_exponent=2.2,
    feature_dim=8,
    feature_signal=0.4,
    name="schedule-executor",
)


@pytest.fixture(scope="module")
def executor_graph():
    return generate_graph(EXECUTOR_SPEC, seed=5)


def _executor_run(graph, partition, schedule):
    """Per-epoch losses and per-tag ledgers of a 3-epoch threaded run
    (dropout and BNS p = 0.5, so every RNG stream is exercised)."""
    model = GraphSAGEModel(graph.feature_dim, 8, graph.num_classes, 2, 0.5,
                           np.random.default_rng(1))
    executor = ProcessRankExecutor(
        graph, partition, model, BoundaryNodeSampler(0.5),
        transport="local", seed=0, schedule=schedule, timeout=60.0,
    )
    result = executor.train(3)
    return result.history.loss, result.by_tag


@pytest.mark.parametrize("explorer_seed", [0, 1])
@pytest.mark.parametrize("schedule", ["synchronous", "pipelined"])
@pytest.mark.parametrize("world", [2, 3, 4, 5])
def test_executor_rank_program_explored(executor_graph, monkeypatch, world,
                                        schedule, explorer_seed):
    partition = partition_graph(executor_graph, world, method="metis",
                                seed=0)
    sanitizer.install_schedule_sanitizer(False)
    reference = _executor_run(executor_graph, partition, schedule)

    explorers = []

    def capture(num_ranks):
        explorer = sanitizer.begin_schedule_exploration(num_ranks)
        explorers.append(explorer)
        return explorer

    monkeypatch.setattr(transport_mod, "begin_schedule_exploration", capture)
    sanitizer.install_schedule_sanitizer(True, seed=explorer_seed)
    explored = _executor_run(executor_graph, partition, schedule)

    # "Deadlock-free" must never mean "nothing was explored": the launch
    # ran under one explorer, every rank finished inside it, and its
    # rendezvous channels actually carried messages.
    [explorer] = explorers
    assert explorer is not None
    assert (explorer.num_ranks, explorer.seed) == (world, explorer_seed)
    trace = explorer.format_trace()
    assert all(f"rank {r} finished" in trace for r in range(world))
    assert "consumed" in trace
    assert explored == reference


class TestEnvironment:
    """The environment is outside input: a token or seed the sanitizer
    cannot honour raises instead of silently checking something else."""

    @pytest.fixture(autouse=True)
    def _from_environment(self, monkeypatch):
        sanitizer.reset()  # consult the environment, not a forced mode
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.delenv("REPRO_SCHEDULE_SEED", raising=False)

    @pytest.mark.parametrize("value, enabled", [
        ("", False), ("schedule", True), (" schedule , ", True),
    ])
    def test_token_list(self, monkeypatch, value, enabled):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitizer.schedule_enabled() is enabled

    @pytest.mark.parametrize("value", [
        "locks", "protocol", "schedule,locks", "shedule",
    ])
    def test_unknown_token_raises(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        with pytest.raises(ValueError, match="REPRO_SANITIZE"):
            sanitizer.schedule_enabled()
        with pytest.raises(ValueError, match="REPRO_SANITIZE"):
            LocalTransport(2).launch(lambda ep, _: ep.rank)

    def test_malformed_seed_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE_SEED", "1x")
        with pytest.raises(ValueError, match="REPRO_SCHEDULE_SEED"):
            sanitizer.schedule_seed()
        monkeypatch.setenv("REPRO_SANITIZE", "schedule")
        with pytest.raises(ValueError, match="REPRO_SCHEDULE_SEED"):
            LocalTransport(2).launch(lambda ep, _: ep.rank)

    def test_seed_parses(self, monkeypatch):
        assert sanitizer.schedule_seed() == 0
        monkeypatch.setenv("REPRO_SCHEDULE_SEED", " 7 ")
        assert sanitizer.schedule_seed() == 7
