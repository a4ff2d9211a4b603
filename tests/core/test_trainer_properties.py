"""Property-based checks of the distributed trainer's metering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BoundaryNodeSampler, DistributedTrainer, PartitionRuntime
from repro.nn import GraphSAGEModel
from repro.partition import partition_graph

from ..util import assert_backward_mirrors_forward, tagged_pairwise


def make_trainer(graph, partition, p, seed):
    model = GraphSAGEModel(
        graph.feature_dim, 8, graph.num_classes, 2, 0.0,
        np.random.default_rng(0),
    )
    return DistributedTrainer(
        graph, partition, model, BoundaryNodeSampler(p), seed=seed
    )


class TestMeteringProperties:
    @given(st.floats(min_value=0.05, max_value=1.0), st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_backward_mirrors_forward(self, p, seed):
        """Both boundary tags are closed forms in Σ_i |U_i| (read off the
        id broadcast): forward over every layer input, backward over
        all but layer 0's, which is data."""
        graph, part = _setup()
        t = make_trainer(graph, part, p, seed)
        per_tag = tagged_pairwise(t.comm)
        t.train_epoch()
        bps, dims = t.comm.bytes_per_scalar, t.model.dims
        kept = t.comm.total_bytes("sample_sync") // ((t.num_parts - 1) * bps)
        assert t.comm.total_bytes("forward") == kept * sum(dims[:-1]) * bps
        assert t.comm.total_bytes("backward") == kept * sum(dims[1:-1]) * bps
        assert_backward_mirrors_forward(per_tag, dims)

    @given(st.floats(min_value=0.05, max_value=1.0), st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_traffic_bounded_by_eq3(self, p, seed):
        """Sampled traffic never exceeds the full Eq. 3 volume."""
        graph, part = _setup()
        t = make_trainer(graph, part, p, seed)
        t.train_epoch()
        runtime = t.runtime
        width_sum = sum(t.model.dims[:-1])
        ceiling = runtime.total_boundary() * width_sum * t.comm.bytes_per_scalar
        assert t.comm.total_bytes("forward") <= ceiling

    @given(st.integers(0, 20))
    @settings(max_examples=8, deadline=None)
    def test_pairwise_consistency(self, seed):
        """The pairwise matrix sums to the per-phase totals."""
        graph, part = _setup()
        t = make_trainer(graph, part, 0.5, seed)
        t.train_epoch()
        assert t.comm.pairwise.sum() == t.comm.total_bytes()
        assert (t.comm.pairwise.diagonal() == 0).all()


_CACHE = {}


def _setup():
    if "graph" not in _CACHE:
        from repro.graph.generators import SyntheticSpec, generate_graph

        spec = SyntheticSpec(
            n=150, num_communities=4, avg_degree=8.0, feature_dim=8,
            name="prop-test",
        )
        _CACHE["graph"] = generate_graph(spec, seed=2)
        _CACHE["part"] = partition_graph(_CACHE["graph"], 3, method="metis", seed=0)
    return _CACHE["graph"], _CACHE["part"]
