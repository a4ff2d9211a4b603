"""Section 3.1 analysis quantities: Eq. 3, Table 1 rows, Fig. 3 data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.partition import (
    PartitionResult,
    boundary_inner_table,
    communication_volume,
    edge_cut,
    partition_stats,
    random_partition,
    ratio_distribution,
    sender_degrees,
)

from ..util import ring_graph


class TestEq3Identity:
    """Eq. 3: Σ_v D(v)  ==  Σ_i |B_i|  (sender view == receiver view)."""

    def test_ring(self):
        adj = ring_graph(8)
        part = PartitionResult(np.array([0, 0, 1, 1, 2, 2, 3, 3]), 4)
        lhs = int(sender_degrees(adj, part.assignment).sum())
        rhs = communication_volume(adj, part)
        assert lhs == rhs

    def test_random_partitions(self, small_graph):
        for seed in range(3):
            part = random_partition(
                small_graph.num_nodes, 5, np.random.default_rng(seed)
            )
            lhs = int(sender_degrees(small_graph.adj, part.assignment).sum())
            rhs = communication_volume(small_graph.adj, part)
            assert lhs == rhs

    @given(st.integers(2, 6), st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_property_on_rings(self, k, seed):
        n = 24
        adj = ring_graph(n)
        part = random_partition(n, k, np.random.default_rng(seed))
        assert int(sender_degrees(adj, part.assignment).sum()) == communication_volume(
            adj, part
        )


class TestSenderDegrees:
    def test_interior_node_zero(self):
        adj = ring_graph(6)
        part = PartitionResult(np.array([0, 0, 0, 1, 1, 1]), 2)
        d = sender_degrees(adj, part.assignment)
        # Node 1 has both neighbours inside part 0.
        assert d[1] == 0

    def test_border_node_one(self):
        adj = ring_graph(6)
        part = PartitionResult(np.array([0, 0, 0, 1, 1, 1]), 2)
        d = sender_degrees(adj, part.assignment)
        assert d[2] == 1 and d[3] == 1

    def test_hub_counts_distinct_parts_once(self):
        # Star: center 0 with 4 leaves in 2 foreign parts.
        import scipy.sparse as sp

        rows = [0, 0, 0, 0]
        cols = [1, 2, 3, 4]
        up = sp.coo_matrix((np.ones(4), (rows, cols)), shape=(5, 5))
        adj = (up + up.T).tocsr()
        assignment = np.array([0, 1, 1, 2, 2])
        d = sender_degrees(adj, assignment)
        assert d[0] == 2  # parts {1, 2}, not 4 edges

    @given(st.integers(1, 6), st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_matches_per_node_loop(self, small_graph, k, seed):
        adj = small_graph.adj
        assignment = np.random.default_rng(seed).integers(0, k, adj.shape[0])
        expected = [
            len(set(assignment[adj.indices[adj.indptr[v]:adj.indptr[v + 1]]]) - {assignment[v]})
            for v in range(adj.shape[0])
        ]
        np.testing.assert_array_equal(sender_degrees(adj, assignment), expected)


class TestEdgeCut:
    def test_ring_two_parts(self):
        adj = ring_graph(8)
        part = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert edge_cut(adj, part) == 2

    def test_all_same_part(self):
        assert edge_cut(ring_graph(8), np.zeros(8, dtype=int)) == 0


class TestTables:
    def test_boundary_inner_rows(self, small_graph, small_partition):
        rows = boundary_inner_table(small_graph.adj, small_partition)
        assert len(rows) == small_partition.num_parts
        for row in rows:
            assert row["inner"] > 0
            assert row["ratio"] == pytest.approx(row["boundary"] / row["inner"])

    def test_ratio_distribution_shape(self, small_graph, small_partition):
        ratios = ratio_distribution(small_graph.adj, small_partition)
        assert ratios.shape == (small_partition.num_parts,)
        assert (ratios >= 0).all()

    def test_partition_stats_consistency(self, small_graph, small_partition):
        st_ = partition_stats(small_graph.adj, small_partition)
        assert st_.comm_volume == communication_volume(small_graph.adj, small_partition)
        assert st_.total_boundary == st_.boundary_sizes.sum()
        assert st_.max_ratio == st_.ratios.max()
        assert st_.inner_sizes.sum() == small_graph.num_nodes

    def test_boundary_nodes_are_others_inner(self, small_graph, small_partition):
        # Every boundary node of partition i must be an inner node of
        # exactly one other partition.
        for i in range(small_partition.num_parts):
            bd = small_partition.boundary_nodes(small_graph.adj, i)
            owners = small_partition.assignment[bd]
            assert (owners != i).all()
