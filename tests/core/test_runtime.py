"""PartitionRuntime: block extraction and bookkeeping invariants."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import PartitionRuntime
from repro.graph.propagation import mean_aggregation
from repro.partition import communication_volume, partition_graph


@pytest.fixture(scope="module")
def runtime(small_graph, small_partition):
    return PartitionRuntime(small_graph, small_partition)


class TestStructure:
    def test_validate(self, runtime):
        runtime.validate()

    def test_inner_sets_disjoint_cover(self, runtime, small_graph):
        covered = np.concatenate([r.inner for r in runtime.ranks])
        assert len(covered) == small_graph.num_nodes
        assert len(np.unique(covered)) == small_graph.num_nodes

    def test_boundary_sorted_by_owner(self, runtime):
        for r in runtime.ranks:
            assert (np.diff(r.bd_owner) >= 0).all()

    def test_boundary_local_index_correct(self, runtime):
        for r in runtime.ranks:
            for j, (g_id, owner) in enumerate(zip(r.boundary[:10], r.bd_owner[:10])):
                owner_inner = runtime.ranks[owner].inner
                assert owner_inner[r.bd_local_index[j]] == g_id

    def test_total_boundary_matches_eq3(self, runtime, small_graph, small_partition):
        assert runtime.total_boundary() == communication_volume(
            small_graph.adj, small_partition
        )

    def test_blocks_tile_global_operator(self, runtime, small_graph):
        """[P_in | P_bd] rows must equal the global P rows (reordered)."""
        p_global = mean_aggregation(small_graph.adj).csr
        for r in runtime.ranks[:2]:
            cols = np.concatenate([r.inner, r.boundary])
            expected = p_global[r.inner][:, cols].toarray()
            got = sp.hstack([r.p_in, r.p_bd]).toarray()
            np.testing.assert_allclose(got, expected)

    def test_adj_blocks_binary(self, runtime):
        for r in runtime.ranks:
            if r.a_in.nnz:
                assert np.all(r.a_in.data == 1.0)
            if r.a_bd.nnz:
                assert np.all(r.a_bd.data == 1.0)

    def test_label_and_mask_slices(self, runtime, small_graph):
        for r in runtime.ranks:
            np.testing.assert_array_equal(r.labels, small_graph.labels[r.inner])
            np.testing.assert_array_equal(
                r.train_local, np.flatnonzero(small_graph.train_mask[r.inner])
            )

    def test_total_train_count(self, runtime, small_graph):
        assert runtime.total_train == small_graph.train_mask.sum()


class TestBoundaryGroups:
    def test_groups_cover_kept(self, runtime):
        r = max(runtime.ranks, key=lambda r: r.n_boundary)
        kept = np.arange(0, r.n_boundary, 2)
        seen = []
        for owner, pos, rows in r.boundary_groups(kept):
            assert (r.bd_owner[pos] == owner).all()
            assert len(pos) == len(rows)
            seen.extend(pos.tolist())
        np.testing.assert_array_equal(np.sort(seen), kept)

    def test_empty_kept(self, runtime):
        r = runtime.ranks[0]
        assert list(r.boundary_groups(np.empty(0, dtype=np.int64))) == []

    def test_owners_strictly_increase_across_groups(self, runtime):
        r = max(runtime.ranks, key=lambda r: r.n_boundary)
        kept = np.arange(r.n_boundary)
        owners = [owner for owner, _, _ in r.boundary_groups(kept)]
        assert owners == sorted(set(owners))


class TestAggregationModes:
    def test_sym_mode(self, small_graph, small_partition):
        runtime = PartitionRuntime(small_graph, small_partition, aggregation="sym")
        runtime.validate()
        # sym-norm includes self loops -> p_in diagonals nonzero.
        assert (runtime.ranks[0].p_in.diagonal() > 0).all()

    def test_unknown_mode(self, small_graph, small_partition):
        with pytest.raises(ValueError):
            PartitionRuntime(small_graph, small_partition, aggregation="attention")

    def test_single_partition(self, small_graph):
        part = partition_graph(small_graph, 1, method="metis")
        runtime = PartitionRuntime(small_graph, part)
        assert runtime.ranks[0].n_boundary == 0
        assert runtime.total_boundary() == 0


class TestLazyEdgeStructures:
    """Only the edge samplers read ``inner_edges`` / ``bd_edge_cols``,
    so set-up does not build them (and a shard does not ship them); the
    first BES/DropEdge plan builds them, equal to the eager build."""

    EDGE_KEYS = ("inner_edges_", "bd_edge_cols_")

    def _edge_keys(self, runtime):
        return sorted(
            key for r in runtime.ranks for key in r._cache
            if key.startswith(self.EDGE_KEYS)
        )

    def test_setup_builds_no_edge_structures(self, small_graph,
                                             small_partition):
        runtime = PartitionRuntime(small_graph, small_partition)
        assert self._edge_keys(runtime) == []

    @pytest.mark.parametrize("mode", ["renorm", "scale"])
    def test_edge_plans_build_them_on_first_use(self, small_graph,
                                                small_partition, mode):
        from repro.core.sampler import BoundaryEdgeSampler, DropEdgeSampler

        lazy = PartitionRuntime(small_graph, small_partition)
        eager = PartitionRuntime(small_graph, small_partition)
        for r in eager.ranks:
            r.inner_edges(mode), r.bd_edge_cols(mode)
        for sampler in (BoundaryEdgeSampler(0.5, mode),
                        DropEdgeSampler(0.5, mode)):
            for r_lazy, r_eager in zip(lazy.ranks, eager.ranks):
                a = sampler.plan(r_lazy, np.random.default_rng(3))
                b = sampler.plan(r_eager, np.random.default_rng(3))
                np.testing.assert_array_equal(a.kept_positions,
                                              b.kept_positions)
                np.testing.assert_array_equal(a.prop.toarray(),
                                              b.prop.toarray())
        assert self._edge_keys(lazy) == self._edge_keys(eager)
        for r_lazy, r_eager in zip(lazy.ranks, eager.ranks):
            csr = r_lazy.a_in if mode == "renorm" else r_lazy.p_in
            rows, cols = r_lazy.inner_edges(mode)
            np.testing.assert_array_equal(rows, csr.tocoo().row)
            np.testing.assert_array_equal(cols, csr.indices)
            for lazy_arr, eager_arr in zip(
                (*r_lazy.inner_edges(mode), r_lazy.bd_edge_cols(mode)),
                (*r_eager.inner_edges(mode), r_eager.bd_edge_cols(mode)),
            ):
                np.testing.assert_array_equal(lazy_arr, eager_arr)
