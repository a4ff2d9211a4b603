"""Oracle for the refinement gains of the METIS-like partitioner.

``_move_gains`` predicts, for a boundary vertex v and each candidate
part b, how much moving v to b lowers the objective.  Here each
prediction is checked against a brute-force recount: the weighted
Eq. 3 volume Σ_v w_v·D(v) (via :func:`sender_degrees`) and the edge
cut, before the move minus after it.  k = 2 exercises the
one-candidate shape; k >= 3 the many-candidate one.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.graph.generators import planted_partition_adjacency
from repro.partition import edge_cut, sender_degrees
from repro.partition.metis_like import _move_gains, _neighbour_part_counts


def instance(seed, k, weighted_edges):
    """Small planted graph, random assignment, integer node weights."""
    rng = np.random.default_rng(seed)
    n = 40
    adj = planted_partition_adjacency(rng, n, np.arange(n) % k, 6.0, 0.7, 2.0)
    adj = sp.csr_matrix(adj, dtype=np.float64)
    adj.setdiag(0)
    adj.eliminate_zeros()
    if weighted_edges:  # collapsed multiplicities, as on coarse levels
        upper = sp.triu(adj, 1).tocoo()
        w = rng.integers(1, 4, upper.nnz).astype(np.float64)
        half = sp.coo_matrix((w, (upper.row, upper.col)), shape=adj.shape)
        adj = (half + half.T).tocsr()
    adj.sum_duplicates()
    assignment = rng.integers(0, k, n)
    node_w = rng.integers(1, 5, n).astype(np.float64)
    return adj, assignment, node_w


def boundary_moves(adj, assignment, k):
    """(v, own part, candidate parts) exactly as refinement builds them."""
    counts = _neighbour_part_counts(adj, assignment, k)
    for v in range(adj.shape[0]):
        a_part = assignment[v]
        cand = np.flatnonzero(counts[v] > 0)
        cand = cand[cand != a_part]
        if cand.size:
            yield counts, v, a_part, cand


def gains(objective, adj, assignment, node_w, counts, v, a_part, cand):
    return _move_gains(
        v, a_part, cand, assignment, counts, adj.indptr, adj.indices, adj.data,
        node_w, objective,
    )


def moved(assignment, v, b_part):
    out = assignment.copy()
    out[v] = b_part
    return out


@given(st.integers(0, 10_000), st.integers(2, 6), st.booleans())
@settings(max_examples=30, deadline=None)
def test_volume_gain_is_weighted_volume_drop(seed, k, weighted_edges):
    adj, assignment, node_w = instance(seed, k, weighted_edges)

    def volume(parts):
        return float(node_w @ sender_degrees(adj, parts))

    before = volume(assignment)
    shapes = set()
    for counts, v, a_part, cand in boundary_moves(adj, assignment, k):
        g = gains("volume", adj, assignment, node_w, counts, v, a_part, cand)
        assert g.shape == cand.shape
        shapes.add(cand.size > 1)
        for j, b_part in enumerate(cand):
            assert g[j] == before - volume(moved(assignment, v, b_part))
    assert (True in shapes) == (k > 2)  # the many-candidate shape ran


@given(st.integers(0, 10_000), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_cut_gain_is_edge_cut_drop(seed, k):
    adj, assignment, node_w = instance(seed, k, weighted_edges=False)
    before = edge_cut(adj, assignment)
    for counts, v, a_part, cand in boundary_moves(adj, assignment, k):
        g = gains("cut", adj, assignment, node_w, counts, v, a_part, cand)
        for j, b_part in enumerate(cand):
            assert g[j] == before - edge_cut(adj, moved(assignment, v, b_part))
