"""Property-based tests for the metering model.

Hypothesis drives random rank counts, payload sizes and op sequences
through :class:`SimulatedCommunicator` and checks the invariants the
cost model (and the transport conformance suite) lean on:

* ring AllReduce wire volume is exactly ``m × ceil(2 (m-1) n / m)``
  scalars, landing on each rank's ring-successor edge;
* the ``pairwise`` matrix and the per-tag ledger are two views of the
  same bytes: row/column sums, per-tag totals and the grand total all
  reconcile;
* degenerate cases (one rank, self sends, empty payloads) meter zero.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.comm import SimulatedCommunicator
from repro.dist.transport import ring_allreduce_scalars

TAGS = ("sample_sync", "forward", "backward", "misc")

ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 7),          # src
        st.integers(0, 7),          # dst
        st.integers(0, 10_000),     # scalars
        st.sampled_from(TAGS),
    ),
    max_size=60,
)


class TestAllReduceWireVolume:
    @given(m=st.integers(2, 12), n=st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_total_is_per_rank_ceil_times_m(self, m, n):
        comm = SimulatedCommunicator(m)
        total = comm.allreduce(n, "reduce")
        per_rank_bytes = ring_allreduce_scalars(m, n) * comm.bytes_per_scalar
        assert total == per_rank_bytes * m
        assert comm.total_bytes("reduce") == total
        # ceil semantics: per-rank scalars are 2(m-1)n/m rounded up.
        exact = 2 * (m - 1) * n / m
        per_rank_scalars = per_rank_bytes // comm.bytes_per_scalar
        assert exact <= per_rank_scalars < exact + 1

    @given(m=st.integers(2, 12), n=st.integers(1, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_traffic_lands_on_ring_successor_edges(self, m, n):
        comm = SimulatedCommunicator(m)
        comm.allreduce(n, "reduce")
        per_rank_bytes = ring_allreduce_scalars(m, n) * comm.bytes_per_scalar
        for src in range(m):
            row = comm.pairwise[src]
            assert row[(src + 1) % m] == per_rank_bytes
            assert row.sum() == per_rank_bytes

    @given(n=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_single_rank_meters_nothing(self, n):
        comm = SimulatedCommunicator(1)
        assert comm.allreduce(n, "reduce") == 0
        assert comm.total_bytes() == 0
        assert ring_allreduce_scalars(1, n) == 0


class TestPairwiseLedgerReconciliation:
    @given(m=st.integers(1, 8), ops=ops_strategy)
    @settings(max_examples=200, deadline=None)
    def test_row_column_and_tag_sums_reconcile(self, m, ops):
        comm = SimulatedCommunicator(m)
        sent = np.zeros((m, m), dtype=np.int64)
        by_tag = {}
        for src, dst, n, tag in ops:
            src %= m
            dst %= m
            nbytes = comm.send(src, dst, n, tag)
            expected = 0 if (src == dst or n <= 0) else n * comm.bytes_per_scalar
            assert nbytes == expected
            sent[src, dst] += nbytes
            if nbytes:
                by_tag[tag] = by_tag.get(tag, 0) + nbytes
        assert (comm.pairwise == sent).all()
        assert np.diag(comm.pairwise).sum() == 0
        # pairwise and the tag ledger are two views of the same bytes
        assert comm.pairwise.sum() == comm.total_bytes()
        assert sum(comm.meter.by_tag.values()) == comm.total_bytes()
        for tag in TAGS:
            assert comm.total_bytes(tag) == by_tag.get(tag, 0)
        # per-rank sent/received marginals
        for r in range(m):
            assert comm.pairwise[r].sum() == sent[r].sum()
            assert comm.pairwise[:, r].sum() == sent[:, r].sum()

    @given(m=st.integers(1, 8), ops=ops_strategy)
    @settings(max_examples=50, deadline=None)
    def test_reset_zeroes_in_place(self, m, ops):
        comm = SimulatedCommunicator(m)
        pairwise_buffer = comm.pairwise
        for src, dst, n, tag in ops:
            comm.send(src % m, dst % m, n, tag)
        comm.reset()
        # The refactor fixed the historical double initialisation:
        # reset() zeroes the one buffer instead of allocating another.
        assert comm.pairwise is pairwise_buffer
        assert comm.pairwise.sum() == 0
        assert comm.total_bytes() == 0
        assert comm.meter.by_tag == {}

    @given(m=st.integers(1, 8), n=st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_broadcast_is_m_minus_1_sends(self, m, n):
        comm = SimulatedCommunicator(m)
        total = comm.broadcast(0, n, "sample_sync")
        if n <= 0 or m == 1:
            assert total == 0
        else:
            assert total == (m - 1) * n * comm.bytes_per_scalar
            assert (comm.pairwise[0, 1:] == n * comm.bytes_per_scalar).all()
