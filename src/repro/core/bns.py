"""Per-partition runtime structures for partition-parallel training.

:class:`PartitionRuntime` turns (graph, partition) into what each rank
of Algorithm 1 holds locally:

* its inner node list ``V_i`` and boundary node list ``B_i`` (sorted by
  owning rank so communication batches are contiguous),
* the local propagation blocks ``P_in = P[V_i, V_i]`` and
  ``P_bd = P[V_i, B_i]``,
* for every boundary node: which rank owns it and its row index inside
  that owner's feature matrix (the "Broadcast U_i / record S_{i,j}"
  bookkeeping of Algorithm 1 lines 6-7, done once since the boundary
  *universe* is static — only the sampled subset changes per epoch),
* local label/mask slices for the loss (line 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from ..graph.graph import Graph
from ..graph.propagation import mean_aggregation, safe_inverse, sym_norm
from ..partition.types import PartitionResult
from ..tensor import SplitOperator, resolve_dtype

__all__ = ["RankData", "PartitionRuntime", "derive_seeds"]


@dataclass
class RankData:
    """Everything rank *i* stores between epochs.

    Two views of the local aggregation structure are kept:

    * ``p_in`` / ``p_bd`` — the *pre-normalised* propagation blocks
      (full-degree mean or symmetric norm).  Used by the 1/p-scaling
      estimator analysed in Appendix A.
    * ``a_in`` / ``a_bd`` — the *raw* adjacency blocks.  Used by the
      subgraph-renormalising estimator (Algorithm 1 line 5 builds the
      node-induced subgraph, whose mean aggregator divides by the
      surviving degree), which is what the official implementation
      does and what keeps accuracy at small p.
    """

    rank: int
    inner: np.ndarray  # global ids of V_i (sorted)
    boundary: np.ndarray  # global ids of B_i (sorted by owner, then id)
    bd_owner: np.ndarray  # owning rank of each boundary node
    bd_local_index: np.ndarray  # row of the node inside its owner's inner list
    p_in: sp.csr_matrix  # (n_in, n_in)
    p_bd: sp.csr_matrix  # (n_in, n_bd), columns in `boundary` order
    a_in: sp.csr_matrix  # raw adjacency block (n_in, n_in)
    a_bd: sp.csr_matrix  # raw adjacency block (n_in, n_bd)
    labels: np.ndarray  # labels of inner nodes
    train_local: np.ndarray  # local indices of training inner nodes
    val_local: np.ndarray
    test_local: np.ndarray
    # Lazily-built, per-rank structures shared by every epoch plan
    # (CSC views, degree vectors, degenerate operators).
    _cache: Dict[str, object] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_inner(self) -> int:
        return len(self.inner)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary)

    # -- precomputed epoch-plan structures ------------------------------
    #
    # Samplers draw a fresh boundary subset every epoch; everything that
    # does NOT depend on the draw is built once here and reused:
    # column-sliceable CSC views of the boundary blocks, the inner
    # degree vector (renorm-mode row scales become one SpMV on the kept
    # block plus this vector), and the p ∈ {0, 1} degenerate operators.

    def _cached(self, key: str, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def a_bd_csc(self) -> sp.csc_matrix:
        """Raw boundary block in CSC — column selection is O(kept nnz)."""
        return self._cached("a_bd_csc", self.a_bd.tocsc)

    @property
    def p_bd_csc(self) -> sp.csc_matrix:
        """Pre-normalised boundary block in CSC."""
        return self._cached("p_bd_csc", self.p_bd.tocsc)

    @property
    def inner_deg(self) -> np.ndarray:
        """Row sums of ``a_in`` — each inner node's surviving-neighbour
        count before any boundary column is added back."""
        return self._cached(
            "inner_deg", lambda: np.asarray(self.a_in.sum(axis=1)).ravel()
        )

    def inner_edges(self, mode: str):
        """(row, col) per stored edge of the inner block, in CSR data
        order — lets DropEdge rebuild a sampled inner block without a
        per-epoch COO conversion."""
        key = f"inner_edges_{mode}"

        def build():
            csr = self.a_in if mode == "renorm" else self.p_in
            rows = np.repeat(
                np.arange(csr.shape[0], dtype=np.int64), np.diff(csr.indptr)
            )
            return rows, csr.indices.astype(np.int64)

        return self._cached(key, build)

    def boundary_degree(self, mode: str) -> np.ndarray:
        """Per-boundary-column operator mass of the mode's block.

        The importance distribution of
        :class:`~repro.core.sampler.ImportanceBoundarySampler`:
        ``deg(v) = ‖block[:, v]‖²`` — FastGCN's ``q ∝ ‖P[:,u]‖²``
        importance measure applied rank-locally.  On the raw adjacency
        block (renorm mode, unit entries) this is exactly the boundary
        node's surviving degree into the partition; on the
        pre-normalised block (scale mode) it is the degree-weighted
        operator mass the Appendix A variance bound sums.
        """
        from .sampler import column_sq_mass  # local: avoid cycle

        key = f"bd_degree_{mode}"
        csc = self.a_bd_csc if mode == "renorm" else self.p_bd_csc
        return self._cached(key, lambda: column_sq_mass(csc))

    def boundary_keep_probs(
        self, p: float, p_min: float, mode: str
    ) -> np.ndarray:
        """Degree-proportional keep probabilities π (cached per config).

        ``π_v ∝ boundary_degree(v)`` water-filled into ``[p_min, 1]``
        so that ``Σπ = p·|B_i|`` — the expected kept count (and thus
        the expected traffic) matches uniform BNS at rate ``p``.
        Derived entirely from rank-local state, so a shipped sampler
        spec stays an index-free (p, p_min, mode) triple.
        """
        from .sampler import degree_keep_probs  # local: avoid cycle

        key = f"bd_pi_{mode}_{float(p)!r}_{float(p_min)!r}"
        return self._cached(
            key,
            lambda: degree_keep_probs(self.boundary_degree(mode), p, p_min),
        )

    def bd_edge_cols(self, mode: str) -> np.ndarray:
        """Boundary-column id of every stored edge of the CSC block —
        lets edge samplers draw without a COO conversion per epoch."""
        key = f"bd_edge_cols_{mode}"

        def build():
            csc = self.a_bd_csc if mode == "renorm" else self.p_bd_csc
            return np.repeat(
                np.arange(csc.shape[1], dtype=np.int64), np.diff(csc.indptr)
            )

        return self._cached(key, build)

    def empty_operator(self, mode: str) -> SplitOperator:
        """The kept-nothing operator (p = 0 or an empty draw), cached.

        renorm: ``row_normalise(a_in)`` in lazy row-scale form;
        scale: ``p_in`` unchanged.
        """
        if mode == "renorm":
            return self._cached(
                "empty_renorm",
                lambda: SplitOperator(
                    self.a_in, row_scale=safe_inverse(self.inner_deg)
                ),
            )
        return self._cached(
            "empty_scale",
            lambda: SplitOperator(self.p_in),
        )

    def full_operator(self) -> SplitOperator:
        """The keep-everything operator ``[P_in | P_bd]`` (p = 1), cached."""
        return self._cached(
            "full",
            lambda: SplitOperator(
                self.p_in,
                self.p_bd_csc if self.n_boundary else None,
                np.arange(self.n_boundary, dtype=np.int64),
            ),
        )

    def warm_plan_cache(self) -> None:
        """Eagerly build the shared structures (done at runtime setup so
        the first epoch's plan cost matches the steady state)."""
        self.a_bd_csc, self.p_bd_csc, self.inner_deg
        # Everything only one sampler family reads stays lazy, cached
        # on first use (per rank, per config) and so never shipped to a
        # worker that does not use it: boundary_degree /
        # boundary_keep_probs (importance) and inner_edges /
        # bd_edge_cols (the edge samplers, BES and DropEdge).

    def boundary_groups(self, kept_positions: np.ndarray):
        """Group kept boundary positions by owning rank.

        Yields ``(owner_rank, positions, owner_row_indices)`` with
        positions contiguous because ``boundary`` is owner-sorted.
        """
        if kept_positions.size == 0:
            return
        owners = self.bd_owner[kept_positions]
        # kept_positions ascend, and boundary is owner-sorted, so owners
        # are non-decreasing; find group boundaries.
        change = np.flatnonzero(np.diff(owners)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(owners)]))
        for s, e in zip(starts, ends):
            pos = kept_positions[s:e]
            yield int(owners[s]), pos, self.bd_local_index[pos]


def derive_seeds(seed: int, num_parts: int) -> Tuple[List[int], int]:
    """``(per-rank sampling seeds, dropout seed)`` of a run seeded ``seed``.

    The in-process trainers and the rank executor both derive their RNG
    streams here, which is what makes a seeded run draw the same
    boundary samples whether its ranks are simulated or real.
    """
    root = np.random.default_rng(seed)
    sample_seeds = [int(s) for s in root.integers(0, 2**63 - 1, num_parts)]
    return sample_seeds, int(root.integers(0, 2**63 - 1))


class PartitionRuntime:
    """Builds and owns the per-rank data of a partitioned training job.

    ``dtype`` governs every propagation/adjacency block the ranks hold
    (and therefore every epoch plan's operator): float32 halves the
    operator memory and roughly doubles SpMM throughput.  The default
    is the library default (float64 unless changed).
    """

    def __init__(
        self,
        graph: Graph,
        partition: PartitionResult,
        aggregation: str = "mean",
        dtype=None,
    ) -> None:
        self.dtype = resolve_dtype(dtype)
        if aggregation == "mean":
            prop = mean_aggregation(graph.adj, dtype=self.dtype)
        elif aggregation == "sym":
            prop = sym_norm(graph.adj, dtype=self.dtype)
        else:
            raise ValueError(f"unknown aggregation {aggregation!r}")
        self.graph = graph
        self.partition = partition
        self.aggregation = aggregation
        self.full_prop = prop
        self.num_parts = partition.num_parts

        p_global = prop.csr
        assignment = partition.assignment

        # Global -> local row index within the owner's inner list.
        local_index = np.zeros(graph.num_nodes, dtype=np.int64)
        inner_lists: List[np.ndarray] = []
        for i in range(self.num_parts):
            inner = partition.inner_nodes(i)  # sorted
            inner_lists.append(inner)
            local_index[inner] = np.arange(len(inner))

        self.ranks: List[RankData] = []
        for i in range(self.num_parts):
            inner = inner_lists[i]
            boundary = partition.boundary_nodes(graph.adj, i)
            owners = assignment[boundary]
            order = np.lexsort((boundary, owners))  # sort by owner, then id
            boundary = boundary[order]
            owners = owners[order]

            cols = np.concatenate([inner, boundary]).astype(np.int64)
            n_in = len(inner)
            local_block = p_global[inner][:, cols].tocsr()
            p_in = local_block[:, :n_in].tocsr()
            p_bd = local_block[:, n_in:].tocsr()
            # Raw adjacency blocks adopt the runtime dtype too, so the
            # renorm-mode operators (built from a_in/a_bd) match the
            # pre-normalised ones.
            adj_block = graph.adj[inner][:, cols].astype(self.dtype).tocsr()
            a_in = adj_block[:, :n_in].tocsr()
            a_bd = adj_block[:, n_in:].tocsr()

            self.ranks.append(
                RankData(
                    rank=i,
                    inner=inner,
                    boundary=boundary,
                    bd_owner=owners,
                    bd_local_index=local_index[boundary],
                    p_in=p_in,
                    p_bd=p_bd,
                    a_in=a_in,
                    a_bd=a_bd,
                    labels=graph.labels[inner],
                    train_local=np.flatnonzero(graph.train_mask[inner]),
                    val_local=np.flatnonzero(graph.val_mask[inner]),
                    test_local=np.flatnonzero(graph.test_mask[inner]),
                )
            )

        for r in self.ranks:
            r.warm_plan_cache()

        self.total_train = int(graph.train_mask.sum())

    # ------------------------------------------------------------------
    def total_boundary(self) -> int:
        """Σ_i |B_i| — Eq. 3's communication volume in node counts."""
        return sum(r.n_boundary for r in self.ranks)

    def validate(self) -> None:
        """Invariants: inner sets cover the graph; local blocks tile P."""
        covered = np.concatenate([r.inner for r in self.ranks])
        if len(np.unique(covered)) != self.graph.num_nodes:
            raise AssertionError("inner sets do not partition the node set")
        for r in self.ranks:
            if r.p_in.shape != (r.n_inner, r.n_inner):
                raise AssertionError("P_in block has wrong shape")
            if r.p_bd.shape != (r.n_inner, r.n_boundary):
                raise AssertionError("P_bd block has wrong shape")
            own = self.partition.assignment[r.boundary]
            if (own == r.rank).any():
                raise AssertionError("boundary node owned by its own rank")
