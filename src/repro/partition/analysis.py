"""Partition quality analysis: the quantities of Section 3.1.

* :func:`communication_volume` — Eq. 3: total boundary-node count,
  computed two equivalent ways (per-sender D(v) and per-receiver
  |B_i|); tests assert they agree.
* :func:`boundary_inner_table` — the Table 1 rows.
* :func:`ratio_distribution` — the Fig. 3 histogram data.
* :func:`edge_cut` — the classic min-cut objective (what DistDGL &
  friends minimise; compared against in Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import scipy.sparse as sp

from .types import PartitionResult

__all__ = [
    "PartitionStats",
    "sender_degrees",
    "communication_volume",
    "edge_cut",
    "boundary_inner_table",
    "ratio_distribution",
    "partition_stats",
]


@dataclass
class PartitionStats:
    """Summary of one partitioning (fuel for Tables 1/8, Figs 3/8)."""

    num_parts: int
    inner_sizes: np.ndarray
    boundary_sizes: np.ndarray
    ratios: np.ndarray
    comm_volume: int
    edge_cut: int

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max())

    @property
    def total_boundary(self) -> int:
        return int(self.boundary_sizes.sum())


def sender_degrees(adj: sp.csr_matrix, assignment: np.ndarray) -> np.ndarray:
    """D(v) per node: number of *other* partitions containing at least
    one neighbour of v (Buluc et al. definition used in Eq. 3)."""
    assignment = np.asarray(assignment, dtype=np.int64)
    n = adj.shape[0]
    k = int(assignment.max(initial=0)) + 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr))
    # One code per distinct (node, neighbour part) pair.
    pairs = np.unique(rows * k + assignment[adj.indices])
    node, part = np.divmod(pairs, k)
    return np.bincount(node[part != assignment[node]], minlength=n)


def communication_volume(adj: sp.csr_matrix, partition: PartitionResult) -> int:
    """Eq. 3: total per-layer feature messages = Σ_i |B_i|."""
    return int(sum(len(b) for b in partition.all_boundary_nodes(adj)))


def edge_cut(adj: sp.csr_matrix, assignment: np.ndarray) -> int:
    """Number of undirected edges crossing partitions."""
    coo = adj.tocoo()
    assignment = np.asarray(assignment)
    cross = assignment[coo.row] != assignment[coo.col]
    return int(cross.sum() // 2)


def boundary_inner_table(adj: sp.csr_matrix, partition: PartitionResult) -> List[Dict]:
    """Rows of Table 1: per-partition inner/boundary counts and ratio."""
    rows = []
    for i in range(partition.num_parts):
        inner = partition.inner_nodes(i)
        boundary = partition.boundary_nodes(adj, i)
        n_in = len(inner)
        n_bd = len(boundary)
        rows.append(
            {
                "partition": i + 1,
                "inner": n_in,
                "boundary": n_bd,
                "ratio": (n_bd / n_in) if n_in else float("inf"),
            }
        )
    return rows


def ratio_distribution(adj: sp.csr_matrix, partition: PartitionResult) -> np.ndarray:
    """Boundary/inner ratio per partition (the Fig. 3 histogram)."""
    return np.array(
        [row["ratio"] for row in boundary_inner_table(adj, partition)]
    )


def partition_stats(adj: sp.csr_matrix, partition: PartitionResult) -> PartitionStats:
    """Collect per-partition inner/boundary statistics for ``partition``."""
    table = boundary_inner_table(adj, partition)
    inner = np.array([r["inner"] for r in table])
    boundary = np.array([r["boundary"] for r in table])
    ratios = np.array([r["ratio"] for r in table])
    return PartitionStats(
        num_parts=partition.num_parts,
        inner_sizes=inner,
        boundary_sizes=boundary,
        ratios=ratios,
        comm_volume=int(boundary.sum()),
        edge_cut=edge_cut(adj, partition.assignment),
    )
