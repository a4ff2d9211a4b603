"""Multilevel k-way graph partitioner (METIS-style).

The paper partitions with METIS configured to minimise *communication
volume* (the number of boundary nodes, Eq. 3) rather than edge cut.
METIS itself is unavailable offline, so this module implements the same
algorithmic recipe from scratch:

1. **Coarsening** — repeated heavy-edge matching contracts the graph
   until it is small; edge weights accumulate collapsed multiplicities
   and node weights accumulate collapsed node counts.
2. **Initial partition** — greedy region growing on the coarsest
   graph: each part grows from a seed by absorbing the unassigned
   neighbour with the strongest connection until it reaches its weight
   target.
3. **Uncoarsening + refinement** — the assignment is projected back
   level by level; at each level a boundary-refinement pass moves
   nodes between neighbouring parts when doing so reduces the
   objective while keeping parts balanced.

Two objectives are supported, matching the paper's discussion:

* ``"cut"``    — minimise the weight of crossing edges (the DistDGL
  default the paper argues against);
* ``"volume"`` — minimise Σ_v w_v · D(v), the (weighted) communication
  volume of Eq. 3 (the paper's choice, Section 3.2 Goal-1).

Balance (Goal-2) is enforced as a hard constraint: no move may push a
part above ``(1 + balance_eps)`` × the average part weight.

Refinement costs a few array ops per boundary vertex: the gains of all
its candidate parts come from one gather of the neighbours' part counts.
A volume gain is a signed sum of node weights, and node weights are
collapsed node counts, so every gain is an exact sum of integer-valued
floats.  The order of summation therefore cannot change a gain:
``argmax`` sees the values a per-candidate loop would, and the
vectorised refinement reproduces a seeded partition bit for bit
(``tests/partition/test_partition_pins.py`` pins the assignments).
A ``cut`` gain is the difference of two part counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .types import PartitionResult

__all__ = ["metis_like_partition", "MetisLikeConfig"]


@dataclass
class MetisLikeConfig:
    """Tuning knobs for :func:`metis_like_partition`."""

    objective: str = "volume"  # "volume" (Eq. 3) or "cut"
    balance_eps: float = 0.10
    refine_passes: int = 4
    coarsen_factor: int = 25  # stop coarsening near coarsen_factor * k nodes
    max_levels: int = 25
    seed: int = 0


def metis_like_partition(
    adj: sp.csr_matrix,
    num_parts: int,
    config: Optional[MetisLikeConfig] = None,
) -> PartitionResult:
    """Partition an undirected graph into ``num_parts`` balanced parts.

    Parameters
    ----------
    adj:
        Symmetric CSR adjacency (binary or weighted).
    num_parts:
        Number of parts k.
    config:
        Optional :class:`MetisLikeConfig`.
    """
    cfg = config or MetisLikeConfig()
    if cfg.objective not in ("volume", "cut"):
        raise ValueError(f"unknown objective {cfg.objective!r}")
    n = adj.shape[0]
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if num_parts == 1:
        return PartitionResult(np.zeros(n, dtype=np.int64), 1, method="metis-like")
    if num_parts > n:
        raise ValueError("more partitions than nodes")

    rng = np.random.default_rng(cfg.seed)
    a = sp.csr_matrix(adj, dtype=np.float64)
    a.setdiag(0)
    a.eliminate_zeros()
    a.sum_duplicates()  # no-op on canonical input; refinement relies on it

    # ------------------------------------------------------------------
    # 1. Coarsening
    # ------------------------------------------------------------------
    graphs: List[sp.csr_matrix] = [a]
    node_weights: List[np.ndarray] = [np.ones(n)]
    mappings: List[np.ndarray] = []  # fine node -> coarse node, per level
    stop_at = max(cfg.coarsen_factor * num_parts, 64)
    while graphs[-1].shape[0] > stop_at and len(mappings) < cfg.max_levels:
        mapping, coarse_n = _heavy_edge_matching(graphs[-1], rng)
        if coarse_n >= graphs[-1].shape[0]:  # matching made no progress
            break
        coarse_adj, coarse_w = _contract(graphs[-1], node_weights[-1], mapping, coarse_n)
        graphs.append(coarse_adj)
        node_weights.append(coarse_w)
        mappings.append(mapping)

    # ------------------------------------------------------------------
    # 2. Initial partition on the coarsest graph
    # ------------------------------------------------------------------
    assignment = _greedy_grow(graphs[-1], node_weights[-1], num_parts, rng)

    # ------------------------------------------------------------------
    # 3. Uncoarsen + refine
    # ------------------------------------------------------------------
    assignment = _refine(graphs[-1], node_weights[-1], assignment, num_parts, cfg, rng)
    for level in range(len(mappings) - 1, -1, -1):
        assignment = assignment[mappings[level]]  # project to finer graph
        assignment = _refine(
            graphs[level], node_weights[level], assignment, num_parts, cfg, rng
        )

    return PartitionResult(assignment, num_parts, method=f"metis-like/{cfg.objective}")


# ----------------------------------------------------------------------
# Coarsening helpers
# ----------------------------------------------------------------------

def _heavy_edge_matching(
    adj: sp.csr_matrix, rng: np.random.Generator
) -> Tuple[np.ndarray, int]:
    """Match each node with its heaviest unmatched neighbour.

    Returns ``(mapping, coarse_n)`` where ``mapping[v]`` is the coarse
    node id of fine node v.
    """
    n = adj.shape[0]
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for v in order:
        if match[v] != -1:
            continue
        best, best_w = -1, 0.0
        for idx in range(indptr[v], indptr[v + 1]):
            u = indices[idx]
            if match[u] != -1 or u == v:
                continue
            w = data[idx]
            if w > best_w:
                best, best_w = u, w
        if best != -1:
            match[v] = best
            match[best] = v
        else:
            match[v] = v  # stays single
    # Assign coarse ids.
    mapping = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if mapping[v] != -1:
            continue
        mapping[v] = next_id
        partner = match[v]
        if partner != v and partner != -1:
            mapping[partner] = next_id
        next_id += 1
    return mapping, next_id


def _contract(
    adj: sp.csr_matrix,
    node_w: np.ndarray,
    mapping: np.ndarray,
    coarse_n: int,
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Collapse matched pairs; edge weights/multiplicities accumulate."""
    coo = adj.tocoo()
    rows = mapping[coo.row]
    cols = mapping[coo.col]
    coarse = sp.coo_matrix((coo.data, (rows, cols)), shape=(coarse_n, coarse_n)).tocsr()
    coarse.setdiag(0)
    coarse.eliminate_zeros()
    coarse.sum_duplicates()
    coarse_w = np.zeros(coarse_n)
    np.add.at(coarse_w, mapping, node_w)
    return coarse, coarse_w


# ----------------------------------------------------------------------
# Initial partition
# ----------------------------------------------------------------------

def _greedy_grow(
    adj: sp.csr_matrix,
    node_w: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy region growing: parts absorb their best-connected
    unassigned neighbour until each reaches the weight target."""
    n = adj.shape[0]
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    assignment = np.full(n, -1, dtype=np.int64)
    conn = np.zeros(n)  # connection strength to the part being grown

    unassigned_left = n
    remaining_weight = float(node_w.sum())
    for part in range(k - 1):
        if unassigned_left == 0:
            break
        # Adaptive target keeps late parts from starving when early
        # parts overshoot (coarse node weights are lumpy).
        target = remaining_weight / (k - part)
        # Seed: the unassigned node with the largest weight (hubs make
        # good region centres); ties broken by rng ordering.
        candidates = np.flatnonzero(assignment == -1)
        seed = candidates[np.argmax(node_w[candidates] + rng.random(len(candidates)) * 1e-9)]
        conn[:] = 0.0
        frontier: set = set()
        current = int(seed)
        weight = 0.0
        while True:
            assignment[current] = part
            unassigned_left -= 1
            weight += node_w[current]
            frontier.discard(current)
            for idx in range(indptr[current], indptr[current + 1]):
                u = indices[idx]
                if assignment[u] == -1:
                    conn[u] += data[idx]
                    frontier.add(int(u))
            if weight >= target or unassigned_left == 0:
                break
            if frontier:
                current = max(frontier, key=lambda u: conn[u])
            else:
                remaining = np.flatnonzero(assignment == -1)
                if remaining.size == 0:
                    break
                current = int(remaining[rng.integers(len(remaining))])
        remaining_weight -= weight
    # Last part takes everything left.
    assignment[assignment == -1] = k - 1
    return assignment


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------

def _neighbour_part_counts(
    adj: sp.csr_matrix, assignment: np.ndarray, k: int
) -> np.ndarray:
    """``counts[v, p]`` = total edge weight from v into part p."""
    n = adj.shape[0]
    coo = adj.tocoo()
    counts = np.zeros((n, k))
    np.add.at(counts, (coo.row, assignment[coo.col]), coo.data)
    return counts


def _refine(
    adj: sp.csr_matrix,
    node_w: np.ndarray,
    assignment: np.ndarray,
    k: int,
    cfg: MetisLikeConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy boundary refinement under a hard balance constraint."""
    assert adj.has_canonical_format, "refinement needs one entry per neighbour"
    n = adj.shape[0]
    assignment = assignment.copy()
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    counts = _neighbour_part_counts(adj, assignment, k)
    part_weight = np.zeros(k)
    np.add.at(part_weight, assignment, node_w)
    max_weight = (1.0 + cfg.balance_eps) * node_w.sum() / k

    for _ in range(cfg.refine_passes):
        moved = 0
        # Boundary nodes: any node with edges into a foreign part.
        own_counts = counts[np.arange(n), assignment]
        row_tot = counts.sum(axis=1)
        boundary = np.flatnonzero(row_tot - own_counts > 0)
        rng.shuffle(boundary)
        for v in boundary:
            a_part = assignment[v]
            touches = counts[v] > 0
            touches[a_part] = False
            cand = touches.nonzero()[0]
            if cand.size == 0:
                continue
            gains = _move_gains(
                v, a_part, cand, assignment, counts, indptr, indices, data,
                node_w, cfg.objective,
            )
            if gains.max() <= 0:  # masking infeasible parts only lowers gains
                continue
            # Respect balance.
            feasible = part_weight[cand] + node_w[v] <= max_weight
            gains = np.where(feasible, gains, -np.inf)
            best = gains.argmax()
            if gains[best] <= 0:
                continue
            _apply_move(
                v, a_part, int(cand[best]), assignment, counts, part_weight,
                indptr, indices, data, node_w,
            )
            moved += 1
        if moved == 0:
            break

    _rebalance(
        assignment, counts, part_weight, node_w, k, cfg,
        indptr, indices, data, rng,
    )
    return assignment


def _rebalance(
    assignment: np.ndarray,
    counts: np.ndarray,
    part_weight: np.ndarray,
    node_w: np.ndarray,
    k: int,
    cfg: MetisLikeConfig,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Feed underweight parts from their neighbours (in place).

    Greedy growth can leave late parts starved; refinement alone cannot
    fix that because it only accepts strictly improving moves.  Here we
    accept objective-neutral or -negative moves as long as they flow
    weight from heavier parts into any part below
    ``(1 - balance_eps) * average``.
    """
    n = assignment.shape[0]
    avg = node_w.sum() / k
    min_weight = (1.0 - cfg.balance_eps) * avg
    max_moves = n  # hard stop; each move strictly raises the light part
    for _ in range(max_moves):
        light = int(np.argmin(part_weight))
        if part_weight[light] >= min_weight:
            break
        # Candidate donors: nodes outside `light` adjacent to it whose
        # own part is heavier than average.
        cand = np.flatnonzero((counts[:, light] > 0) & (assignment != light))
        cand = cand[part_weight[assignment[cand]] > avg]
        if cand.size == 0:
            # Disconnected light part: pull any node from the heaviest part.
            heavy = int(np.argmax(part_weight))
            pool = np.flatnonzero(assignment == heavy)
            if pool.size == 0:
                break
            cand = pool[rng.integers(pool.size)][None]
        # Prefer the donor with the strongest connection into `light`
        # (least cut damage).
        v = int(cand[np.argmax(counts[cand, light])])
        _apply_move(
            v, int(assignment[v]), light, assignment, counts, part_weight,
            indptr, indices, data, node_w,
        )


def _apply_move(
    v: int,
    a_part: int,
    b_part: int,
    assignment: np.ndarray,
    counts: np.ndarray,
    part_weight: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    node_w: np.ndarray,
) -> None:
    """Move ``v`` from ``a_part`` to ``b_part`` (in place).

    Plain fancy-index updates are exact only because a canonical CSR
    row lists each neighbour once (:func:`_refine` asserts it).
    """
    lo, hi = indptr[v], indptr[v + 1]
    neigh = indices[lo:hi]
    counts[:, a_part][neigh] -= data[lo:hi]
    counts[:, b_part][neigh] += data[lo:hi]
    part_weight[a_part] -= node_w[v]
    part_weight[b_part] += node_w[v]
    assignment[v] = b_part


def _move_gains(
    v: int,
    a_part: int,
    cand: np.ndarray,
    assignment: np.ndarray,
    counts: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    node_w: np.ndarray,
    objective: str,
) -> np.ndarray:
    """Objective reduction for moving ``v`` from ``a_part`` to each
    candidate part (positive = improvement).

    Every candidate must neighbour ``v`` (``counts[v, b] > 0``), as
    :func:`_refine` guarantees.
    """
    if objective == "cut":
        # Cut decreases by (edges to b) - (edges to a).
        return counts[v, cand] - counts[v, a_part]

    # Volume objective: ΔVol = Δ(w_v·D(v)) + Σ_u Δ(w_u·D(u)).
    lo, hi = indptr[v], indptr[v + 1]
    neigh = indices[lo:hi]
    w_neigh = node_w.take(neigh)
    neigh_part = assignment.take(neigh)
    rows = counts.take(neigh, 0)
    # Terms that do not depend on the candidate b.  D(v) = |{p != own :
    # counts[v,p] > 0}| and v's neighbour multiset is unchanged by the
    # move, so only the excluded own part flips: D_new - D_old =
    # (counts[v,a]>0) - (counts[v,b]>0), and counts[v,b] > 0 for every
    # candidate.  Neighbours u: counts[u, a] -= w_uv, so presence in a
    # vanishes iff counts[u,a] == w_uv.
    lose_a = (np.abs(rows[:, a_part] - data[lo:hi]) < 1e-12) & (neigh_part != a_part)
    fixed = node_w[v] * (float(counts[v, a_part] > 0) - 1.0) - np.dot(w_neigh, lose_a)
    # counts[u, b] += w_uv, so presence in b appears iff counts[u,b] ==
    # 0: one [deg, |cand|] mask, weighted column sums.  The one-candidate
    # shape (every vertex at k = 2) skips the 2-D gather.
    if cand.size == 1:
        b_part = cand[0]
        gain_b = ((rows[:, b_part] == 0) & (neigh_part != b_part))[:, None]
    else:
        gain_b = (rows.take(cand, 1) == 0) & (neigh_part[:, None] != cand)
    return -(fixed + np.dot(w_neigh, gain_b))  # positive gain = volume reduction
