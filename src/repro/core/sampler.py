"""Boundary sampling strategies (Section 3.2 and the Table 9 ablation).

All samplers operate on one partition's :class:`~repro.core.bns.RankData`
and return an :class:`EpochPlan` per epoch: the effective local
propagation operator ``[P̃_in | P̃_bd]`` plus the positions of the
boundary nodes that must actually be communicated.

Zero-rebuild epoch planning
---------------------------
The operator is emitted as a :class:`~repro.tensor.sparse.SplitOperator`
— the *split-operator fast path*.  Sampling changes only which boundary
columns participate and how rows are rescaled, so nothing forces a
rebuild of the stacked matrix every epoch:

* the inner block (``a_in`` / ``p_in``) is immutable and shared by
  every plan, together with its transpose for the SpMM backward;
* the boundary block is column-selected from a CSC view precomputed at
  :class:`~repro.core.bns.RankData` build time — O(kept nnz), not
  O(nnz);
* renorm-mode row scales come from ``inner_deg + A_bd[:, kept] · 1``
  (one SpMV on the kept block) instead of a full ``row_normalise``
  rebuild;
* the p ∈ {0, 1} degenerate plans are cached on the rank and reused at
  zero per-epoch cost.

A plan is therefore an index set plus scale vectors — something a rank
could *ship* to a peer process — rather than a matrix that must be
reconstructed.  :func:`explicit_stacked_operator` keeps the legacy
hstack + ``row_normalise`` construction as the reference that the
equivalence tests and the perf microbenchmark compare against.

Estimator modes
---------------
Two estimator modes are provided for each sampler:

* ``"renorm"`` (default) — Algorithm 1 line 5 builds the node-induced
  subgraph of ``V_i ∪ U_i``; a mean aggregator on that subgraph divides
  by the *surviving* neighbour count.  This is the self-normalised
  estimator the official implementation realises through DGL, and the
  one that keeps accuracy flat down to p = 0.01.
* ``"scale"`` — keep the full-degree (or sym-norm) operator and rescale
  the kept boundary columns by 1/p (the paper's "replace H with H/p"
  description and the estimator analysed in Appendix A).  Unbiased but
  higher variance; exposed for the variance study and for sum-style
  aggregators where renormalisation is not meaningful.

Implemented strategies:

* :class:`BoundaryNodeSampler` — **BNS** (Algorithm 1, lines 4-5):
  keep each boundary *node* independently with probability p.
* :class:`ImportanceBoundarySampler` — importance-weighted BNS: keep
  boundary node v with probability ``π_v ∝ deg(v)`` (its per-column
  operator mass — FastGCN's ``q ∝ ‖P[:,u]‖²`` importance distribution
  applied rank-locally), water-filled into ``[p_min, 1]`` so the
  *expected* kept count matches uniform BNS at rate p.  Scale mode
  applies Horvitz–Thompson ``1/π_v`` column weights; renorm mode uses
  the same surviving-degree renormalisation as BNS.
* :class:`BoundaryEdgeSampler` — **BES** (Table 9): keep each boundary
  *edge* with probability q.  A boundary node must still be
  communicated when *any* incident edge survives — the reason edge
  sampling saves much less traffic than node sampling.
* :class:`DropEdgeSampler` — DropEdge (Rong et al.) applied to
  partition-parallel training: drops edges uniformly over the *whole*
  local block (inner + boundary).
* :class:`FullBoundarySampler` — no sampling (vanilla partition
  parallelism, p = 1); serves the rank's cached full operator, so its
  per-epoch overhead is zero.

:func:`make_sampler` is the one shared construction point for sampler
specs named on a command line or a bench configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from ..graph.propagation import row_normalise, safe_inverse
from ..tensor import SparseOp, SplitOperator

__all__ = [
    "EpochPlan",
    "BoundarySampler",
    "BoundaryNodeSampler",
    "BoundaryEdgeSampler",
    "DropEdgeSampler",
    "FullBoundarySampler",
    "ImportanceBoundarySampler",
    "column_sq_mass",
    "default_p_min",
    "degree_keep_probs",
    "explicit_stacked_operator",
    "make_sampler",
    "plan_sampling_ops",
]

MODES = ("renorm", "scale")

#: Names :func:`make_sampler` understands (the CLI --sampler choices).
SAMPLER_NAMES = ("bns", "importance", "bes", "dropedge", "full")


@dataclass
class EpochPlan:
    """One partition's sampling decision for one epoch.

    Attributes
    ----------
    prop:
        Effective (n_in, n_in + n_kept) operator ``[P̃_in | P̃_bd]`` —
        a :class:`SplitOperator` from the built-in samplers (custom
        samplers may still supply a plain :class:`SparseOp`).
    kept_positions:
        Indices into the partition's boundary list of the nodes whose
        features must be received this epoch, ascending (matching the
        operator's boundary column order).
    sampling_seconds:
        Wall-clock cost of drawing the plan (Table 12's overhead);
        0.0 for plans served from the rank-level cache.
    sampling_ops:
        Elements the sampler actually touched drawing this plan
        (Bernoulli draws + edges processed) — Appendix D's
        device-scale accounting, set by the built-in samplers.
    """

    prop: Union[SplitOperator, SparseOp]
    kept_positions: np.ndarray
    sampling_seconds: float
    sampling_ops: Optional[int] = None


def plan_sampling_ops(rank_data, plan: EpochPlan) -> int:
    """Elements the sampler touched drawing ``plan``.

    Built-in samplers record the exact count on the plan; for custom
    samplers fall back to the boundary draws plus the selected
    boundary columns' edges.
    """
    if plan.sampling_ops is not None:
        return plan.sampling_ops
    prop = plan.prop
    if isinstance(prop, SplitOperator):
        extra = prop.boundary_nnz
    else:  # custom sampler with a materialised operator
        extra = max(prop.nnz - rank_data.p_in.nnz, 0)
    return rank_data.n_boundary + extra


def _finish(prop, kept: np.ndarray, t0: float, ops: int) -> EpochPlan:
    return EpochPlan(
        prop=prop,
        kept_positions=np.asarray(kept, dtype=np.int64),
        sampling_seconds=time.perf_counter() - t0,
        sampling_ops=int(ops),
    )


def _empty_plan(rank_data, mode: str) -> EpochPlan:
    """The cached kept-nothing plan: zero per-epoch cost."""
    return EpochPlan(
        prop=rank_data.empty_operator(mode),
        kept_positions=np.empty(0, dtype=np.int64),
        sampling_seconds=0.0,
        sampling_ops=0,
    )


def _empty_draw_plan(rank_data, mode: str, t0: float, drawn_ops: int) -> EpochPlan:
    """A p > 0 draw that kept nothing: the cached empty operator, but
    the wall time and the draws that did happen are still recorded."""
    plan = _empty_plan(rank_data, mode)
    plan.sampling_seconds = time.perf_counter() - t0
    plan.sampling_ops = drawn_ops
    return plan


def _renorm_plan_op(rank_data, kept: np.ndarray) -> SplitOperator:
    """Renorm-mode operator for a kept boundary subset: raw adjacency
    blocks with the surviving-degree row scale (Algorithm 1 line 5),
    shared by the uniform and importance node samplers."""
    bd = rank_data.a_bd_csc[:, kept]
    deg = rank_data.inner_deg + np.asarray(bd.sum(axis=1)).ravel()
    return SplitOperator(rank_data.a_in, bd, kept, row_scale=safe_inverse(deg))


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown estimator mode {mode!r}; known: {MODES}")
    return mode


def explicit_stacked_operator(
    rank_data,
    kept_positions: np.ndarray,
    mode: str,
    rate: Union[float, np.ndarray] = 1.0,
) -> sp.csr_matrix:
    """Legacy eager construction of the effective operator.

    Materialises ``[P̃_in | P̃_bd]`` through per-epoch CSC conversion,
    column slice, hstack and (for renorm) a full ``row_normalise``
    rebuild — four O(nnz) sparse reallocations.  Kept as the reference
    implementation: the equivalence tests assert the split operator
    matches it to 1e-9, and the perf microbenchmark measures the
    speedup of abandoning it.

    ``rate`` is the keep probability dividing the kept columns in
    scale mode — a scalar (uniform BNS) or a per-kept-column vector
    (importance-weighted BNS's Horvitz–Thompson ``1/π_v`` weights).
    """
    kept = np.asarray(kept_positions, dtype=np.int64)
    if mode == "renorm":
        if kept.size == 0:
            return row_normalise(rank_data.a_in)
        sub = rank_data.a_bd.tocsc()[:, kept].tocsr()
        stacked = sp.hstack([rank_data.a_in, sub], format="csr")
        return row_normalise(stacked)
    if kept.size == 0:
        return sp.csr_matrix(rank_data.p_in, dtype=rank_data.p_in.dtype)
    sub = rank_data.p_bd.tocsc()[:, kept]
    if np.ndim(rate) > 0:
        inv = (1.0 / np.asarray(rate).ravel()).astype(sub.dtype)
        sub = sub @ sp.diags(inv)
    elif rate != 1.0:
        sub = sub * (1.0 / rate)
    return sp.hstack([rank_data.p_in, sub.tocsr()], format="csr")


class BoundarySampler:
    """Interface: produce an :class:`EpochPlan` per partition per epoch."""

    name = "abstract"

    def plan(self, rank_data, rng: np.random.Generator) -> EpochPlan:  # pragma: no cover
        raise NotImplementedError


class FullBoundarySampler(BoundarySampler):
    """No sampling — vanilla partition parallelism (BNS with p = 1).

    Serves the rank's precomputed full operator
    (:meth:`RankData.full_operator`), shared with every other consumer
    of the degenerate plans, so the per-epoch sampling overhead is
    zero, matching Table 12's p = 1 row.
    """

    name = "full"

    def plan(self, rank_data, rng) -> EpochPlan:
        op = rank_data.full_operator()
        return EpochPlan(op, op.kept_cols, 0.0, sampling_ops=0)


class BoundaryNodeSampler(BoundarySampler):
    """BNS: keep each boundary node independently with probability p.

    ``p = 0`` drops every boundary node (fully isolated training, the
    pathological case of Section 4.3).
    """

    name = "bns"

    def __init__(self, p: float, mode: str = "renorm") -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"sampling rate p must be in [0, 1], got {p}")
        self.p = p
        self.mode = _check_mode(mode)

    def plan(self, rank_data, rng) -> EpochPlan:
        n_bd = rank_data.n_boundary
        if self.p == 0.0 or n_bd == 0:
            return _empty_plan(rank_data, self.mode)
        t0 = time.perf_counter()
        kept = np.flatnonzero(rng.random(n_bd) < self.p)
        if kept.size == 0:
            return _empty_draw_plan(rank_data, self.mode, t0, drawn_ops=n_bd)
        if self.mode == "renorm":
            op = _renorm_plan_op(rank_data, kept)
        else:
            op = SplitOperator(
                rank_data.p_in,
                rank_data.p_bd_csc[:, kept],
                kept,
                col_scale=1.0 / self.p,
            )
        # Touched: one Bernoulli draw per boundary node + the kept
        # columns' edges (slice + degree SpMV).
        return _finish(op, kept, t0, ops=n_bd + op.boundary_nnz)


def default_p_min(p: float) -> float:
    """Default clip floor for importance sampling: a quarter of the
    uniform rate, so no Horvitz–Thompson weight exceeds ``4/p``."""
    return 0.25 * p


def column_sq_mass(matrix: sp.spmatrix) -> np.ndarray:
    """``‖M[:,j]‖²`` per column — the importance degree measure.

    The single definition shared by the training side
    (:meth:`~repro.core.bns.RankData.boundary_degree`) and the
    variance harness (:class:`~repro.core.variance.OneStepProblem`),
    so the Monte-Carlo study always validates the distribution the
    sampler actually draws from.
    """
    sq = matrix.copy()
    sq.data = sq.data ** 2
    return np.asarray(sq.sum(axis=0)).ravel()


def degree_keep_probs(
    degree: np.ndarray, p: float, p_min: float
) -> np.ndarray:
    """Water-filled degree-proportional keep probabilities.

    Returns ``π = clip(c·degree, p_min, 1)`` with ``c`` chosen (by
    bisection — the clipped sum is continuous and nondecreasing in
    ``c``) so that ``Σπ = p·n``: the *expected* kept count, and thus
    the expected communication traffic, matches uniform BNS at rate
    ``p`` exactly.  Hubs saturate at 1 (always communicated), the tail
    is floored at ``p_min`` so no Horvitz–Thompson weight exceeds
    ``1/p_min``.  Equal degrees reduce to the uniform ``π ≡ p``.
    """
    deg = np.asarray(degree, dtype=np.float64).ravel()
    n = deg.size
    if n == 0:
        return np.empty(0)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"keep rate p must be in (0, 1], got {p}")
    if not 0.0 < p_min <= 1.0:
        raise ValueError(f"p_min must be in (0, 1], got {p_min}")
    if p >= 1.0:
        return np.ones(n)
    p_min = min(p_min, p)
    total = deg.sum()
    if total <= 0:  # no boundary mass to weight by: uniform
        return np.full(n, p)
    target = p * n
    positive = deg > 0
    n_zero = int(n - positive.sum())
    if n_zero:
        # Zero-mass entries pin at the p_min floor, capping the
        # achievable sum at n_pos + n_zero*p_min.  Past that cap the
        # water level is above 1: saturate every massive column and
        # split the remaining budget uniformly over the zero-mass ones
        # (still ≤ 1 since target ≤ n), keeping Σπ = p·n exact instead
        # of overflowing the bisection bracket.
        spill = target - float(positive.sum())
        if spill > n_zero * p_min:
            pi = np.ones(n)
            pi[~positive] = spill / n_zero
            return pi
    lo, hi = 0.0, max(target / total, 1.0 / deg.max())
    while np.clip(hi * deg, p_min, 1.0).sum() < target:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.clip(mid * deg, p_min, 1.0).sum() < target:
            lo = mid
        else:
            hi = mid
    return np.clip(hi * deg, p_min, 1.0)


class ImportanceBoundarySampler(BoundarySampler):
    """Importance-weighted BNS: keep node v w.p. ``π_v ∝ deg(v)``.

    ``deg(v)`` is the boundary column's operator mass
    (:meth:`~repro.core.bns.RankData.boundary_degree` — the surviving
    degree on the raw-adjacency block, the ``‖P[:,v]‖²`` importance
    mass on the pre-normalised block), water-filled through
    :func:`degree_keep_probs` into ``[p_min, 1]`` with the expected
    kept count pinned to ``p·|B_i|`` — the same expected traffic as
    uniform BNS at rate ``p``, but with the sampling budget
    concentrated on the columns that carry the most operator mass.

    * ``mode="scale"`` — Horvitz–Thompson estimator: each kept column
      is weighted ``1/π_v`` (a per-column ``col_scale`` vector on the
      :class:`~repro.tensor.sparse.SplitOperator`), unbiased with
      variance ``Σ_v (1/π_v − 1)·‖P[:,v]‖²·‖h_v W‖²`` — strictly below
      uniform BNS whenever the boundary degrees are skewed enough for
      the clipping to bind (the Table 2 harness measures this).
    * ``mode="renorm"`` (default) — the self-normalised estimator:
      the node-induced subgraph of the kept set, renormalised by the
      surviving degree exactly as uniform BNS.

    π is derived from rank-local state and cached on the
    :class:`~repro.core.bns.RankData`, so the sampler spec itself — and
    anything that ships it to a worker process — stays an index-free
    ``(p, p_min, mode)`` triple, and a plan remains an index set plus
    scale vectors (the zero-rebuild discipline).
    """

    name = "importance"

    def __init__(
        self, p: float, mode: str = "renorm", p_min: Optional[float] = None
    ) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"sampling rate p must be in [0, 1], got {p}")
        self.p = p
        self.mode = _check_mode(mode)
        if p_min is None:
            p_min = default_p_min(p)
        if p > 0.0 and not 0.0 < p_min <= 1.0:
            raise ValueError(f"p_min must be in (0, 1], got {p_min}")
        self.p_min = p_min

    def plan(self, rank_data, rng) -> EpochPlan:
        n_bd = rank_data.n_boundary
        if self.p == 0.0 or n_bd == 0:
            return _empty_plan(rank_data, self.mode)
        t0 = time.perf_counter()
        pi = rank_data.boundary_keep_probs(self.p, self.p_min, self.mode)
        kept = np.flatnonzero(rng.random(n_bd) < pi)
        if kept.size == 0:
            return _empty_draw_plan(rank_data, self.mode, t0, drawn_ops=n_bd)
        if self.mode == "renorm":
            op = _renorm_plan_op(rank_data, kept)
        else:
            pi_kept = pi[kept]
            weights = None
            if (pi_kept < 1.0).any():  # p = 1 degenerates to no weights
                weights = (1.0 / pi_kept).astype(rank_data.p_in.dtype)
            op = SplitOperator(
                rank_data.p_in,
                rank_data.p_bd_csc[:, kept],
                kept,
                col_scale=weights,
            )
        # Touched: one Bernoulli draw per boundary node + the kept
        # columns' edges — π itself is served from the rank-level
        # cache, so planning stays O(boundary) like uniform BNS.
        return _finish(op, kept, t0, ops=n_bd + op.boundary_nnz)


def make_sampler(
    name: str,
    p: float,
    mode: str = "renorm",
    p_min: Optional[float] = None,
) -> BoundarySampler:
    """Build a sampler from its spec — the CLI/bench construction point.

    ``bns`` and ``importance`` collapse to :class:`FullBoundarySampler`
    at ``p >= 1`` (vanilla partition parallelism, zero per-epoch cost),
    matching what the training drivers have always done.
    """
    if name == "full":
        return FullBoundarySampler()
    if name == "bns":
        return (
            FullBoundarySampler() if p >= 1.0
            else BoundaryNodeSampler(p, mode=mode)
        )
    if name == "importance":
        return (
            FullBoundarySampler() if p >= 1.0
            else ImportanceBoundarySampler(p, mode=mode, p_min=p_min)
        )
    if name == "bes":
        return BoundaryEdgeSampler(p, mode=mode)
    if name == "dropedge":
        return DropEdgeSampler(p, mode=mode)
    raise ValueError(f"unknown sampler {name!r}; known: {SAMPLER_NAMES}")


def _sample_bd_block(
    rank_data, mode: str, q: float, rng, scale: float
):
    """Draw boundary edges w.p. ``q`` straight off the CSC arrays.

    Returns ``(sub, kept)`` — the surviving columns' block (CSC,
    compacted) and their boundary positions — without a per-epoch COO
    round-trip; the edge→column map is precomputed on the rank.
    """
    csc = rank_data.a_bd_csc if mode == "renorm" else rank_data.p_bd_csc
    edge_cols = rank_data.bd_edge_cols(mode)
    keep = rng.random(csc.nnz) < q
    cols = edge_cols[keep]
    kept = np.unique(cols)
    if kept.size == 0:
        return None, kept
    data = csc.data[keep]
    if scale != 1.0:
        data = data * scale
    sub = sp.csc_matrix(
        (data, (csc.indices[keep], np.searchsorted(kept, cols))),
        shape=(csc.shape[0], kept.size),
    )
    return sub, kept


class BoundaryEdgeSampler(BoundarySampler):
    """BES: keep each boundary *edge* independently with probability q.

    Only columns that lose *all* incident edges stop being
    communicated, so traffic shrinks far slower than q (Table 9).
    """

    name = "bes"

    def __init__(self, q: float, mode: str = "renorm") -> None:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"edge keep rate q must be in [0, 1], got {q}")
        self.q = q
        self.mode = _check_mode(mode)

    def plan(self, rank_data, rng) -> EpochPlan:
        if rank_data.n_boundary == 0 or self.q == 0.0:
            return _empty_plan(rank_data, self.mode)
        t0 = time.perf_counter()
        scale = (1.0 / self.q) if self.mode == "scale" else 1.0
        sub, kept = _sample_bd_block(rank_data, self.mode, self.q, rng, scale)
        if sub is None:  # every edge was drawn, none survived
            return _empty_draw_plan(
                rank_data, self.mode, t0, drawn_ops=rank_data.a_bd.nnz
            )
        if self.mode == "renorm":
            deg = rank_data.inner_deg + np.asarray(sub.sum(axis=1)).ravel()
            op = SplitOperator(
                rank_data.a_in, sub, kept, row_scale=safe_inverse(deg)
            )
        else:
            op = SplitOperator(rank_data.p_in, sub, kept)
        # Touched: one Bernoulli draw per boundary *edge* + the
        # surviving edges re-packed into the kept block.
        bd_universe_nnz = rank_data.a_bd.nnz
        return _finish(op, kept, t0, ops=bd_universe_nnz + op.boundary_nnz)


class DropEdgeSampler(BoundarySampler):
    """DropEdge: drop edges uniformly over the whole local block.

    Inner edges are dropped too (DropEdge's global semantics), which
    perturbs computation without reducing communication much.  The
    inner block changes per epoch, so this is the one sampler whose
    plan cost stays O(nnz) — exactly the contrast Table 12 draws.
    """

    name = "dropedge"

    def __init__(self, q: float, mode: str = "renorm") -> None:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"edge keep rate q must be in [0, 1], got {q}")
        self.q = q
        self.mode = _check_mode(mode)

    def plan(self, rank_data, rng) -> EpochPlan:
        t0 = time.perf_counter()
        inner_csr = rank_data.a_in if self.mode == "renorm" else rank_data.p_in
        scale = (1.0 / self.q) if (self.mode == "scale" and self.q > 0) else 1.0

        rows, cols = rank_data.inner_edges(self.mode)
        keep = rng.random(inner_csr.nnz) < self.q
        inner_eff = sp.csr_matrix(
            (inner_csr.data[keep] * scale, (rows[keep], cols[keep])),
            shape=inner_csr.shape,
        )
        if rank_data.n_boundary and self.q > 0.0:
            sub, kept = _sample_bd_block(
                rank_data, self.mode, self.q, rng, scale
            )
        else:
            sub, kept = None, np.empty(0, dtype=np.int64)
        row_scale = None
        if self.mode == "renorm":
            deg = np.asarray(inner_eff.sum(axis=1)).ravel()
            if sub is not None:
                deg = deg + np.asarray(sub.sum(axis=1)).ravel()
            row_scale = safe_inverse(deg)
        op = SplitOperator(inner_eff, sub, kept, row_scale=row_scale)
        # DropEdge Bernoulli-draws every stored edge of the local block
        # and rebuilds the surviving structure — the O(nnz) per-epoch
        # cost that Table 12 contrasts against BNS's boundary-only work.
        universe_nnz = inner_csr.nnz + rank_data.a_bd.nnz
        return _finish(op, kept, t0, ops=universe_nnz + op.nnz)
