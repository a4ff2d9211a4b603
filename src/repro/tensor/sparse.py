"""Sparse matrix support: constant CSR operators and autograd SpMM.

GCN aggregation is a sparse-dense matmul ``Z = P @ H`` where ``P`` is a
fixed propagation matrix derived from the adjacency structure.  Two
operator representations are provided:

* :class:`SparseOp` — a plain CSR wrapper for operators that exist as
  one materialised matrix (the full-graph propagation, baselines).
* :class:`SplitOperator` — the boundary-sampled partition operator
  ``rowscale ⊙ [P_in | P_bd[:, kept] · colscale]`` kept in *split*
  form.  Partition-parallel epochs need a fresh operator per epoch per
  rank; materialising the stacked matrix costs several full sparse
  copies (CSC conversion, column slice, CSR conversion, hstack,
  row-normalise) — all O(nnz) — every epoch.  The split form stores
  the immutable inner block once, selects boundary columns lazily from
  a prebuilt CSC view (O(kept nnz)), and folds renormalisation into a
  row-scale vector, so per-epoch plan construction touches only the
  kept boundary set.  ``spmm`` computes
  ``rowscale ⊙ (P_in @ H_in + P_bd_kept @ (colscale ⊙ H_bd))``
  without ever forming ``[P̃_in | P̃_bd]``; the backward multiplies by
  the transposed blocks (the inner transpose is shared across epochs).

:func:`spmm` dispatches on the operator type; its backward multiplies
by ``P.T`` — exactly what DGL's ``update_all`` with a copy/sum message
function compiles to.  The matrix values never require gradients
(attention-weighted aggregation for GAT is built from edge-level ops in
:mod:`repro.tensor.ops` instead), so the implementation stays simple
and fast.

*How* the split product is computed is delegated to the pluggable
kernel registry in :mod:`repro.tensor.kernels`:
``SplitOperator.matmul``/``rmatmul`` call the active backend's
``split_spmm_forward``/``split_spmm_backward`` primitives (fused
one-pass ``numpy`` by default; two-pass ``split`` reference),
selected via ``REPRO_KERNEL_BACKEND``,
:func:`~repro.tensor.kernels.set_backend` or the CLI's
``--kernel-backend``.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from . import kernels
from .dtype import float_dtype_like, resolve_dtype
from .tensor import Tensor, as_tensor

__all__ = ["SparseOp", "SplitOperator", "spmm"]


class SparseOp:
    """An immutable sparse linear operator (CSR) used in aggregation.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix; converted to CSR.  Treated as a
        constant: no gradients flow into the values.
    dtype:
        Optional float dtype of the values.  Omitted, a float32/float64
        matrix keeps its dtype and anything else (ints, bools) lands on
        the module default.
    """

    __slots__ = ("csr", "_csr_t")

    def __init__(self, matrix: sp.spmatrix, dtype=None) -> None:
        if dtype is None:
            dtype = float_dtype_like(matrix.dtype)
        else:
            dtype = resolve_dtype(dtype)
        self.csr: sp.csr_matrix = sp.csr_matrix(matrix, dtype=dtype)
        self._csr_t: Optional[sp.csr_matrix] = None

    @property
    def shape(self) -> Tuple[int, int]:
        return self.csr.shape

    @property
    def dtype(self) -> np.dtype:
        return self.csr.dtype

    def astype(self, dtype) -> "SparseOp":
        """Cast the operator values to ``dtype`` (no-op if already)."""
        target = resolve_dtype(dtype)
        return self if self.csr.dtype == target else SparseOp(self.csr, dtype=target)

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def select_columns(self, cols: np.ndarray, scale: float = 1.0) -> "SparseOp":
        """Restrict the operator to a subset of columns.

        ``cols`` are column indices of the original matrix; the result
        has ``len(cols)`` columns in that order, optionally scaled.
        This implements the BNS column selection: keeping only the
        sampled boundary nodes' columns and rescaling them by ``1/p``.
        """
        sub = self.csr[:, np.asarray(cols, dtype=np.int64)]
        if scale != 1.0:
            sub = sub * scale
        return SparseOp(sub)

    def scale_columns(self, factors: np.ndarray) -> "SparseOp":
        """Return a copy with column ``j`` multiplied by ``factors[j]``."""
        diag = sp.diags(np.asarray(factors, dtype=self.csr.dtype))
        return SparseOp(self.csr @ diag)

    def hstack(self, other: "SparseOp") -> "SparseOp":
        """Concatenate two operators column-wise ([A | B])."""
        return SparseOp(sp.hstack([self.csr, other.csr], format="csr"))

    @property
    def csr_t(self) -> sp.csr_matrix:
        """Cached CSR transpose — the SpMM backward multiplies by it on
        every call, so the O(nnz) conversion happens once per operator
        (mirroring ``SplitOperator.inner_t``), not once per forward."""
        if self._csr_t is None:
            self._csr_t = self.csr.T.tocsr()
        return self._csr_t

    def transpose(self) -> "SparseOp":
        return SparseOp(self.csr_t)

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()

    def frobenius_norm_sq(self) -> float:
        """||P||_F^2 — appears in the variance bound (Appendix A)."""
        return float((self.csr.data ** 2).sum())

    def __repr__(self) -> str:
        return f"SparseOp(shape={self.shape}, nnz={self.nnz})"


class SplitOperator:
    """``rowscale ⊙ [P_in | P_bd_kept · colscale]`` kept in split form.

    Parameters
    ----------
    inner:
        ``(n_in, n_in)`` CSR inner block, shared across epochs.
    boundary:
        ``(n_in, k)`` boundary block of the *kept* columns (CSC), or
        ``None`` when no boundary columns survive.
    kept_cols:
        Positions of the kept columns inside the rank's boundary list
        (metadata used by consumers to route communication).
    row_scale:
        Optional ``(n_in,)`` vector applied to every row of the
        stacked operator — the lazy form of ``row_normalise``; for
        renorm-mode sampling it is ``1 / (inner_deg + A_bd_kept·1)``,
        one SpMV on the kept block instead of a full matrix rebuild.
    col_scale:
        Optional scalar — or ``(k,)`` vector, one factor per kept
        column — applied to the boundary block only.  The scalar form
        is the uniform 1/p rescale of the unbiased BNS estimator; the
        vector form carries per-column Horvitz–Thompson weights
        ``1/π_v`` for importance-weighted boundary sampling.
    inner_t:
        Optional precomputed CSR transpose of ``inner``; pass the
        rank-level cached transpose so the SpMM backward does not
        re-transpose the (immutable) inner block every epoch.
    """

    __slots__ = (
        "inner",
        "boundary",
        "kept_cols",
        "row_scale",
        "col_scale",
        "_inner_t",
        "_boundary_t",
        "_boundary_csr",
        "_csr",
        "_fused_csr",
        "_fused_csr_t",
    )

    def __init__(
        self,
        inner: sp.csr_matrix,
        boundary: Optional[sp.spmatrix] = None,
        kept_cols: Optional[np.ndarray] = None,
        row_scale: Optional[np.ndarray] = None,
        col_scale: Optional[Union[float, np.ndarray]] = None,
        inner_t: Optional[sp.csr_matrix] = None,
    ) -> None:
        self.inner = inner
        if boundary is not None and boundary.shape[1] == 0:
            boundary = None
        self.boundary = boundary
        if kept_cols is None:
            k = boundary.shape[1] if boundary is not None else 0
            kept_cols = np.arange(k, dtype=np.int64)
        self.kept_cols = np.asarray(kept_cols, dtype=np.int64)
        self.row_scale = row_scale
        if col_scale is not None:
            if np.ndim(col_scale) == 0:
                if col_scale == 1.0:
                    col_scale = None
            else:
                col_scale = np.asarray(col_scale).ravel()
                k = self.boundary.shape[1] if self.boundary is not None else 0
                if col_scale.size != k:
                    raise ValueError(
                        f"col_scale vector has {col_scale.size} entries "
                        f"for {k} boundary columns"
                    )
        if self.boundary is None:
            col_scale = None
        self.col_scale = col_scale
        self._inner_t = inner_t
        self._boundary_t = None
        self._boundary_csr = None
        self._csr = None
        self._fused_csr = None
        self._fused_csr_t = None

    @classmethod
    def select(
        cls,
        inner: sp.csr_matrix,
        boundary_csc: sp.csc_matrix,
        kept_cols: np.ndarray,
        row_scale: Optional[np.ndarray] = None,
        col_scale: Optional[Union[float, np.ndarray]] = None,
        inner_t: Optional[sp.csr_matrix] = None,
    ) -> "SplitOperator":
        """Select ``kept_cols`` from a prebuilt boundary CSC universe.

        The slice costs O(nnz of the kept columns) — the whole point
        of precomputing the CSC view once per rank.
        """
        kept_cols = np.asarray(kept_cols, dtype=np.int64)
        bd = boundary_csc[:, kept_cols] if kept_cols.size else None
        return cls(inner, bd, kept_cols, row_scale, col_scale, inner_t)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        k = self.boundary.shape[1] if self.boundary is not None else 0
        return (self.inner.shape[0], self.inner.shape[1] + k)

    @property
    def dtype(self) -> np.dtype:
        """The operator's value dtype (set by the inner block)."""
        return self.inner.dtype

    def astype(self, dtype) -> "SplitOperator":
        """Cast every block (and scale vector) to ``dtype``.

        Returns ``self`` when nothing changes, so the cached degenerate
        plans stay shared.
        """
        target = resolve_dtype(dtype)
        if self.inner.dtype == target:
            return self
        col_scale = self.col_scale
        if isinstance(col_scale, np.ndarray):
            col_scale = col_scale.astype(target)
        return SplitOperator(
            self.inner.astype(target),
            self.boundary.astype(target) if self.boundary is not None else None,
            self.kept_cols,
            self.row_scale.astype(target) if self.row_scale is not None else None,
            col_scale,
            self._inner_t.astype(target) if self._inner_t is not None else None,
        )

    @property
    def inner_nnz(self) -> int:
        return self.inner.nnz

    @property
    def boundary_nnz(self) -> int:
        return self.boundary.nnz if self.boundary is not None else 0

    @property
    def nnz(self) -> int:
        return self.inner_nnz + self.boundary_nnz

    @property
    def inner_t(self) -> sp.csr_matrix:
        if self._inner_t is None:
            self._inner_t = self.inner.T.tocsr()
        return self._inner_t

    @property
    def boundary_t(self):
        if self._boundary_t is None and self.boundary is not None:
            self._boundary_t = self.boundary.T.tocsr()
        return self._boundary_t

    @property
    def boundary_csr(self):
        """CSR view of the boundary block (row-major products are
        faster; converted once per plan, reused every layer)."""
        if self._boundary_csr is None and self.boundary is not None:
            self._boundary_csr = sp.csr_matrix(self.boundary)
        return self._boundary_csr

    # ------------------------------------------------------------------
    @property
    def csr(self) -> sp.csr_matrix:
        """The stacked operator, materialised lazily (and cached).

        Only inspection/debug paths need this; training and planning
        never call it.  It is also the reference the equivalence tests
        compare the split SpMM against.
        """
        if self._csr is None:
            if self.boundary is not None:
                bd = self.boundary
                if self.col_scale is not None:
                    if np.ndim(self.col_scale) == 0:
                        bd = bd * self.col_scale
                    else:
                        bd = bd @ sp.diags(self.col_scale)
                stacked = sp.hstack([self.inner, bd], format="csr")
            else:
                stacked = self.inner.copy()
            if self.row_scale is not None:
                stacked = sp.diags(self.row_scale) @ stacked
            self._csr = sp.csr_matrix(stacked, dtype=self.inner.dtype)
        return self._csr

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()

    @property
    def fused_csr(self) -> sp.csr_matrix:
        """The merged, scale-folded CSR the fused numpy kernel runs on.

        Numerically identical to :attr:`csr` but built in one
        vectorised pass (:func:`~repro.tensor.kernels.merge_split_csr`)
        and cached, so the per-plan build amortises over every layer's
        forward/backward of every epoch the plan serves.
        """
        if self._fused_csr is None:
            self._fused_csr = kernels.merge_split_csr(
                self.inner, self.boundary_csr, self.row_scale, self.col_scale
            )
        return self._fused_csr

    @property
    def fused_csr_t(self) -> sp.csr_matrix:
        """Cached CSR transpose of :attr:`fused_csr` (one pass per plan
        for the fused backward, reused across layers and epochs)."""
        if self._fused_csr_t is None:
            self._fused_csr_t = self.fused_csr.T.tocsr()
        return self._fused_csr_t

    def matmul(self, h: np.ndarray) -> np.ndarray:
        """Split-form product ``P_eff @ h`` on a raw ndarray (no tape),
        computed by the active kernel backend."""
        return kernels.get_backend().split_spmm_forward(self, h)

    def rmatmul(self, g: np.ndarray) -> np.ndarray:
        """Transposed product ``P_eff.T @ g`` (the SpMM backward),
        computed by the active kernel backend."""
        return kernels.get_backend().split_spmm_backward(self, g)

    def frobenius_norm_sq(self) -> float:
        """||P_eff||_F^2 from the split blocks and scale vectors alone —
        the stacked matrix is never materialised (the row/column
        factors enter each stored entry squared)."""
        inner = self.inner
        sq = inner.data ** 2
        if self.row_scale is not None:
            sq = sq * np.repeat(self.row_scale, np.diff(inner.indptr)) ** 2
        total = float(sq.sum())
        if self.boundary is not None:
            bd = self.boundary
            sq = bd.data ** 2
            if sp.isspmatrix_csc(bd):
                rows, cols = bd.indices, np.repeat(
                    np.arange(bd.shape[1]), np.diff(bd.indptr)
                )
            else:
                bd = self.boundary_csr
                sq = bd.data ** 2
                rows, cols = np.repeat(
                    np.arange(bd.shape[0]), np.diff(bd.indptr)
                ), bd.indices
            cs = self.col_scale
            if cs is not None:
                sq = sq * (cs * cs if np.ndim(cs) == 0 else np.asarray(cs)[cols] ** 2)
            if self.row_scale is not None:
                sq = sq * self.row_scale[rows] ** 2
            total += float(sq.sum())
        return total

    def __repr__(self) -> str:
        cs = self.col_scale
        if isinstance(cs, np.ndarray):
            cs = f"vector({cs.size})"
        return (
            f"SplitOperator(shape={self.shape}, inner_nnz={self.inner_nnz}, "
            f"boundary_nnz={self.boundary_nnz}, "
            f"renorm={self.row_scale is not None}, "
            f"col_scale={cs})"
        )


AnyOp = Union[SparseOp, SplitOperator]


def spmm(op: AnyOp, dense: Tensor) -> Tensor:
    """Sparse @ dense with autograd through the dense operand.

    Forward: ``out = P @ H``.  Backward: ``dH = P.T @ dOut``.  For a
    :class:`SplitOperator` both directions run in split form — the
    stacked matrix is never materialised.
    """
    dense = as_tensor(dense)
    if isinstance(op, SplitOperator):
        out_data = op.matmul(dense.data)

        def backward_split(g: np.ndarray):
            return ((dense, op.rmatmul(g)),)

        return Tensor._make(out_data, (dense,), "spmm", backward_split)

    out_data = op.csr @ dense.data
    csr_t = op.csr_t  # cached on the operator, not rebuilt per forward

    def backward(g: np.ndarray):
        return ((dense, csr_t @ g),)

    return Tensor._make(out_data, (dense,), "spmm", backward)
