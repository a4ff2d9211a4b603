"""SplitOperator: split-form SpMM forward/backward vs the stacked matrix."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import SplitOperator, Tensor, spmm


def make_blocks(n_in=7, n_bd=5, density=0.4, seed=0):
    rng = np.random.RandomState(seed)
    inner = sp.random(n_in, n_in, density=density, random_state=rng).tocsr()
    boundary = sp.random(n_in, n_bd, density=density, random_state=rng).tocsc()
    return inner, boundary


class TestStructure:
    def test_shape_and_nnz(self):
        inner, bd = make_blocks()
        kept = np.array([0, 2, 4])
        op = SplitOperator.select(inner, bd, kept)
        assert op.shape == (7, 7 + 3)
        assert op.nnz == op.inner_nnz + op.boundary_nnz
        assert op.inner_nnz == inner.nnz
        assert op.boundary_nnz == bd[:, kept].nnz

    def test_empty_boundary(self):
        inner, bd = make_blocks()
        op = SplitOperator.select(inner, bd, np.empty(0, dtype=np.int64))
        assert op.shape == (7, 7)
        assert op.boundary is None
        np.testing.assert_allclose(op.toarray(), inner.toarray())

    def test_kept_cols_default(self):
        inner, bd = make_blocks()
        op = SplitOperator(inner, bd)
        np.testing.assert_array_equal(op.kept_cols, np.arange(5))

    def test_csr_matches_manual_stack(self):
        inner, bd = make_blocks()
        kept = np.array([1, 3])
        rs = np.linspace(0.5, 1.5, 7)
        op = SplitOperator.select(inner, bd, kept, row_scale=rs, col_scale=2.0)
        manual = sp.diags(rs) @ sp.hstack([inner, bd[:, kept] * 2.0])
        np.testing.assert_allclose(op.toarray(), manual.toarray(), atol=1e-12)

    def test_unit_col_scale_dropped(self):
        inner, bd = make_blocks()
        op = SplitOperator(inner, bd, col_scale=1.0)
        assert op.col_scale is None


class TestVectorColScale:
    """Per-column scale vectors (importance sampling's HT weights)."""

    def make_op(self, seed=20, row_scale=False):
        inner, bd = make_blocks(seed=seed)
        kept = np.array([0, 2, 3])
        cs = np.array([0.5, 2.0, 4.0])
        rs = (
            np.abs(np.random.default_rng(seed + 1).normal(size=7)) + 0.1
            if row_scale else None
        )
        op = SplitOperator.select(inner, bd, kept, row_scale=rs, col_scale=cs)
        manual = sp.hstack([inner, bd[:, kept] @ sp.diags(cs)])
        if rs is not None:
            manual = sp.diags(rs) @ manual
        return op, manual.tocsr(), cs

    def test_csr_matches_manual_diag(self):
        op, manual, _ = self.make_op(row_scale=True)
        np.testing.assert_allclose(op.toarray(), manual.toarray(), atol=1e-12)

    @pytest.mark.parametrize("row_scale", [False, True])
    def test_forward_backward_match_stacked(self, row_scale):
        op, manual, _ = self.make_op(seed=21, row_scale=row_scale)
        h = np.random.default_rng(1).normal(size=(op.shape[1], 5))
        np.testing.assert_allclose(op.matmul(h), manual @ h, atol=1e-12)
        g = np.random.default_rng(2).normal(size=(7, 5))
        np.testing.assert_allclose(op.rmatmul(g), manual.T @ g, atol=1e-12)

    def test_vector_operand(self):
        op, manual, _ = self.make_op(seed=22)
        ones = np.ones(op.shape[1])
        np.testing.assert_allclose(op.matmul(ones), manual @ ones, atol=1e-12)
        g = np.ones(7)
        np.testing.assert_allclose(op.rmatmul(g), manual.T @ g, atol=1e-12)

    def test_astype_casts_vector(self):
        op, _, _ = self.make_op(seed=23)
        op32 = op.astype(np.float32)
        assert op32.col_scale.dtype == np.float32
        h = np.random.default_rng(3).normal(size=(op.shape[1], 2)).astype(
            np.float32
        )
        assert op32.matmul(h).dtype == np.float32

    def test_wrong_length_vector_rejected(self):
        inner, bd = make_blocks()
        with pytest.raises(ValueError, match="col_scale"):
            SplitOperator.select(
                inner, bd, np.array([0, 1]), col_scale=np.array([1.0])
            )

    def test_empty_boundary_drops_col_scale(self):
        inner, bd = make_blocks()
        op = SplitOperator.select(
            inner, bd, np.empty(0, dtype=np.int64),
            col_scale=np.empty(0),
        )
        assert op.col_scale is None

    def test_autograd_through_vector_scale(self):
        inner, bd = make_blocks(seed=24)
        kept = np.array([1, 4])
        cs = np.array([3.0, 0.25])
        op = SplitOperator.select(inner, bd, kept, col_scale=cs)
        h = Tensor(np.random.default_rng(5).normal(size=(op.shape[1], 3)),
                   requires_grad=True)
        out = spmm(op, h)
        w = np.random.default_rng(6).normal(size=out.shape)
        (out * Tensor(w)).sum().backward()
        np.testing.assert_allclose(h.grad, op.csr.T @ w, atol=1e-9)


class TestSplitSpmm:
    @pytest.mark.parametrize("row_scale", [False, True])
    @pytest.mark.parametrize("col_scale", [None, 3.0])
    def test_forward_matches_stacked(self, row_scale, col_scale):
        inner, bd = make_blocks(seed=3)
        kept = np.array([0, 1, 4])
        rs = np.abs(np.random.default_rng(1).normal(size=7)) if row_scale else None
        op = SplitOperator.select(inner, bd, kept, row_scale=rs, col_scale=col_scale)
        h = np.random.default_rng(2).normal(size=(op.shape[1], 6))
        split = op.matmul(h)
        stacked = op.csr @ h
        np.testing.assert_allclose(split, stacked, atol=1e-9)

    def test_backward_matches_stacked(self):
        inner, bd = make_blocks(seed=5)
        kept = np.array([2, 3])
        rs = np.abs(np.random.default_rng(4).normal(size=7)) + 0.1
        op = SplitOperator.select(inner, bd, kept, row_scale=rs, col_scale=0.5)
        g = np.random.default_rng(6).normal(size=(7, 4))
        split = op.rmatmul(g)
        stacked = op.csr.T @ g
        np.testing.assert_allclose(split, stacked, atol=1e-9)

    def test_spmm_autograd(self):
        inner, bd = make_blocks(seed=7)
        kept = np.array([0, 3, 4])
        op = SplitOperator.select(inner, bd, kept, col_scale=2.0)
        h = Tensor(np.random.default_rng(8).normal(size=(op.shape[1], 3)),
                   requires_grad=True)
        out = spmm(op, h)
        w = np.random.default_rng(9).normal(size=out.shape)
        (out * Tensor(w)).sum().backward()
        np.testing.assert_allclose(h.grad, op.csr.T @ w, atol=1e-9)

    def test_vector_operand(self):
        inner, bd = make_blocks(seed=12)
        op = SplitOperator.select(inner, bd, np.array([0, 2]))
        ones = np.ones(op.shape[1])
        np.testing.assert_allclose(op.matmul(ones), op.csr @ ones, atol=1e-12)
