"""The SpMM kernel and the seam around it: the fused kernel must agree
with the materialised stacked operator (``op.csr``) across the full
split-operator configuration matrix — scalar/vector col_scale,
row_scale on/off, empty boundary, 1-D operands, fp32/fp64 — and a
registered wrapper named as a trainer's ``kernel_backend=`` must see
every SpMM without changing what the trainer computes.
"""

import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.tensor import SparseOp, SplitOperator, Tensor, spmm
from repro.tensor.kernels import (
    KernelBackend,
    get_backend,
    merge_split_csr,
    register_backend,
    resolve_backend,
    use_backend,
)


KERNEL = KernelBackend()

TOL = {np.float64: 1e-12, np.float32: 1e-5}


def make_op(
    n_in=9,
    n_bd=6,
    density=0.4,
    seed=0,
    col_scale=None,
    row_scale=False,
    empty_boundary=False,
    dtype=np.float64,
):
    rng = np.random.RandomState(seed)
    inner = sp.random(n_in, n_in, density=density, random_state=rng).tocsr()
    bd = sp.random(n_in, n_bd, density=density, random_state=rng).tocsc()
    if empty_boundary:
        kept = np.empty(0, dtype=np.int64)
        cs = None if col_scale is None else np.empty(0)
    else:
        kept = np.array([0, 2, 3, 5])
        if col_scale == "vector":
            cs = np.abs(rng.normal(size=kept.size)) + 0.5
        else:
            cs = col_scale
    rs = np.abs(rng.normal(size=n_in)) + 0.1 if row_scale else None
    op = SplitOperator.select(inner, bd, kept, row_scale=rs, col_scale=cs)
    return op.astype(dtype)


class TestConformance:
    """The fused kernel vs the stacked reference ``op.csr``."""

    @pytest.mark.parametrize("col_scale", [None, 2.5, "vector"])
    @pytest.mark.parametrize("row_scale", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_backward(self, col_scale, row_scale, dtype):
        op = make_op(seed=3, col_scale=col_scale, row_scale=row_scale,
                     dtype=dtype)
        rng = np.random.default_rng(7)
        h = rng.normal(size=(op.shape[1], 5)).astype(dtype)
        g = rng.normal(size=(op.shape[0], 5)).astype(dtype)
        fwd = KERNEL.split_spmm_forward(op, h)
        bwd = KERNEL.split_spmm_backward(op, g)
        assert fwd.dtype == dtype and bwd.dtype == dtype
        np.testing.assert_allclose(
            fwd, op.csr.toarray() @ h, atol=TOL[dtype], rtol=TOL[dtype]
        )
        np.testing.assert_allclose(
            bwd, op.csr.toarray().T @ g, atol=TOL[dtype], rtol=TOL[dtype]
        )

    @pytest.mark.parametrize("row_scale", [False, True])
    def test_empty_boundary(self, row_scale):
        op = make_op(seed=5, empty_boundary=True, row_scale=row_scale)
        assert op.boundary is None
        h = np.random.default_rng(8).normal(size=(op.shape[1], 4))
        g = np.random.default_rng(9).normal(size=(op.shape[0], 4))
        np.testing.assert_allclose(
            KERNEL.split_spmm_forward(op, h), op.csr.toarray() @ h, atol=1e-12
        )
        np.testing.assert_allclose(
            KERNEL.split_spmm_backward(op, g), op.csr.toarray().T @ g,
            atol=1e-12,
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_1d_operand(self, dtype):
        op = make_op(seed=11, col_scale="vector", row_scale=True, dtype=dtype)
        h = np.random.default_rng(12).normal(size=op.shape[1]).astype(dtype)
        g = np.random.default_rng(13).normal(size=op.shape[0]).astype(dtype)
        fwd = KERNEL.split_spmm_forward(op, h)
        bwd = KERNEL.split_spmm_backward(op, g)
        assert fwd.shape == (op.shape[0],) and fwd.dtype == dtype
        assert bwd.shape == (op.shape[1],) and bwd.dtype == dtype
        np.testing.assert_allclose(
            fwd, op.csr.toarray() @ h, atol=TOL[dtype], rtol=TOL[dtype]
        )
        np.testing.assert_allclose(
            bwd, op.csr.toarray().T @ g, atol=TOL[dtype], rtol=TOL[dtype]
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_in=st.integers(2, 12),
        n_bd=st.integers(0, 8),
        d=st.integers(1, 4),
        col_kind=st.sampled_from([None, "scalar", "vector"]),
        row_scale=st.booleans(),
    )
    def test_property_matches_stacked(
        self, seed, n_in, n_bd, d, col_kind, row_scale
    ):
        rng = np.random.RandomState(seed)
        inner = sp.random(n_in, n_in, density=0.5, random_state=rng).tocsr()
        bd = sp.random(n_in, max(n_bd, 1), density=0.5,
                       random_state=rng).tocsc()
        kept = np.flatnonzero(rng.random(max(n_bd, 1)) < 0.7) if n_bd else (
            np.empty(0, dtype=np.int64)
        )
        if col_kind == "vector":
            cs = rng.random(kept.size) + 0.5
        elif col_kind == "scalar":
            cs = 2.0
        else:
            cs = None
        if kept.size == 0 and isinstance(cs, np.ndarray):
            cs = np.empty(0)
        rs = rng.random(n_in) + 0.1 if row_scale else None
        op = SplitOperator.select(inner, bd, kept, row_scale=rs, col_scale=cs)
        h = rng.normal(size=(op.shape[1], d))
        g = rng.normal(size=(op.shape[0], d))
        np.testing.assert_allclose(
            KERNEL.split_spmm_forward(op, h), op.csr.toarray() @ h, atol=1e-10
        )
        np.testing.assert_allclose(
            KERNEL.split_spmm_backward(op, g), op.csr.toarray().T @ g,
            atol=1e-10,
        )


class TestMergeSplitCsr:
    """``merge_split_csr`` is also what ``benchmarks/e2e`` times, so it
    is pinned across the same configuration matrix as the kernel."""

    @pytest.mark.parametrize("col_scale", [None, 2.5, "vector"])
    @pytest.mark.parametrize("row_scale", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_materialised_csr(self, col_scale, row_scale, dtype):
        op = make_op(seed=17, col_scale=col_scale, row_scale=row_scale,
                     dtype=dtype)
        merged = merge_split_csr(
            op.inner, op.boundary_csr, op.row_scale, op.col_scale
        )
        assert merged.dtype == dtype
        assert merged.shape == op.shape
        np.testing.assert_allclose(
            merged.toarray(), op.csr.toarray(), atol=TOL[dtype],
            rtol=TOL[dtype],
        )
        # canonical structure: sorted column indices within each row
        assert merged.has_sorted_indices

    def test_no_boundary_no_scale_returns_inner(self):
        op = make_op(seed=18, empty_boundary=True)
        merged = merge_split_csr(op.inner, None, None, None)
        assert merged is op.inner

    def test_no_boundary_row_scale_leaves_inner_untouched(self):
        op = make_op(seed=18, empty_boundary=True, row_scale=True)
        before = op.inner.toarray()
        merged = merge_split_csr(op.inner, None, op.row_scale, None)
        assert merged is not op.inner
        np.testing.assert_allclose(
            merged.toarray(), op.row_scale[:, None] * before, atol=1e-12
        )
        np.testing.assert_array_equal(op.inner.toarray(), before)

    def test_cached_on_operator(self):
        op = make_op(seed=19, col_scale=2.0)
        assert op.fused_csr is op.fused_csr
        assert op.fused_csr_t is op.fused_csr_t
        np.testing.assert_allclose(
            op.fused_csr_t.toarray(), op.csr.toarray().T, atol=1e-12
        )


class _Counting(KernelBackend):
    """A wrapper as a benchmark registers one: delegates to the fused
    kernel and counts calls per direction."""

    name = "test-counting"

    def __init__(self):
        self.fwd = 0
        self.bwd = 0

    def split_spmm_forward(self, op, h):
        self.fwd += 1
        return super().split_spmm_forward(op, h)

    def split_spmm_backward(self, op, g):
        self.bwd += 1
        return super().split_spmm_backward(op, g)


class TestRegistry:
    def test_default_is_fused(self):
        assert type(get_backend()) is KernelBackend
        assert get_backend().name == "numpy"
        assert resolve_backend("numpy") is get_backend()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("bogus")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with use_backend("bogus"):
                pass  # pragma: no cover - never entered

    def test_instance_passes_through(self):
        b = _Counting()
        assert resolve_backend(b) is b

    def test_register_shadows_earlier_name(self):
        first = register_backend(_Counting())
        second = register_backend(_Counting())
        assert resolve_backend(_Counting.name) is second is not first
        assert get_backend().name == "numpy"

    def test_use_backend_scopes_and_nests(self):
        probe = register_backend(_Counting())
        with use_backend(probe.name) as b:
            assert b is probe
            assert get_backend() is probe
            with use_backend("numpy"):
                assert get_backend().name == "numpy"
            assert get_backend() is probe
        assert get_backend().name == "numpy"

    def test_use_backend_pops_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend(_Counting()):
                raise RuntimeError("epoch failed")
        assert get_backend().name == "numpy"

    def test_use_backend_is_thread_local(self):
        seen = {}
        ready = threading.Event()
        done = threading.Event()

        def inner_thread():
            ready.wait(5)
            seen["other"] = get_backend().name
            done.set()

        t = threading.Thread(target=inner_thread)
        t.start()
        with use_backend(_Counting()):
            ready.set()
            done.wait(5)
            seen["here"] = get_backend().name
        t.join(5)
        assert seen == {"here": "test-counting", "other": "numpy"}

    def test_matmul_dispatches_to_active_backend(self):
        probe = _Counting()
        op = make_op(seed=23)
        h = np.ones((op.shape[1], 2))
        with use_backend(probe):
            op.matmul(h)
            op.rmatmul(np.ones((op.shape[0], 2)))
        assert (probe.fwd, probe.bwd) == (1, 1)


class TestOperatorCaches:
    def test_sparseop_csr_t_cached(self):
        m = sp.random(8, 8, density=0.4, random_state=np.random.RandomState(29))
        op = SparseOp(m)
        t1 = op.csr_t
        assert op.csr_t is t1
        np.testing.assert_allclose(t1.toarray(), op.csr.toarray().T)

    def test_spmm_backward_uses_cached_transpose(self):
        m = sp.random(8, 8, density=0.4, random_state=np.random.RandomState(31))
        op = SparseOp(m)
        h = Tensor(np.random.default_rng(32).normal(size=(8, 3)),
                   requires_grad=True)
        out = spmm(op, h)
        out.sum().backward()
        assert op._csr_t is not None
        np.testing.assert_allclose(
            h.grad, op.csr.T @ np.ones((8, 3)), atol=1e-12
        )

    def test_frobenius_without_materialisation(self):
        for kwargs in (
            dict(col_scale="vector", row_scale=True),
            dict(col_scale=3.0, row_scale=False),
            dict(empty_boundary=True, row_scale=True),
        ):
            op = make_op(seed=37, **kwargs)
            expected = float((op.csr.data ** 2).sum())
            op2 = make_op(seed=37, **kwargs)
            got = op2.frobenius_norm_sq()
            assert op2._csr is None, "frobenius materialised the stack"
            np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestKernelBackendSeam:
    """``kernel_backend=<registered name>`` on the in-process trainers
    scopes the wrapper around every epoch and changes nothing else."""

    EPOCHS = 3

    @pytest.mark.parametrize(
        "trainer_name", ["DistributedTrainer", "PipelinedTrainer"]
    )
    def test_wrapper_sees_every_spmm_and_changes_nothing(
        self, small_graph, small_partition, trainer_name
    ):
        import repro.core as core
        from repro.core import BoundaryNodeSampler
        from repro.nn import GCNModel

        trainer_cls = getattr(core, trainer_name)
        n_layers = 2

        counting = register_backend(_Counting())

        def run(**kwargs):
            model = GCNModel(
                small_graph.feature_dim, 8, small_graph.num_classes,
                n_layers, 0.5, np.random.default_rng(1),
            )
            t = trainer_cls(
                small_graph, small_partition, model, BoundaryNodeSampler(0.5),
                lr=0.01, seed=0, aggregation="sym", **kwargs,
            )
            losses, ledgers, fwd_calls = [], [], []
            for _ in range(self.EPOCHS):
                before = counting.fwd
                losses.append(t.train_epoch().hex())
                fwd_calls.append(counting.fwd - before)
                ledgers.append(dict(t.comm.meter.by_tag))
            return losses, ledgers, fwd_calls

        losses, ledgers, fwd_calls = run()
        assert fwd_calls == [0] * self.EPOCHS and counting.bwd == 0
        w_losses, w_ledgers, w_fwd_calls = run(kernel_backend=counting.name)
        assert w_fwd_calls == [small_partition.num_parts * n_layers] * self.EPOCHS
        assert counting.bwd >= 1
        assert w_losses == losses
        assert w_ledgers == ledgers
        # The scope ends with the epoch.
        assert get_backend().name == "numpy"

    @pytest.mark.parametrize(
        "trainer_name", ["DistributedTrainer", "PipelinedTrainer"]
    )
    def test_unknown_name_fails_at_construction(
        self, small_graph, small_partition, trainer_name
    ):
        import repro.core as core
        from repro.nn import GCNModel

        trainer_cls = getattr(core, trainer_name)

        model = GCNModel(
            small_graph.feature_dim, 8, small_graph.num_classes, 2, 0.0,
            np.random.default_rng(1),
        )
        with pytest.raises(ValueError, match="unknown kernel backend 'split'"):
            trainer_cls(
                small_graph, small_partition, model, kernel_backend="split"
            )
