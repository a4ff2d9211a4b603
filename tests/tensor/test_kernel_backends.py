"""Kernel backend registry and conformance: every registered backend
must agree with the materialised stacked operator (and with numpy's
dense arithmetic) across the full split-operator configuration matrix —
scalar/vector col_scale, row_scale on/off, empty boundary, 1-D
operands, fp32/fp64.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.tensor import SparseOp, SplitOperator, Tensor, spmm
from repro.tensor.kernels import (
    KernelBackend,
    backend_names,
    get_backend,
    merge_split_csr,
    resolve_backend,
    set_backend,
    use_backend,
)


BACKENDS = backend_names()

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


def dense_reference(op, h):
    return op.csr.toarray() @ h


class TestConformance:
    """Every backend vs the dense stacked reference."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("col_scale", [None, 2.5, "vector"])
    @pytest.mark.parametrize("row_scale", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_backward(self, backend, col_scale, row_scale, dtype):
        op = make_op(seed=3, col_scale=col_scale, row_scale=row_scale,
                     dtype=dtype)
        rng = np.random.default_rng(7)
        h = rng.normal(size=(op.shape[1], 5)).astype(dtype)
        g = rng.normal(size=(op.shape[0], 5)).astype(dtype)
        b = resolve_backend(backend)
        fwd = b.split_spmm_forward(op, h)
        bwd = b.split_spmm_backward(op, g)
        assert fwd.dtype == dtype and bwd.dtype == dtype
        np.testing.assert_allclose(
            fwd, dense_reference(op, h), atol=TOL[dtype], rtol=TOL[dtype]
        )
        np.testing.assert_allclose(
            bwd, op.csr.toarray().T @ g, atol=TOL[dtype], rtol=TOL[dtype]
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_boundary(self, backend):
        op = make_op(seed=5, empty_boundary=True, row_scale=True)
        assert op.boundary is None
        h = np.random.default_rng(8).normal(size=(op.shape[1], 4))
        g = np.random.default_rng(9).normal(size=(op.shape[0], 4))
        b = resolve_backend(backend)
        np.testing.assert_allclose(
            b.split_spmm_forward(op, h), dense_reference(op, h), atol=1e-12
        )
        np.testing.assert_allclose(
            b.split_spmm_backward(op, g), op.csr.toarray().T @ g, atol=1e-12
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_1d_operand(self, backend):
        op = make_op(seed=11, col_scale="vector", row_scale=True)
        h = np.random.default_rng(12).normal(size=op.shape[1])
        g = np.random.default_rng(13).normal(size=op.shape[0])
        b = resolve_backend(backend)
        fwd = b.split_spmm_forward(op, h)
        bwd = b.split_spmm_backward(op, g)
        assert fwd.shape == (op.shape[0],)
        assert bwd.shape == (op.shape[1],)
        np.testing.assert_allclose(fwd, op.csr.toarray() @ h, atol=1e-12)
        np.testing.assert_allclose(bwd, op.csr.toarray().T @ g, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_in=st.integers(2, 12),
        n_bd=st.integers(0, 8),
        d=st.integers(1, 4),
        col_kind=st.sampled_from([None, "scalar", "vector"]),
        row_scale=st.booleans(),
    )
    def test_property_matches_dense(
        self, backend, seed, n_in, n_bd, d, col_kind, row_scale
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
        b = resolve_backend(backend)
        np.testing.assert_allclose(
            b.split_spmm_forward(op, h), op.csr.toarray() @ h, atol=1e-10
        )
        np.testing.assert_allclose(
            b.split_spmm_backward(op, g), op.csr.toarray().T @ g, atol=1e-10
        )


class TestMergeSplitCsr:
    def test_matches_materialised_csr(self):
        op = make_op(seed=17, col_scale="vector", row_scale=True)
        merged = merge_split_csr(
            op.inner, op.boundary_csr, op.row_scale, op.col_scale
        )
        np.testing.assert_allclose(
            merged.toarray(), op.csr.toarray(), atol=1e-12
        )
        # canonical structure: sorted column indices within each row
        assert merged.has_sorted_indices

    def test_no_boundary_no_scale_returns_inner(self):
        op = make_op(seed=18, empty_boundary=True)
        merged = merge_split_csr(op.inner, None, None, None)
        assert merged is op.inner

    def test_cached_on_operator(self):
        op = make_op(seed=19, col_scale=2.0)
        assert op.fused_csr is op.fused_csr
        assert op.fused_csr_t is op.fused_csr_t
        np.testing.assert_allclose(
            op.fused_csr_t.toarray(), op.csr.toarray().T, atol=1e-12
        )


class TestRegistry:
    def test_default_is_numpy(self):
        assert get_backend().name == "numpy"

    def test_names_include_all(self):
        assert {"numpy", "split"} <= set(backend_names())

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("bogus")

    def test_instance_passes_through(self):
        b = resolve_backend("split")
        assert resolve_backend(b) is b

    def test_set_backend_returns_previous(self):
        prev = set_backend("split")
        try:
            assert get_backend().name == "split"
        finally:
            set_backend(prev)
        assert get_backend().name == prev.name

    def test_use_backend_scopes_and_nests(self):
        base = get_backend().name
        with use_backend("split") as b:
            assert b.name == "split"
            assert get_backend().name == "split"
            with use_backend("numpy"):
                assert get_backend().name == "numpy"
            assert get_backend().name == "split"
        assert get_backend().name == base

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
        with use_backend("split"):
            ready.set()
            done.wait(5)
            seen["here"] = get_backend().name
        t.join(5)
        assert seen == {"here": "split", "other": "numpy"}

    def test_env_var_presets_default(self):
        code = (
            "from repro.tensor.kernels import get_backend; "
            "print(get_backend().name)"
        )
        env = dict(os.environ, REPRO_KERNEL_BACKEND="split")
        env["PYTHONPATH"] = "src"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "split"

    def test_matmul_dispatches_to_active_backend(self):
        calls = []

        class Probe(KernelBackend):
            name = "probe-test"

            def split_spmm_forward(self, op, h):
                calls.append("fwd")
                return op.csr @ h

            def split_spmm_backward(self, op, g):
                calls.append("bwd")
                return op.csr.T @ g

        op = make_op(seed=23)
        h = np.ones((op.shape[1], 2))
        with use_backend(Probe()):
            op.matmul(h)
            op.rmatmul(np.ones((op.shape[0], 2)))
        assert calls == ["fwd", "bwd"]


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


class TestBackendEquivalenceEndToEnd:
    """Seeded training is bit-compatible across backend families."""

    def test_trainer_losses_and_bytes_match(self, small_graph):
        from repro.core import BoundaryNodeSampler, DistributedTrainer
        from repro.nn import GCNModel
        from repro.partition import partition_graph

        part = partition_graph(small_graph, 4, method="metis", seed=0)

        def run(backend):
            model = GCNModel(
                small_graph.feature_dim, 8, small_graph.num_classes, 2, 0.0,
                np.random.default_rng(1),
            )
            t = DistributedTrainer(
                small_graph, part, model, BoundaryNodeSampler(0.5),
                lr=0.01, seed=0, aggregation="sym", kernel_backend=backend,
            )
            losses = [t.train_epoch() for _ in range(3)]
            return losses, list(t.history.comm_bytes)

        l_fused, b_fused = run("numpy")
        l_split, b_split = run("split")
        assert b_fused == b_split  # byte-identical metering
        np.testing.assert_allclose(l_fused, l_split, rtol=1e-9)
