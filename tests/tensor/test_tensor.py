"""Core Tensor semantics: construction, arithmetic, backward."""

import threading

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    as_tensor,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    unbroadcast,
)

from ..util import check_gradients


class TestConstruction:
    def test_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == get_default_dtype()

    def test_float32_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_float16_lands_on_default(self):
        t = Tensor(np.zeros(3, dtype=np.float16))
        assert t.dtype == get_default_dtype()

    def test_explicit_dtype_casts(self):
        t = Tensor(np.zeros(3), dtype=np.float32)
        assert t.dtype == np.float32

    def test_int_tensor_allowed_without_grad(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "i"

    def test_int_tensor_rejects_grad(self):
        with pytest.raises(ValueError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalar(self):
        t = as_tensor(2.5)
        assert t.item() == 2.5

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad
        assert b._parents == ()

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3


class TestArithmeticForward:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_scalar(self):
        out = Tensor([1.0]) + 2.0
        assert out.item() == 3.0

    def test_radd(self):
        out = 2.0 + Tensor([1.0])
        assert out.item() == 3.0

    def test_sub(self):
        out = Tensor([5.0]) - Tensor([3.0])
        assert out.item() == 2.0

    def test_rsub(self):
        out = 5.0 - Tensor([3.0])
        assert out.item() == 2.0

    def test_mul(self):
        out = Tensor([2.0]) * Tensor([4.0])
        assert out.item() == 8.0

    def test_div(self):
        out = Tensor([8.0]) / Tensor([2.0])
        assert out.item() == 4.0

    def test_rdiv(self):
        out = 8.0 / Tensor([2.0])
        assert out.item() == 4.0

    def test_neg(self):
        out = -Tensor([3.0])
        assert out.item() == -3.0

    def test_pow(self):
        out = Tensor([3.0]) ** 2
        assert out.item() == 9.0

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([3.0]) ** Tensor([2.0])

    def test_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal((a @ b).data, [[3.0], [7.0]])


class TestBackward:
    def test_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_explicit_grad_for_vector(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 3).backward(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(t.grad, [3.0, 3.0])

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([2.0], requires_grad=True)
        (t * 1).sum().backward()
        (t * 1).sum().backward()
        np.testing.assert_array_equal(t.grad, [2.0])

    def test_zero_grad(self):
        t = Tensor([2.0], requires_grad=True)
        (t * 1).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_accumulates(self):
        # y = x*x + x*x must give dy/dx = 4x.
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x * x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        z = x * 3
        y = (z + z).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_no_grad_through_constant(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])  # constant
        (a * b).sum().backward()
        assert b.grad is None

    def test_deep_chain_no_recursion_error(self):
        # Iterative topo sort must survive long chains.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y * 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestGradientsNumerical:
    def test_add(self):
        check_gradients(lambda a, b: (a + b).sum(), [np.random.rand(3, 2), np.random.rand(3, 2)])

    def test_sub(self):
        check_gradients(lambda a, b: (a - b).sum(), [np.random.rand(4), np.random.rand(4)])

    def test_mul(self):
        check_gradients(lambda a, b: (a * b).sum(), [np.random.rand(2, 3), np.random.rand(2, 3)])

    def test_div(self):
        check_gradients(
            lambda a, b: (a / b).sum(),
            [np.random.rand(3), np.random.rand(3) + 1.0],
        )

    def test_pow(self):
        check_gradients(lambda a: (a ** 3).sum(), [np.random.rand(3) + 0.5])

    def test_matmul(self):
        check_gradients(
            lambda a, b: (a @ b).sum(),
            [np.random.rand(3, 4), np.random.rand(4, 2)],
        )

    def test_matmul_vector_vector(self):
        check_gradients(
            lambda a, b: a @ b,
            [np.random.rand(4), np.random.rand(4)],
        )

    def test_matmul_matrix_vector(self):
        check_gradients(
            lambda a, b: (a @ b).sum(),
            [np.random.rand(3, 4), np.random.rand(4)],
        )

    def test_matmul_vector_matrix(self):
        check_gradients(
            lambda a, b: (a @ b).sum(),
            [np.random.rand(3), np.random.rand(3, 2)],
        )

    def test_broadcast_add_row(self):
        check_gradients(
            lambda a, b: (a + b).sum(),
            [np.random.rand(3, 4), np.random.rand(4)],
        )

    def test_broadcast_mul_scalar_tensor(self):
        check_gradients(
            lambda a, b: (a * b).sum(),
            [np.random.rand(3, 4), np.random.rand(1)],
        )

    def test_getitem_rows(self):
        check_gradients(lambda a: a[1:3].sum(), [np.random.rand(5, 2)])

    def test_transpose(self):
        check_gradients(lambda a: (a.T @ a).sum(), [np.random.rand(3, 2)])

    def test_reshape(self):
        check_gradients(lambda a: (a.reshape(6) ** 2).sum(), [np.random.rand(2, 3)])


class TestReductions:
    def test_sum_all(self):
        check_gradients(lambda a: a.sum(), [np.random.rand(3, 4)])

    def test_sum_axis0(self):
        check_gradients(lambda a: (a.sum(axis=0) ** 2).sum(), [np.random.rand(3, 4)])

    def test_sum_axis1_keepdims(self):
        check_gradients(
            lambda a: (a.sum(axis=1, keepdims=True) ** 2).sum(), [np.random.rand(3, 4)]
        )

    def test_mean(self):
        check_gradients(lambda a: a.mean(), [np.random.rand(5)])

    def test_mean_axis(self):
        check_gradients(lambda a: (a.mean(axis=1) ** 2).sum(), [np.random.rand(3, 4)])

    def test_max_all(self):
        # Avoid ties for a clean numerical check.
        x = np.array([[1.0, 5.0], [2.0, 0.5]])
        check_gradients(lambda a: a.max(), [x])

    def test_max_axis(self):
        x = np.array([[1.0, 5.0, 3.0], [2.0, 0.5, 7.0]])
        check_gradients(lambda a: (a.max(axis=1) ** 2).sum(), [x])

    def test_max_tie_splits_gradient(self):
        x = Tensor(np.array([2.0, 2.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])


class TestNoGrad:
    def test_no_grad_disables_tape(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2
        assert not b.requires_grad
        assert b._parents == ()

    def test_grad_mode_restored(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_does_not_leak_across_threads(self):
        """The thread transport runs ranks as threads of one process:
        one rank evaluating under ``no_grad`` must not stop another
        rank's ops from recording."""
        inside, done = threading.Event(), threading.Event()
        seen = {}

        def evaluating():
            with no_grad():
                inside.set()
                done.wait(10)

        def training():
            inside.wait(10)
            seen["enabled"] = is_grad_enabled()
            w = Tensor(np.ones(3), requires_grad=True)
            (w * 2.0).sum().backward()
            seen["grad"] = w.grad
            done.set()

        threads = [threading.Thread(target=evaluating), threading.Thread(target=training)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert seen["enabled"] is True
        np.testing.assert_array_equal(seen["grad"], [2.0, 2.0, 2.0])

    def test_nesting_is_per_thread(self):
        """A thread starts with grad mode on whatever its parent is in,
        and its own nested scopes restore its own state."""
        seen = []

        def worker():
            seen.append(is_grad_enabled())
            with no_grad():
                with no_grad():
                    seen.append(is_grad_enabled())
                seen.append(is_grad_enabled())
            seen.append(is_grad_enabled())

        with no_grad():
            t = threading.Thread(target=worker)
            t.start()
            t.join(10)
            assert not t.is_alive()
            assert not is_grad_enabled()
        assert seen == [True, False, False, True]
        assert is_grad_enabled()


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 2))
        assert unbroadcast(g, (3, 2)) is g

    def test_sum_leading_axis(self):
        g = np.ones((5, 3))
        np.testing.assert_array_equal(unbroadcast(g, (3,)), np.full(3, 5.0))

    def test_sum_kept_axis(self):
        g = np.ones((4, 3))
        np.testing.assert_array_equal(unbroadcast(g, (1, 3)), np.full((1, 3), 4.0))

    def test_scalar_target(self):
        g = np.ones((2, 2))
        np.testing.assert_array_equal(unbroadcast(g, ()), np.array(4.0))
