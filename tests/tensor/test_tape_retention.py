"""The tape keeps only what the gradients of leaves need.

* An op on constants records no parents and no closure, so a
  forward-only chain is freed as soon as its consumer has run.
* Backward hands no gradient to a parent that needs none, and the 2-D
  matmul closure does not even compute it.
* After backward only leaves hold ``.grad``.
* Dropout keeps a bool mask and scales in a second multiply; the bytes
  equal the float-mask formula's, forward and backward.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.tensor.tensor as tensor_module
from repro.core import BoundaryNodeSampler, DistributedTrainer, PipelinedTrainer
from repro.nn import GraphSAGEModel
from repro.nn import functional as F
from repro.tensor import (
    SparseOp,
    Tensor,
    concat_cols,
    dropout,
    gather_concat,
    gather_rows,
    log_softmax,
    relu,
    spmm,
)

DTYPES = (np.float64, np.float32)


def const(shape=(4, 3), dtype=np.float64):
    return Tensor(np.random.default_rng(0).standard_normal(shape).astype(dtype))


def leaf(shape=(4, 3), dtype=np.float64):
    return Tensor(np.random.default_rng(1).standard_normal(shape).astype(dtype),
                  requires_grad=True)


def tape(out):
    """Every node reachable from ``out`` through recorded parents."""
    nodes, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


CONSTANT_OPS = {
    "add": lambda: const() + const((3,)),
    "mul": lambda: const() * 2.0,
    "matmul": lambda: const() @ const((3, 2)),
    "getitem": lambda: const()[1:3],
    "sum": lambda: const().sum(),
    "relu": lambda: relu(const()),
    "log_softmax": lambda: log_softmax(const()),
    "dropout": lambda: dropout(const(), 0.5, np.random.default_rng(0)),
    "gather_rows": lambda: gather_rows(const(), np.array([0, 2])),
    "gather_concat": lambda: gather_concat([(const(), None), (const(), np.array([1, 3]))]),
    "concat_cols": lambda: concat_cols([const(), const((4, 2))]),
    "spmm": lambda: spmm(SparseOp(sp.identity(4, format="csr")), const()),
    "cross_entropy": lambda: F.cross_entropy(const(), np.array([0, 2, 1, 0])),
    "chain": lambda: relu(spmm(SparseOp(sp.identity(4, format="csr")),
                               dropout(const(), 0.5, np.random.default_rng(0)))),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_OPS))
def test_op_on_constants_records_nothing(name):
    out = CONSTANT_OPS[name]()
    assert not out.requires_grad
    assert out._parents == ()
    assert out._backward is None


class TestNoGradientForConstants:
    def test_matmul_closure_skips_the_constant_operand(self):
        x, w = const((4, 3)), leaf((3, 2))
        out = x @ w
        g = np.ones((4, 2))
        (px, gx), (pw, gw) = out._backward(g)
        assert px is x and gx is None
        assert pw is w
        np.testing.assert_array_equal(gw, x.data.T @ g)

        out = w @ const((2, 5))
        (_, gw), (_, gc) = out._backward(np.ones((3, 5)))
        assert gw is not None and gc is None

    def test_backward_adds_no_gradient_to_a_constant_parent(self, monkeypatch):
        """A layer-0 shape: constant features through gather_concat,
        dropout and SpMM meet a weight; a second branch mixes a leaf
        with constants in add, mul, concat and gather_concat."""
        received = []
        add_grad = tensor_module._add_grad

        def recording(grads, owned, parent, contribution):
            received.append(parent)
            add_grad(grads, owned, parent, contribution)

        monkeypatch.setattr(tensor_module, "_add_grad", recording)
        a, b = const(), const((6, 3))
        h = gather_concat([(a, None), (b, np.array([1, 4]))])
        h = dropout(h, 0.5, np.random.default_rng(0))
        h = spmm(SparseOp(sp.random(6, 6, density=0.5, random_state=0, format="csr")), h)
        w, u = leaf((3, 2)), leaf((6, 3))
        mixed = gather_concat([(u, None), (const((2, 3)), None), (b, np.array([0]))])
        mixed = concat_cols([mixed * const((9, 3)) + const((3,)), const((9, 2))])
        loss = (relu(h @ w).sum() + mixed.sum()) * 0.5
        loss.backward()
        assert received and all(p.requires_grad for p in received)
        for node in tape(loss):
            assert node.requires_grad or (node._parents == () and node.grad is None)
        assert w.grad is not None and u.grad is not None


def _capture_loss(trainer):
    """Wrap the trainer's backward step to keep the epoch's loss tensor."""
    captured = []
    step = trainer._backward

    def backward(loss):
        captured.append(loss)
        step(loss)

    trainer._backward = backward
    return captured


@pytest.mark.parametrize("cls", (DistributedTrainer, PipelinedTrainer))
def test_trainer_epoch_tape_holds_only_gradient_nodes(small_graph, small_partition, cls):
    """After an epoch every recorded node requires a gradient, the
    constants it reads are bare leaves, and only leaves hold ``.grad``.
    Two epochs, so the pipelined trainer's second one reads stale
    blocks and adds ghost terms."""
    g = small_graph
    model = GraphSAGEModel(g.feature_dim, 8, g.num_classes, 3, 0.5,
                           np.random.default_rng(0), dtype="float64")
    trainer = cls(g, small_partition, model, BoundaryNodeSampler(0.5), lr=0.01, seed=0)
    captured = _capture_loss(trainer)
    for _ in range(2):
        trainer.train_epoch()
    params = {id(p) for p in model.parameters()}
    for loss in captured:
        nodes = tape(loss)
        recorded = [n for n in nodes if n._parents]
        assert recorded
        for node in nodes:
            if node._parents:
                assert node.requires_grad and node._backward is not None
                assert node.grad is None
            elif not node.requires_grad:
                assert node._backward is None and node.grad is None
        leaves = [n for n in nodes if n.requires_grad and not n._parents]
        assert params <= {id(n) for n in leaves}


# ----------------------------------------------------------------------
# Dropout: bool mask + scale == the float-mask formula, byte for byte
# ----------------------------------------------------------------------
KEEPS = (0.5, 0.9, 0.3, 1 / 3, 0.7)


def special_values(dtype):
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    neg_nan = np.copysign(np.array(np.nan, dtype=dtype), -1.0)
    return np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, neg_nan, tiny, -tiny, 3 * tiny,
         info.tiny, info.max, -info.max, 1.0, -2.5, 0.1, 1 / 3],
        dtype=dtype,
    )


def float_mask_dropout(x, g, rate, rng):
    """The formula the tape used before: an activation-sized float mask."""
    keep = 1.0 - rate
    mask = ((rng.random(x.shape) < keep) / keep).astype(x.dtype, copy=False)
    return x * mask, g * mask


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("g_dtype", DTYPES)
@pytest.mark.parametrize("keep", KEEPS)
def test_bool_mask_dropout_matches_float_mask_bytes(dtype, g_dtype, keep):
    values = special_values(dtype)
    x_data = np.tile(values, (24, 1))
    g_data = np.roll(np.tile(special_values(g_dtype), (24, 1)), 3, axis=1)
    rate = 1.0 - keep
    ref_rng = np.random.default_rng(7)
    want_out, want_grad = float_mask_dropout(x_data, g_data, rate, ref_rng)

    x = Tensor(x_data, requires_grad=True)
    rng = np.random.default_rng(7)
    out = dropout(x, rate, rng)
    assert same_bytes(out.data, want_out)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    (_, grad), = out._backward(g_data)
    assert same_bytes(grad, want_grad)
    # Every special value is both kept and dropped somewhere.
    kept = np.random.default_rng(7).random(x_data.shape) < keep
    assert kept.any(axis=0).all() and (~kept).any(axis=0).all()
