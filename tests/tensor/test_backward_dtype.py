"""Every op's backward hands each parent a gradient in that parent's
dtype.  At float32 a float64 gradient would not fail: the tape would
carry it, upcasting every op above it, and cast it back only at the
leaves.  So each closure on the tape is called directly and its outputs
are checked one by one.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import functional as F
from repro.tensor import (
    SparseOp,
    SplitOperator,
    Tensor,
    concat_cols,
    concat_rows,
    dropout,
    exp,
    gather_concat,
    gather_rows,
    leaky_relu,
    log,
    log_softmax,
    relu,
    scatter_rows,
    segment_softmax,
    segment_sum,
    sigmoid,
    softmax,
    spmm,
    stack_mean,
    tanh,
)

F32 = np.float32
ROWS = np.array([0, 2, 3])
DUP = np.array([3, 0, 3])


def x(shape=(4, 3), positive=False):
    data = np.random.default_rng(0).standard_normal(shape)
    return Tensor(np.abs(data) + 0.5 if positive else data, dtype=F32, requires_grad=True)


def csr(shape):
    return sp.random(*shape, density=0.5, random_state=0, format="csr", dtype=np.float64)


OPS = {
    "add": lambda: x() + x((3,)),
    "sub": lambda: x() - x((1, 3)),
    "mul": lambda: x() * x((3,)),
    "div": lambda: x() / x((3,), positive=True),
    "neg": lambda: -x(),
    "pow": lambda: x(positive=True) ** 1.5,
    "matmul": lambda: x() @ x((3, 2)),
    "matvec": lambda: x() @ x((3,)),
    "sum": lambda: x().sum(axis=0),
    "mean": lambda: x().mean(),
    "max": lambda: x().max(axis=1),
    "reshape": lambda: x().reshape(3, 4),
    "transpose": lambda: x().T,
    "getitem_slice": lambda: x()[1:3],
    "getitem_pick": lambda: x()[(np.arange(4), np.array([0, 2, 1, 0]))],
    "getitem_mask": lambda: x()[np.array([True, False, True, True])],
    "astype": lambda: x().astype(np.float64),
    "exp": lambda: exp(x()),
    "log": lambda: log(x(positive=True)),
    "relu": lambda: relu(x()),
    "leaky_relu": lambda: leaky_relu(x()),
    "sigmoid": lambda: sigmoid(x()),
    "tanh": lambda: tanh(x()),
    "softmax": lambda: softmax(x()),
    "log_softmax": lambda: log_softmax(x()),
    "dropout": lambda: dropout(x(), 0.5, np.random.default_rng(0)),
    "gather_rows": lambda: gather_rows(x(), ROWS),
    "gather_rows_dup": lambda: gather_rows(x(), DUP),
    "scatter_rows": lambda: scatter_rows(x(), np.array([1, 0, 1, 2]), 3),
    "segment_sum": lambda: segment_sum(x(), np.array([1, 0, 1, 2]), 3),
    "segment_softmax": lambda: segment_softmax(x((5,)), np.array([0, 0, 1, 1, 1]), 2),
    "concat_rows": lambda: concat_rows([x(), x((2, 3))]),
    "gather_concat": lambda: gather_concat([(x(), None), (x(), ROWS), (x(), DUP)]),
    "concat_cols": lambda: concat_cols([x(), x((4, 2))]),
    "stack_mean": lambda: stack_mean([x(), x()]),
    "spmm": lambda: spmm(SparseOp(csr((2, 4)), dtype=F32), x()),
    "spmm_split": lambda: spmm(
        SplitOperator(csr((2, 2)).astype(F32), csr((2, 2)).astype(F32), col_scale=2.0),
        x(),
    ),
    "cross_entropy": lambda: F.cross_entropy(x(), np.array([0, 2, 1, 0])),
    "bce_with_logits": lambda: F.bce_with_logits(x(), np.ones((4, 3))),
}


def tape(out):
    nodes, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("name", sorted(OPS))
def test_backward_returns_input_dtype_at_fp32(name):
    out = OPS[name]()
    closures = [node for node in tape(out) if node._backward is not None]
    assert closures, "op recorded nothing on the tape"
    for node in closures:
        g = np.ones_like(node.data)
        for parent, grad in node._backward(g):
            if grad is None:
                continue
            values = grad[1] if isinstance(grad, tuple) else np.asarray(grad)
            assert values.dtype == parent.data.dtype, (node._op, parent.data.dtype)
