"""Shared test utilities: numerical gradient checking and tiny graphs."""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np
import scipy.sparse as sp

from repro.tensor import Tensor


def numerical_grad(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    wrt: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn wrt inputs[wrt]."""
    base = [np.array(x, dtype=np.float64) for x in inputs]
    grad = np.zeros_like(base[wrt])
    it = np.nditer(base[wrt], flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = base[wrt][idx]
        base[wrt][idx] = orig + eps
        plus = fn(*[Tensor(x) for x in base]).item()
        base[wrt][idx] = orig - eps
        minus = fn(*[Tensor(x) for x in base]).item()
        base[wrt][idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    atol: float = 1e-6,
    rtol: float = 1e-5,
) -> None:
    """Assert autograd gradients match central differences for every input."""
    tensors = [Tensor(np.array(x, dtype=np.float64), requires_grad=True) for x in inputs]
    out = fn(*tensors)
    out.backward()
    for i, t in enumerate(tensors):
        expected = numerical_grad(fn, inputs, wrt=i)
        got = t.grad if t.grad is not None else np.zeros_like(expected)
        np.testing.assert_allclose(
            got, expected, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch for input {i}",
        )


def tagged_pairwise(comm) -> Dict[str, np.ndarray]:
    """Record ``comm``'s point-to-point sends from now on as one
    ``(m, m)`` byte matrix per tag (``[src, dst]``); returns the live
    dict the matrices accumulate into."""
    m = comm.num_parts
    per_tag: Dict[str, np.ndarray] = {}
    send = comm.send

    def recording(src, dst, num_scalars, tag):
        nbytes = send(src, dst, num_scalars, tag)
        per_tag.setdefault(tag, np.zeros((m, m), dtype=np.int64))[src, dst] += nbytes
        return nbytes

    comm.send = recording
    return per_tag


def assert_backward_mirrors_forward(per_tag: Dict[str, np.ndarray], dims) -> None:
    """Gradients retrace the forward path at every layer but the first
    (layer 0's input is data): per pair,
    ``backward[i→j] · Σ_{ℓ<L} d_ℓ == forward[j→i] · Σ_{1≤ℓ<L} d_ℓ``."""
    forward = per_tag["forward"]
    backward = per_tag.get("backward", np.zeros_like(forward))
    assert forward.any()
    np.testing.assert_array_equal(
        backward * sum(dims[:-1]), forward.T * sum(dims[1:-1])
    )


def ring_graph(n: int) -> sp.csr_matrix:
    """Symmetric ring adjacency: node i ~ i±1 (mod n)."""
    rows = np.arange(n)
    cols = (rows + 1) % n
    data = np.ones(n)
    upper = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    adj = (upper + upper.T).tocsr()
    adj.data[:] = 1.0
    return adj


def grid_graph(rows: int, cols: int) -> sp.csr_matrix:
    """4-neighbour grid adjacency."""
    n = rows * cols
    r, c = [], []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                r.append(v)
                c.append(v + 1)
            if i + 1 < rows:
                r.append(v)
                c.append(v + cols)
    upper = sp.coo_matrix((np.ones(len(r)), (r, c)), shape=(n, n))
    adj = (upper + upper.T).tocsr()
    adj.data[:] = 1.0
    return adj
