"""Row-indexed gradients on the tape: bit-exactness and aliasing.

``Tensor.backward`` adds a closure's ``(key, values)`` gradient in place
into a buffer it owns.  The reference below is the algorithm it
replaced: every indexed gradient scattered with ``np.add.at`` into
zeros, every contribution summed out of place.  Random small tapes must
give every leaf the same gradient bytes under both — signed zeros
included — leave every intermediate without a ``.grad``, and
``backward()`` must write into no array it did not allocate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.tensor import Tensor, concat_rows, gather_concat, gather_rows, relu

#: Signed zeros on purpose: ``0.0 + v`` and ``v`` differ only at -0.0.
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0])
DTYPES = (np.float64, np.float32)


def reference_grads(out, seed):
    """The tape's walk with the out-of-place accumulation rule."""
    topo, visited, stack = [], set(), [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    grads = {id(out): np.asarray(seed, dtype=out.data.dtype)}
    result = {}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            result[id(node)] = np.array(g, dtype=node.data.dtype, copy=True)
        if node._backward is None:
            continue
        for parent, pg in node._backward(g):
            if pg is None:
                continue
            if isinstance(pg, tuple):
                key, values = pg
                pg = np.zeros_like(parent.data)
                np.add.at(pg, key, values)
            pid = id(parent)
            grads[pid] = grads[pid] + pg if pid in grads else pg
    return result


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def tapes(draw):
    """A random tape over (n, d) tensors; returns (tensors, out, seed)."""
    dtype = draw(st.sampled_from(DTYPES))
    other = draw(st.sampled_from(DTYPES))  # == dtype unless the tape mixes
    d = draw(st.integers(1, 3))

    def array(shape, dt):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(VALUES, min_size=n, max_size=n)), dtype=dt).reshape(shape)

    def leaf():
        return Tensor(array((draw(st.integers(1, 5)), d), dtype), requires_grad=True)

    def rows(n, kind):
        if kind == "sorted":
            return np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
        if kind == "unsorted":
            perm = draw(st.permutations(range(n)))
            return np.array(perm[:draw(st.integers(1, n))])
        return np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6)))

    pool = [leaf() for _ in range(draw(st.integers(1, 3)))]
    num_leaves = len(pool)
    biases = []
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(
            ["gather", "slice", "fused", "concat", "double", "bias", "relu", "scale", "cast"]
        ))
        t = draw(st.sampled_from(pool))
        n = t.shape[0]
        if op == "gather":
            new = gather_rows(t, rows(n, draw(st.sampled_from(["sorted", "unsorted", "dup"]))))
        elif op == "slice":
            a = draw(st.integers(0, n - 1))
            new = t[a:draw(st.integers(a + 1, n))]
        elif op == "fused":
            blocks = []
            for u in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)):
                kind = draw(st.sampled_from([None, "sorted", "sorted", "unsorted", "dup"]))
                blocks.append((u, None if kind is None else rows(u.shape[0], kind)))
            new = gather_concat(blocks)
        elif op == "concat":
            new = concat_rows(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
        elif op == "double":
            new = t + t
        elif op == "bias":
            biases.append(Tensor(array((d,), other), requires_grad=True))
            new = t + biases[-1]
        elif op == "relu":
            new = relu(t)
        elif op == "scale":
            new = t * draw(VALUES)
        else:
            new = t.astype(other)
        pool.append(new)
    # Every op feeds the output, so every accumulation path is walked.
    out = concat_rows(pool[num_leaves:])
    return pool + biases, out, array(out.shape, out.dtype)


class TestIndexedTape:
    @given(tapes())
    @settings(max_examples=300, deadline=None)
    def test_grads_match_reference_byte_for_byte(self, tape):
        tensors, out, seed = tape
        want = reference_grads(out, seed)
        datas = [t.data.copy() for t in tensors]
        seed_before = seed.copy()
        out.backward(seed)
        assert same_bytes(seed, seed_before)
        for t, data in zip(tensors, datas):
            assert same_bytes(t.data, data)
            if t._backward is None and id(t) in want:
                assert same_bytes(t.grad, want[id(t)])
            else:  # .grad is kept on leaves only
                assert t.grad is None

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_row_pick_is_indexed_and_exact(self, dtype):
        """cross-entropy's ``lp[(rows, labels)]`` names one element per
        row, so its gradient is row-indexed; repeated rows fall back."""
        x = Tensor(np.array([[0.0, -1.0, 2.0], [-0.0, 1.0, 0.5]], dtype=dtype),
                   requires_grad=True)
        for rows, cols in (([0, 1], [2, 0]), ([1, 1], [0, 0])):
            key = (np.array(rows), np.array(cols))
            picked = x[key]
            g = np.array([-0.0, 3.0], dtype=dtype)
            (_, grad), = picked._backward(g)
            assert isinstance(grad, tuple) == (rows == sorted(set(rows)))
        loss = F.cross_entropy(x, np.array([2, 0]), reduction="sum")
        want = reference_grads(loss, np.ones((), dtype=dtype))
        loss.backward()
        assert same_bytes(x.grad, want[id(x)])

    def test_signed_zero_of_a_dense_sum_is_cleared_by_an_indexed_add(self):
        """``x + x`` sums two -0.0 into -0.0; the reference then adds a
        zero-filled scatter, which turns every -0.0 into +0.0."""
        x = Tensor(np.ones((3, 1)), requires_grad=True)
        out = concat_rows([x + x, gather_rows(x, np.array([1]))])
        out.backward(np.array([[-0.0], [-0.0], [-0.0], [5.0]]))
        assert same_bytes(x.grad, np.array([[0.0], [5.0], [0.0]]))

    def test_one_gradient_array_fed_to_two_parents_is_never_written(self):
        """``add`` hands one ``g`` to both operands; a later indexed
        gradient into either must not leak into the other."""
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        y = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = concat_rows([x + y, gather_rows(x, np.array([0, 2]))])
        seed = np.arange(10, dtype=np.float64).reshape(5, 2)
        out.backward(seed)
        np.testing.assert_array_equal(seed, np.arange(10).reshape(5, 2))
        np.testing.assert_array_equal(y.grad, [[0, 1], [2, 3], [4, 5]])
        np.testing.assert_array_equal(x.grad, [[6, 8], [2, 3], [12, 14]])
