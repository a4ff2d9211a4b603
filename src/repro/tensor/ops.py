"""Elementwise, structural and neural-network ops on :class:`Tensor`.

Everything a GCN training stack needs beyond basic arithmetic lives
here: activations, row-wise softmax, dropout, row gather/scatter
(the communication primitives of partition-parallel training) and
segment reductions (the aggregation primitive of GAT).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, _index_grad, as_tensor

__all__ = [
    "exp",
    "log",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "dropout",
    "gather_rows",
    "scatter_rows",
    "segment_sum",
    "segment_softmax",
    "concat_rows",
    "gather_concat",
    "stack_mean",
]


def exp(x: Tensor) -> Tensor:
    """Elementwise e**x."""
    x = as_tensor(x)
    out_data = np.exp(x.data)

    def backward(g: np.ndarray):
        return ((x, g * out_data),)

    return Tensor._make(out_data, (x,), "exp", backward)


def log(x: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    x = as_tensor(x)
    out_data = np.log(x.data)

    def backward(g: np.ndarray):
        return ((x, g / x.data),)

    return Tensor._make(out_data, (x,), "log", backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    x = as_tensor(x)
    mask = x.data > 0
    out_data = np.where(mask, x.data, 0.0)

    def backward(g: np.ndarray):
        return ((x, g * mask),)

    return Tensor._make(out_data, (x,), "relu", backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """ReLU with a small slope for negative inputs (GAT's default)."""
    x = as_tensor(x)
    mask = x.data > 0
    out_data = np.where(mask, x.data, negative_slope * x.data)

    def backward(g: np.ndarray):
        # The factor in x's dtype: a float64 one would upcast fp32 grads.
        slope = np.where(mask, 1.0, negative_slope).astype(x.data.dtype, copy=False)
        return ((x, g * slope),)

    return Tensor._make(out_data, (x,), "leaky_relu", backward)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function."""
    x = as_tensor(x)
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g: np.ndarray):
        return ((x, g * out_data * (1.0 - out_data)),)

    return Tensor._make(out_data, (x,), "sigmoid", backward)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def backward(g: np.ndarray):
        return ((x, g * (1.0 - out_data ** 2)),)

    return Tensor._make(out_data, (x,), "tanh", backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return ((x, out_data * (g - dot)),)

    return Tensor._make(out_data, (x,), "softmax", backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed stably (used by cross-entropy)."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def backward(g: np.ndarray):
        return ((x, g - soft * g.sum(axis=axis, keepdims=True)),)

    return Tensor._make(out_data, (x,), "log_softmax", backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scale kept activations by ``1/(1-rate)``.

    The caller supplies the RNG so that experiments are reproducible
    end-to-end from a single seed.
    """
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    # The Bernoulli draw is dtype-independent (the RNG stream is shared
    # across precisions).  The tape keeps it as a bool mask, and the
    # scale is a second multiply in the tensor's dtype: ``(v·1)·s`` and
    # ``(v·0)·s`` are the bytes of ``v·(1/keep)`` and ``v·0`` — signed
    # zeros, infs and NaNs included — at an eighth of an fp64 mask.
    mask = rng.random(x.shape) < keep
    scale = x.data.dtype.type(1.0 / keep)
    out_data = x.data * mask
    out_data *= scale

    def backward(g: np.ndarray):
        # In the dtype ``g * float_mask`` had, even for a ``g`` narrower
        # than ``x``.
        pg = np.multiply(g, mask, dtype=np.result_type(g.dtype, x.data.dtype))
        pg *= scale
        return ((x, pg),)

    return Tensor._make(out_data, (x,), "dropout", backward)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``x[index]``; backward scatters gradients back.

    This is the forward half of a boundary-feature exchange: rank *j*
    gathers the rows rank *i* requested and ships them over.  Backward
    is the gradient exchange of the backward pass.
    """
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    out_data = x.data[index]

    def backward(g: np.ndarray):
        return ((x, _index_grad(x, index, g)),)

    return Tensor._make(out_data, (x,), "gather_rows", backward)


def scatter_rows(x: Tensor, index: np.ndarray, num_rows: int) -> Tensor:
    """Scatter-add rows of ``x`` into a ``(num_rows, d)`` zero matrix.

    ``out[index[k]] += x[k]``.  Dual of :func:`gather_rows`.
    """
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    out_data = np.zeros((num_rows,) + x.shape[1:], dtype=x.data.dtype)
    np.add.at(out_data, index, x.data)

    def backward(g: np.ndarray):
        return ((x, g[index]),)

    return Tensor._make(out_data, (x,), "scatter_rows", backward)


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` that share a segment id (scatter-add reduce)."""
    return scatter_rows(x, segment_ids, num_segments)


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over entries sharing a segment id.

    Used by GAT to normalise attention logits over each destination
    node's incident edges.  ``scores`` is 1-D (one logit per edge).
    """
    scores = as_tensor(scores)
    if scores.ndim != 1:
        raise ValueError("segment_softmax expects a 1-D score tensor")
    ids = np.asarray(segment_ids, dtype=np.int64)

    # Numerically stable: subtract per-segment max (constant wrt grad).
    seg_max = np.full(num_segments, -np.inf, dtype=scores.data.dtype)
    np.maximum.at(seg_max, ids, scores.data)
    shifted = scores.data - seg_max[ids]
    e = np.exp(shifted)
    denom = np.zeros(num_segments, dtype=e.dtype)
    np.add.at(denom, ids, e)
    out_data = e / denom[ids]

    def backward(g: np.ndarray):
        # d softmax_i / d score_j = s_i (δ_ij - s_j) within each segment
        weighted = np.zeros(num_segments, dtype=out_data.dtype)
        np.add.at(weighted, ids, g * out_data)
        return ((scores, out_data * (g - weighted[ids])),)

    return Tensor._make(out_data, (scores,), "segment_softmax", backward)


def gather_concat(blocks: Sequence[Tuple[Tensor, Optional[np.ndarray]]]) -> Tensor:
    """Stack ``x`` (``rows=None``) or ``x[rows]`` of each ``(x, rows)``
    block along axis 0.

    One op for the feature matrix a partition-parallel rank builds per
    layer: its own block over the boundary rows fetched from each owner.
    Backward hands a whole block its slice of the gradient and a
    gathered block a row-indexed one, so a fetch costs no scatter of
    its own.
    """
    tensors = [as_tensor(t) for t, _rows in blocks]
    rows = [None if r is None else np.asarray(r, dtype=np.int64) for _t, r in blocks]
    parts = [t.data if r is None else t.data[r] for t, r in zip(tensors, rows)]
    out_data = np.concatenate(parts, axis=0)
    offsets = np.cumsum([0] + [len(p) for p in parts])

    def backward(g: np.ndarray):
        grads = []
        for k, (t, r) in enumerate(zip(tensors, rows)):
            block = g[offsets[k]:offsets[k + 1]]
            grads.append((t, block if r is None else _index_grad(t, r, block)))
        return grads

    return Tensor._make(out_data, tuple(tensors), "gather_concat", backward)


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 0 (row blocks).

    The partition-parallel trainer uses this to stitch the inner-node
    block and the received boundary block into one feature matrix.
    """
    return gather_concat([(t, None) for t in tensors])


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 1 (feature blocks).

    GraphSAGE's update step concatenates the aggregated neighbour
    feature with the node's own feature before the linear transform.
    """
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[1] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=1)
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        return tuple(
            (t, g[:, offsets[k]:offsets[k + 1]]) for k, t in enumerate(tensors)
        )

    return Tensor._make(out_data, tuple(tensors), "concat_cols", backward)


def stack_mean(tensors: Sequence[Tensor]) -> Tensor:
    """Mean of same-shaped tensors; the AllReduce-average primitive."""
    tensors = [as_tensor(t) for t in tensors]
    n = len(tensors)
    out_data = sum(t.data for t in tensors) / n

    def backward(g: np.ndarray):
        return tuple((t, g / n) for t in tensors)

    return Tensor._make(out_data, tuple(tensors), "stack_mean", backward)


__all__.append("concat_cols")
