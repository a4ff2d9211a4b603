"""Loss functions and related functional utilities."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, as_tensor, log_softmax
from ..tensor import ops as T

__all__ = [
    "cross_entropy",
    "nll_loss",
    "bce_with_logits",
    "masked_rows",
    "task_loss",
    "loss_denominator",
]


def cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    reduction: str = "mean",
) -> Tensor:
    """Softmax cross-entropy for integer class labels.

    Parameters
    ----------
    logits:
        ``(n, num_classes)`` raw scores.
    labels:
        ``(n,)`` integer class ids.
    reduction:
        "mean", "sum" or "none".
    """
    labels = np.asarray(labels, dtype=np.int64)
    lp = log_softmax(logits, axis=-1)
    rows = np.arange(labels.shape[0])
    picked = lp[(rows, labels)]
    loss = -picked
    return _reduce(loss, reduction)


def nll_loss(log_probs: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood given precomputed log-probabilities."""
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.arange(labels.shape[0])
    loss = -log_probs[(rows, labels)]
    return _reduce(loss, reduction)


def bce_with_logits(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Numerically stable binary cross-entropy with logits.

    Used for the multilabel Yelp-style task (micro-F1 metric).
    Implements ``max(x,0) - x*t + log(1 + exp(-|x|))`` elementwise.
    """
    logits = as_tensor(logits)
    # Targets follow the logits dtype (fp32 logits keep an fp32 loss path).
    t = np.asarray(targets, dtype=logits.data.dtype)
    x = logits.data
    out_data = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))

    def backward(g: np.ndarray):
        # d/dx = sigmoid(x) - t
        return ((logits, g * (1.0 / (1.0 + np.exp(-x)) - t)),)

    loss = Tensor._make(out_data, (logits,), "bce_with_logits", backward)
    return _reduce(loss, reduction)


def task_loss(
    logits: Tensor, labels: np.ndarray, multilabel: bool, reduction: str = "mean"
) -> Tensor:
    """The training loss of the node-classification task head: BCE with
    logits on the multilabel (Yelp-style) task, softmax cross-entropy
    otherwise.  Every trainer picks its loss here."""
    loss_fn = bce_with_logits if multilabel else cross_entropy
    return loss_fn(logits, labels, reduction=reduction)


def loss_denominator(graph) -> int:
    """What the ``reduction="sum"`` task losses of all ranks add up to
    before dividing to the ``"mean"`` one: the training-node count,
    times the label count on the multilabel task (BCE averages over
    every (node, label) pair)."""
    per_node = graph.labels.shape[1] if graph.multilabel else 1
    return int(graph.train_mask.sum()) * per_node


def masked_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """Select the rows where ``mask`` is True (e.g. the train split)."""
    idx = np.nonzero(np.asarray(mask))[0]
    return T.gather_rows(x, idx)


def _reduce(loss: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")
