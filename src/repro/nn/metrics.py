"""Evaluation metrics.

The paper reports test accuracy on Reddit / ogbn-products and micro-F1
on the multilabel Yelp task (where micro-F1 over {0,1} predictions is
the standard GraphSAINT protocol).  Macro-F1, per-class breakdowns and
the confusion matrix are provided for error analysis beyond the
paper's headline numbers.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..tensor import Tensor, no_grad
from .module import module_dtype

__all__ = [
    "task_metric",
    "evaluate_full_graph",
    "accuracy",
    "f1_micro_multilabel",
    "f1_macro_multilabel",
    "f1_micro_multiclass",
    "f1_macro_multiclass",
    "confusion_matrix",
    "per_class_accuracy",
]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy for integer-labelled multiclass outputs."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.shape[0] != labels.shape[0]:
        raise ValueError("logits and labels disagree on the number of rows")
    if logits.shape[0] == 0:
        return float("nan")
    pred = logits.argmax(axis=1)
    return float((pred == labels).mean())


def f1_micro_multilabel(logits: np.ndarray, targets: np.ndarray, threshold: float = 0.0) -> float:
    """Micro-averaged F1 for multilabel outputs.

    Predictions are ``logits > threshold`` (threshold 0 on logits is
    sigmoid > 0.5).  Micro-F1 pools TP/FP/FN over all (node, label)
    pairs before computing F1.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets).astype(bool)
    pred = logits > threshold
    tp = np.logical_and(pred, targets).sum()
    fp = np.logical_and(pred, ~targets).sum()
    fn = np.logical_and(~pred, targets).sum()
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return float(2 * tp / denom)


def task_metric(logits: np.ndarray, labels: np.ndarray, multilabel: bool) -> float:
    """The headline metric of the task head: micro-F1 on the multilabel
    task, top-1 accuracy otherwise."""
    if multilabel:
        return f1_micro_multilabel(logits, labels)
    return accuracy(logits, labels)


def evaluate_full_graph(
    model, graph, forward: Callable[[Tensor], Tensor]
) -> Dict[str, float]:
    """The evaluation protocol every trainer shares: unsampled
    full-graph inference in eval mode with no tape, scored per split.

    ``forward`` maps the full feature matrix — handed over in the
    *model's* dtype, so an fp32 model is never fed fp64 features — to
    logits; the model is back in train mode on return.
    """
    model.eval()
    with no_grad():
        features = Tensor(graph.features, dtype=module_dtype(model))
        logits = forward(features).numpy()
    model.train()
    splits = {"train": graph.train_mask, "val": graph.val_mask, "test": graph.test_mask}
    return {
        split: task_metric(logits[mask], graph.labels[mask], graph.multilabel)
        for split, mask in splits.items()
    }


def f1_macro_multilabel(
    logits: np.ndarray, targets: np.ndarray, threshold: float = 0.0
) -> float:
    """Macro-averaged F1 for multilabel outputs.

    F1 is computed per label and averaged; labels absent from both
    predictions and targets contribute an F1 of 0 (the conservative
    sklearn ``zero_division=0`` convention).
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets).astype(bool)
    pred = logits > threshold
    tp = np.logical_and(pred, targets).sum(axis=0).astype(np.float64)
    fp = np.logical_and(pred, ~targets).sum(axis=0)
    fn = np.logical_and(~pred, targets).sum(axis=0)
    denom = 2 * tp + fp + fn
    f1 = np.divide(2 * tp, denom, out=np.zeros_like(tp), where=denom > 0)
    return float(f1.mean()) if f1.size else 0.0


def f1_micro_multiclass(logits: np.ndarray, labels: np.ndarray) -> float:
    """For single-label multiclass problems micro-F1 equals accuracy."""
    return accuracy(logits, labels)


def confusion_matrix(
    logits: np.ndarray, labels: np.ndarray, num_classes: int = None
) -> np.ndarray:
    """``(num_classes, num_classes)`` counts, rows = true class."""
    logits = np.asarray(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.shape[0] != labels.shape[0]:
        raise ValueError("logits and labels disagree on the number of rows")
    if num_classes is None:
        num_classes = logits.shape[1]
    pred = logits.argmax(axis=1)
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (labels, pred), 1)
    return mat


def f1_macro_multiclass(logits: np.ndarray, labels: np.ndarray) -> float:
    """Macro-averaged one-vs-rest F1 from the confusion matrix."""
    mat = confusion_matrix(logits, labels)
    tp = np.diag(mat).astype(np.float64)
    fp = mat.sum(axis=0) - tp
    fn = mat.sum(axis=1) - tp
    denom = 2 * tp + fp + fn
    f1 = np.divide(2 * tp, denom, out=np.zeros_like(tp), where=denom > 0)
    # Average over classes that actually occur in the labels.
    present = mat.sum(axis=1) > 0
    if not present.any():
        return float("nan")
    return float(f1[present].mean())


def per_class_accuracy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Recall of each class (NaN for classes absent from ``labels``)."""
    mat = confusion_matrix(logits, labels)
    totals = mat.sum(axis=1).astype(np.float64)
    correct = np.diag(mat).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, correct / totals, np.nan)
