"""Reverse-mode automatic differentiation on numpy arrays.

This module is the substrate that replaces PyTorch's autograd in the
BNS-GCN reproduction.  A :class:`Tensor` wraps an ``np.ndarray`` and
records the operations applied to it on a dynamic tape; calling
:meth:`Tensor.backward` on a scalar result walks the tape in reverse
topological order and accumulates gradients into every leaf created
with ``requires_grad=True``.

The tape keeps only what those leaf gradients need:

* ``.grad`` is kept on leaves only.  An intermediate's gradient lives
  for one backward pass and is dropped once its closure has run, as in
  PyTorch.
* An op whose inputs all have ``requires_grad=False`` records no
  parents and no closure, so a forward-only chain of constants is freed
  as soon as its consumer has run.
* The walk descends only into parents that require a gradient, and a
  closure may return ``None`` for a parent that needs none (the 2-D
  matmul skips the product for a constant operand).

Recording is switched off per thread by :class:`no_grad`.

The design follows the "define-by-run" style: each op constructs the
output tensor eagerly and attaches a closure that knows how to push the
output's gradient back to its parents.  Gradients are plain numpy
arrays (never Tensors), so the engine is first-order only — exactly
what GCN training needs.

A closure receives the output's gradient ``g`` and returns one
``(parent, grad)`` pair per parent, where ``grad`` is one of:

* ``None`` — no gradient for that parent;
* an array of the parent's shape — added to the parent's gradient.  The
  tape may hold it by reference and never writes into it, so views of
  ``g`` and one ``g`` handed to several parents are fine;
* ``(key, values)`` — a row-indexed gradient meaning "add ``values`` at
  ``parent[key]``".  ``key`` is a basic slice or an integer index with
  distinct entries.  The tape adds it in place into a buffer it owns, so
  gathering a few rows of a large tensor costs no full-size zero buffer
  and no ``np.add.at`` scatter; the bytes equal that scatter's.

Broadcasting is fully supported: gradients flowing into a broadcast
operand are summed over the broadcast axes by :func:`unbroadcast`.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .dtype import DTYPES, get_default_dtype, resolve_dtype

__all__ = ["Tensor", "unbroadcast", "as_tensor", "no_grad", "is_grad_enabled"]

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


class _GradMode(threading.local):
    """Per-thread grad mode: the thread-based transport runs every rank
    in one process, and one rank inside :class:`no_grad` must not stop
    its siblings' ops from recording."""

    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager that disables tape recording on this thread.

    Used for evaluation passes so that inference does not build (and
    hold onto) an autograd graph.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _grad_mode.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new ops are currently recorded on this thread."""
    return _grad_mode.enabled


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the
    incoming gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _index_grad(x: "Tensor", key, g: np.ndarray):
    """The gradient of ``x[key]`` given ``g``.

    A key that names every element at most once — a slice, or integer
    index arrays whose first is strictly increasing (a row gather, or
    cross-entropy's one pick per row) — gives a row-indexed gradient the
    tape adds in place.  Any other key may repeat elements (GAT's edge
    gathers do), so ``np.add.at`` scatters it.
    """
    if isinstance(key, slice):
        return (key, g)
    arrays = key if isinstance(key, tuple) else (key,)
    if (
        arrays
        and all(
            isinstance(a, np.ndarray) and a.dtype.kind in "iu" and a.ndim == 1
            and a.shape == arrays[0].shape
            for a in arrays
        )
        and np.all(arrays[0][1:] > arrays[0][:-1])
    ):
        return (key, g)
    full = np.zeros_like(x.data)
    np.add.at(full, key, g)
    return full


def _add_grad(grads: dict, owned: dict, parent: "Tensor", contribution) -> None:
    """Add one closure's ``contribution`` into ``grads[id(parent)]``.

    ``owned`` maps the ids whose buffer this backward pass allocated —
    the only arrays it ever writes in place — to whether that buffer is
    free of ``-0.0``.  Every path gives the bytes of the out-of-place
    reference, where ``(key, values)`` is first scattered with
    ``np.add.at`` into zeros: ``0.0 + v`` equals ``v`` except that it
    turns ``-0.0`` into ``+0.0``, so ``acc[key] += values`` matches only
    on a buffer holding no ``-0.0``.  ``zeros_like`` holds none,
    ``a + 0.0`` clears them, and a sum with one such operand makes none.
    """
    pid = id(parent)
    acc = grads.get(pid)
    if type(contribution) is tuple:
        key, values = contribution
        data = parent.data
        if values.dtype == data.dtype and (
            acc is None or (acc.dtype == data.dtype and acc.shape == data.shape)
        ):
            if acc is None:
                acc = np.zeros_like(data)
            elif pid not in owned:
                acc = acc + 0.0
            elif not owned[pid]:
                acc += 0.0
            acc[key] += values
            grads[pid], owned[pid] = acc, True
            return
        # Mixed precision: scatter out of place, as the reference does.
        contribution = np.zeros_like(data)
        np.add.at(contribution, key, values)
    if acc is None:
        grads[pid] = contribution
    elif (
        pid in owned
        and isinstance(contribution, np.ndarray)
        and contribution.dtype == acc.dtype
        and contribution.shape == acc.shape
    ):
        acc += contribution
    else:
        grads[pid] = acc + contribution
        owned[pid] = owned.get(pid, False)


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to ``np.ndarray``.  Float arrays that are
        already float32 or float64 keep their dtype; everything else
        floating lands on the module default
        (:func:`~repro.tensor.dtype.get_default_dtype`, float64 unless
        changed).  Integer arrays are kept as-is (they cannot require
        gradients).
    requires_grad:
        If True, a leaf accumulates its gradient into :attr:`grad`
        during :meth:`backward` (an op's output gets this flag from its
        inputs and keeps no ``.grad``).
    dtype:
        Optional explicit float dtype (float32/float64); overrides both
        the array's dtype and the module default.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=None,
        _parents: Tuple["Tensor", ...] = (),
        _op: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        # Explicitly-dtyped numpy arrays/scalars keep their
        # float32/float64; python lists/scalars (which numpy coerces to
        # float64) follow the module default — the PyTorch convention.
        from_ndarray = isinstance(data, (np.ndarray, np.generic))
        arr = np.asarray(data)
        if arr.dtype.kind in ("i", "u", "b"):
            if requires_grad:
                raise ValueError("integer tensors cannot require gradients")
            if dtype is not None:
                arr = arr.astype(resolve_dtype(dtype))
        elif dtype is not None:
            target = resolve_dtype(dtype)
            if arr.dtype != target:
                arr = arr.astype(target)
        elif arr.dtype not in DTYPES or not from_ndarray:
            target = get_default_dtype()
            if arr.dtype != target:
                arr = arr.astype(target)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = _parents
        self._op: str = _op

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Differentiable cast to float32/float64 (no-op if already)."""
        target = resolve_dtype(dtype)
        if self.data.dtype == target:
            return self
        out_data = self.data.astype(target)

        def backward(g: np.ndarray):
            return ((self, g.astype(self.data.dtype)),)

        return Tensor._make(out_data, (self,), "astype", backward)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op or 'leaf'}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph bookkeeping
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this leaf's ``.grad`` buffer."""
        if self.grad is None:
            # Accumulate in the tensor's own dtype: an fp32 parameter
            # must not grow an fp64 gradient (the optimizer would
            # silently upcast it on the first step).
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (the tensor must be scalar in that
        case, matching the usual loss.backward() idiom).  Only leaves
        that require a gradient receive ``.grad``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar tensor"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
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
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        owned: dict[int, bool] = {}  # see _add_grad
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            owned.pop(id(node), None)
            if node._backward is None:
                if node.requires_grad:
                    node._accumulate(g)
                continue
            for parent, pg in node._backward(g):
                if pg is not None and parent.requires_grad:
                    _add_grad(grads, owned, parent, pg)

    # ------------------------------------------------------------------
    # Op construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        op: str,
        backward: Callable[[np.ndarray], Iterable[Tuple["Tensor", object]]],
    ) -> "Tensor":
        if not (_grad_mode.enabled and any(p.requires_grad for p in parents)):
            return Tensor(data, _op=op)
        out = Tensor(data, requires_grad=True, _parents=tuple(parents), _op=op)
        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _operand(self, other: ArrayLike) -> "Tensor":
        """Coerce a binary-op operand to a Tensor.

        Python/numpy *scalars* adopt this tensor's dtype (PyTorch-style
        weak scalars): ``fp32_tensor * 0.5`` stays fp32 instead of
        being promoted through a float64 0-d array.  Proper arrays keep
        numpy's ordinary promotion rules.
        """
        if isinstance(other, Tensor):
            return other
        arr = np.asarray(other)
        if arr.ndim == 0 and arr.dtype.kind in "fiu" and self.data.dtype.kind == "f":
            return Tensor(arr.astype(self.data.dtype))
        return Tensor(arr)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray):
            return (
                (self, unbroadcast(g, self.shape)),
                (other, unbroadcast(g, other.shape)),
            )

        return Tensor._make(out_data, (self, other), "add", backward)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data - other.data

        def backward(g: np.ndarray):
            return (
                (self, unbroadcast(g, self.shape)),
                (other, unbroadcast(-g, other.shape)),
            )

        return Tensor._make(out_data, (self, other), "sub", backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray):
            return (
                (self, unbroadcast(g * other.data, self.shape)),
                (other, unbroadcast(g * self.data, other.shape)),
            )

        return Tensor._make(out_data, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray):
            return (
                (self, unbroadcast(g / other.data, self.shape)),
                (other, unbroadcast(-g * self.data / (other.data ** 2), other.shape)),
            )

        return Tensor._make(out_data, (self, other), "div", backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other) / self

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray):
            return ((self, -g),)

        return Tensor._make(-self.data, (self,), "neg", backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(g: np.ndarray):
            return ((self, g * exponent * self.data ** (exponent - 1)),)

        return Tensor._make(out_data, (self,), "pow", backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray):
            if self.data.ndim == 1 and other.data.ndim == 1:
                return ((self, g * other.data), (other, g * self.data))
            if self.data.ndim == 1:
                # (k,) @ (k, n) -> (n,)
                return ((self, g @ other.data.T), (other, np.outer(self.data, g)))
            if other.data.ndim == 1:
                # (m, k) @ (k,) -> (m,)
                return ((self, np.outer(g, other.data)), (other, self.data.T @ g))
            return (
                (self, g @ other.data.T if self.requires_grad else None),
                (other, self.data.T @ g if other.requires_grad else None),
            )

        return Tensor._make(out_data, (self, other), "matmul", backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            g_arr = np.asarray(g)
            if axis is None:
                expanded = np.broadcast_to(g_arr, self.shape)
            else:
                if not keepdims:
                    g_arr = np.expand_dims(g_arr, axis)
                expanded = np.broadcast_to(g_arr, self.shape)
            return ((self, expanded.copy()),)

        return Tensor._make(out_data, (self,), "sum", backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            g_arr = np.asarray(g)
            out = out_data
            if axis is not None and not keepdims:
                g_arr = np.expand_dims(g_arr, axis)
                out = np.expand_dims(out, axis)
            mask = (self.data == out).astype(self.data.dtype)
            # Split gradient evenly among ties to keep the op well-defined.
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return ((self, g_arr * mask / denom),)

        return Tensor._make(out_data, (self,), "max", backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(g: np.ndarray):
            return ((self, g.reshape(old_shape)),)

        return Tensor._make(out_data, (self,), "reshape", backward)

    @property
    def T(self) -> "Tensor":
        def backward(g: np.ndarray):
            return ((self, g.T),)

        return Tensor._make(self.data.T, (self,), "transpose", backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(g: np.ndarray):
            return ((self, _index_grad(self, key, g)),)

        return Tensor._make(out_data, (self,), "getitem", backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
