"""The split-operator SpMM kernel.

The split-form product ``rowscale ⊙ (P_in @ H_in + P_bd·colscale @
H_bd)`` is the hot loop of every sampled epoch.  It runs as one fused
pass per direction: the inner and boundary blocks are merged once per
operator into a single CSR whose values already carry ``col_scale`` and
``row_scale`` (:func:`merge_split_csr`, one O(nnz) pass, cached on the
operator), so every forward is exactly one sparse pass — no ``h_bd``
copy, no post-hoc row rescale, no second ``out +=`` accumulation.  The
backward runs one pass over the cached transpose of the same merged
matrix.

:class:`KernelBackend` is that kernel, exposing two primitives —

* ``split_spmm_forward(op, h)``  → ``P_eff @ h``
* ``split_spmm_backward(op, g)`` → ``P_eff.T @ g``

``SplitOperator.matmul``/``rmatmul`` call them on the active backend.
A subclass registered with :func:`register_backend` and scoped with
:func:`use_backend` (or named as a trainer's ``kernel_backend=``) can
wrap the kernel, which is how ``benchmarks/e2e`` times SpMM.
"""
# repro-lint: layer=kernels — this module IS the kernel layer the
# kernel-purity pass protects; raw matmuls on SplitOperator blocks are
# legal here and nowhere else.

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Optional, Union

import numpy as np
import scipy.sparse as sp

__all__ = [
    "KernelBackend",
    "get_backend",
    "merge_split_csr",
    "register_backend",
    "resolve_backend",
    "use_backend",
]


def merge_split_csr(
    inner: sp.csr_matrix,
    boundary_csr: Optional[sp.csr_matrix],
    row_scale: Optional[np.ndarray],
    col_scale: Optional[Union[float, np.ndarray]],
) -> sp.csr_matrix:
    """One-pass merge of the split blocks into a scale-folded CSR.

    Builds ``rowscale ⊙ [inner | boundary·colscale]`` directly from the
    blocks' CSR arrays — a single allocation and one vectorised pass
    over the nonzeros, instead of the hstack + two diagonal products a
    naive materialisation costs.  Within each row the inner entries
    precede the boundary entries, and both blocks keep their sorted
    column order, so the result has canonical (sorted, deduplicated)
    CSR structure.
    """
    if boundary_csr is None:
        if row_scale is None:
            return inner
        out = inner.copy()
        out.data = inner.data * np.repeat(row_scale, np.diff(inner.indptr))
        return out
    a, b = inner, boundary_csr
    n_rows = a.shape[0]
    ca = np.diff(a.indptr).astype(np.int64)
    cb = np.diff(b.indptr).astype(np.int64)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(ca + cb, out=indptr[1:])
    # Destination slot of every source entry: each row's inner entries
    # land at the row's start, its boundary entries right after them.
    dest_a = np.arange(a.indices.size, dtype=np.int64) + np.repeat(
        indptr[:-1] - a.indptr[:-1], ca
    )
    dest_b = np.arange(b.indices.size, dtype=np.int64) + np.repeat(
        indptr[:-1] + ca - b.indptr[:-1], cb
    )
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    indices[dest_a] = a.indices
    indices[dest_b] = b.indices.astype(np.int64) + a.shape[1]
    da = a.data
    db = b.data
    if col_scale is not None:
        if np.ndim(col_scale) == 0:
            db = db * b.data.dtype.type(col_scale)
        else:
            db = db * np.asarray(col_scale, dtype=b.data.dtype)[b.indices]
    if row_scale is not None:
        da = da * np.repeat(row_scale, ca)
        db = db * np.repeat(row_scale, cb)
    data = np.empty(int(indptr[-1]), dtype=a.data.dtype)
    data[dest_a] = da
    data[dest_b] = db
    return sp.csr_matrix(
        (data, indices, indptr), shape=(n_rows, a.shape[1] + b.shape[1])
    )


# ----------------------------------------------------------------------
# The kernel and its registry
# ----------------------------------------------------------------------
class KernelBackend:
    """The fused kernel: one sparse pass per direction over the
    operator's merged CSR.

    The merge (:func:`merge_split_csr`) folds both scale vectors into
    the stored values and is cached on the operator, so the steady
    state — every layer of every epoch reusing the same plan — costs
    exactly one scipy CSR·dense product.  ``op`` is a
    :class:`~repro.tensor.sparse.SplitOperator` (duck-typed — this
    module never imports the operator class) and the operand a raw
    ndarray.
    """

    name: str = "numpy"

    def split_spmm_forward(self, op, h: np.ndarray) -> np.ndarray:
        return op.fused_csr @ h

    def split_spmm_backward(self, op, g: np.ndarray) -> np.ndarray:
        return op.fused_csr_t @ g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry (later names shadow earlier)."""
    _REGISTRY[backend.name] = backend
    return backend


def resolve_backend(
    spec: Union[None, str, KernelBackend] = None
) -> KernelBackend:
    """``None`` → the current backend; a name → registry lookup; a
    backend instance passes through."""
    if spec is None:
        return get_backend()
    if isinstance(spec, KernelBackend):
        return spec
    try:
        return _REGISTRY[spec]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {spec!r}; registered: "
            + ", ".join(_REGISTRY)
        ) from None


def get_backend() -> KernelBackend:
    """The currently active backend: the innermost :func:`use_backend`
    scope on this thread, else the fused kernel."""
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else _default


@contextlib.contextmanager
def use_backend(spec: Union[None, str, KernelBackend]):
    """Scope a backend change to the current thread.

    The override nests and is thread-local, so concurrent rank threads
    each carry their own scope.
    """
    backend = resolve_backend(spec)
    stack = _tls.__dict__.setdefault("stack", [])
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()


_default = register_backend(KernelBackend())
_tls = threading.local()
