"""Autograd substrate: numpy-backed tensors, ops, sparse matmul, init."""

from .dtype import (
    DTYPES,
    default_dtype,
    float_dtype_for_nbytes,
    float_dtype_like,
    get_default_dtype,
    resolve_dtype,
    scalar_nbytes,
    set_default_dtype,
)
from .tensor import Tensor, as_tensor, no_grad, is_grad_enabled, unbroadcast
from .ops import (
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
    stack_mean,
    tanh,
)
from . import kernels
from .kernels import (
    KernelBackend,
    get_backend,
    register_backend,
    resolve_backend,
    use_backend,
)
from .sparse import SparseOp, SplitOperator, spmm
from .init import make_rng, xavier_normal, xavier_uniform, kaiming_uniform, zeros
from .heap import retain_freed_pages

retain_freed_pages()

__all__ = [
    "DTYPES",
    "default_dtype",
    "float_dtype_for_nbytes",
    "float_dtype_like",
    "get_default_dtype",
    "resolve_dtype",
    "scalar_nbytes",
    "set_default_dtype",
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
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
    "concat_cols",
    "stack_mean",
    "kernels",
    "KernelBackend",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "use_backend",
    "SparseOp",
    "SplitOperator",
    "spmm",
    "make_rng",
    "xavier_uniform",
    "xavier_normal",
    "kaiming_uniform",
    "zeros",
]
