"""The dtype policy of the numeric stack (fp32 / fp64).

Every float that the library creates — tensors, sparse operator
blocks, gradients, optimiser moments, wire payloads — is governed by
one module-level default plus per-object overrides, so a whole run can
be flipped between float64 (the numerically-robust default that the
gradient checks and 1e-9 equivalence suites pin down) and float32 (half
the memory, ~2× SpMM throughput, half the wire bytes).

The same policy is what makes the communication ledger *honest*:
:func:`scalar_nbytes` is the single source of a scalar's wire size, so
a transport meters exactly what it ships (``np.dtype(d).itemsize``),
instead of assuming 4-byte scalars while pickling 8-byte payloads.

The default can be pre-set for a whole process with the ``REPRO_DTYPE``
environment variable (``float32`` or ``float64``) — that is how the CI
float32 job re-runs the equivalence suites at reduced precision — or
switched at runtime with :func:`set_default_dtype` /
:class:`default_dtype`.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

__all__ = [
    "DTYPES",
    "default_dtype",
    "float_dtype_for_nbytes",
    "float_dtype_like",
    "get_default_dtype",
    "resolve_dtype",
    "scalar_nbytes",
    "set_default_dtype",
]

DTypeLike = Union[str, type, np.dtype]

#: The floating-point dtypes the stack supports end to end.
DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _validate(dtype: DTypeLike) -> np.dtype:
    d = np.dtype(dtype)
    if d not in DTYPES:
        raise ValueError(
            f"unsupported dtype {d!r}; supported: "
            + ", ".join(str(x) for x in DTYPES)
        )
    return d


_default: np.dtype = _validate(os.environ.get("REPRO_DTYPE", "float64"))


def get_default_dtype() -> np.dtype:
    """The module-level default float dtype (float64 unless changed)."""
    return _default


def set_default_dtype(dtype: DTypeLike) -> np.dtype:
    """Set the module-level default; returns the previous default."""
    global _default
    previous = _default
    _default = _validate(dtype)
    return previous


class default_dtype:
    """Context manager scoping a default-dtype change.

    >>> with default_dtype(np.float32):
    ...     t = Tensor([1.0, 2.0])  # float32
    """

    def __init__(self, dtype: DTypeLike) -> None:
        self._dtype = _validate(dtype)

    def __enter__(self) -> np.dtype:
        self._previous = set_default_dtype(self._dtype)
        return self._dtype

    def __exit__(self, *exc) -> None:
        set_default_dtype(self._previous)


def resolve_dtype(dtype: Optional[DTypeLike] = None) -> np.dtype:
    """``None`` → the module default; anything else is validated."""
    if dtype is None:
        return _default
    return _validate(dtype)


def float_dtype_like(dtype: DTypeLike) -> np.dtype:
    """Keep a supported float dtype; map everything else (ints, bools,
    half floats) to the module default."""
    d = np.dtype(dtype)
    return d if d in DTYPES else _default


def scalar_nbytes(dtype: Optional[DTypeLike] = None) -> int:
    """Wire/storage bytes of one scalar of ``dtype`` (default dtype if
    omitted) — the single source of every ``bytes_per_scalar``."""
    return resolve_dtype(dtype).itemsize


def float_dtype_for_nbytes(nbytes: int) -> np.dtype:
    """The float dtype whose scalar width is ``nbytes`` (inverse of
    :func:`scalar_nbytes`; widths without a float map to float64)."""
    for d in DTYPES:
        if d.itemsize == nbytes:
            return d
    return np.dtype(np.float64)
