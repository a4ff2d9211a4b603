"""Built-in invariant passes: dtype widths, metering, kernels, determinism.

Each pass encodes one repo law that was historically enforced only by
the test that failed after it broke:

``dtype-width``
    Scalar wire/storage widths flow through
    :func:`~repro.tensor.dtype.scalar_nbytes` / ``np.dtype(...).itemsize``
    — never a hard-coded ``4``/``8`` and never a bare
    ``np.float64``/``"float64"`` default.  The ``recv_timeout * 2`` and
    ``bytes_per_scalar = 4`` bugs of PRs 3/7 were both silent-constant
    bugs of exactly this shape.

``metering``
    Payload traffic flows through the :class:`~repro.dist.transport.ByteMeter`
    machinery: raw channel primitives (``conn.send`` / ``pipe.recv`` /
    ``SharedMemory``) are the endpoint layer's privilege
    (``# repro-lint: layer=endpoint``) — anywhere else they would move
    bytes the ledger never sees.

``kernel-purity``
    Split-operator SpMM stays in the :mod:`repro.tensor.kernels`
    layer: direct scipy matmuls on a
    :class:`~repro.tensor.sparse.SplitOperator`'s block attributes are
    the kernel layer's privilege (``# repro-lint: layer=kernels``).

``determinism``
    Seeded/metered regions stay reproducible and honestly timed: no
    legacy global-state ``np.random.*`` calls, no unseeded
    ``np.random.default_rng()``, and no wall-clock ``time.time()``
    (monotonic clocks only — wall clocks jump under NTP and DST).
"""

from __future__ import annotations

import ast
from typing import List

from .engine import Diagnostic, LintPass, SourceModule, register_pass

__all__ = [
    "DtypeWidthPass",
    "MeteringPass",
    "KernelPurityPass",
    "DeterminismPass",
]

#: Integer literals that smell like a scalar wire width.
_WIDTH_LITERALS = (4, 8)
#: Names whose assignment/keyword must never take a literal width.
_WIDTH_NAME_FRAGMENTS = ("bytes_per_scalar", "nbytes", "itemsize")
#: Operand text fragments that mark a multiplication as width-arithmetic.
_SIZEISH_FRAGMENTS = (
    "ndim", "size", "count", "len(", "fields", "scalars", "n_rows", "dim",
)
#: Float dtype literals that must route through resolve_dtype.
_FLOAT_DTYPE_ATTRS = ("float32", "float64")
_FLOAT_DTYPE_STRINGS = ("float32", "float64")


def _attr_chain(node: ast.AST) -> str:
    """Dotted text of a Name/Attribute chain ('' for anything else)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_float_dtype_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr in _FLOAT_DTYPE_ATTRS:
        return _attr_chain(node).startswith(("np.", "numpy."))
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in _FLOAT_DTYPE_STRINGS
    )


def _is_width_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and type(node.value) is int
        and node.value in _WIDTH_LITERALS
    )


class DtypeWidthPass(LintPass):
    rule = "dtype-width"
    title = "scalar widths derive from the dtype policy"
    description = (
        "hard-coded 4/8 byte constants and bare float32/float64 literals "
        "must route through scalar_nbytes()/resolve_dtype()"
    )

    _HINT_WIDTH = (
        "derive the width from the dtype policy: scalar_nbytes(dtype) for "
        "wire scalars, np.dtype(np.int64).itemsize for framing words"
    )
    _HINT_DTYPE = (
        "take dtype from resolve_dtype()/the configured run instead of a "
        "literal (define sanctioned constants once and suppress with a "
        "reason)"
    )

    def run(self, module: SourceModule) -> List[Diagnostic]:
        if module.has_layer("dtype-policy"):
            return []  # the policy module is where the widths live
        out: List[Diagnostic] = []
        for node in ast.walk(module.tree):
            out.extend(self._check_width_names(module, node))
            out.extend(self._check_width_arith(module, node))
            out.extend(self._check_dtype_literals(module, node))
        return out

    # -- literal 4/8 bound to a width-ish name --------------------------
    def _check_width_names(self, module, node):
        targets: List[str] = []
        value = None
        if isinstance(node, ast.Assign):
            targets = [_attr_chain(t) for t in node.targets]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [_attr_chain(node.target)]
            value = node.value
        elif isinstance(node, ast.keyword) and node.arg:
            targets = [node.arg]
            value = node.value
        if value is None or not _is_width_literal(value):
            return []
        for target in targets:
            name = target.rsplit(".", 1)[-1].lower()
            if any(frag in name for frag in _WIDTH_NAME_FRAGMENTS):
                return [self.diag(
                    module, value,
                    f"literal byte width {value.value} bound to "
                    f"{target!r} — widths must derive from the dtype",
                    self._HINT_WIDTH,
                )]
        return []

    # -- 4/8 multiplying a size-ish operand -----------------------------
    def _check_width_arith(self, module, node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            return []
        for literal, other in ((node.left, node.right),
                               (node.right, node.left)):
            if not _is_width_literal(literal):
                continue
            other_text = module.segment(other).lower()
            if any(frag in other_text for frag in _SIZEISH_FRAGMENTS):
                return [self.diag(
                    module, literal,
                    f"width-arithmetic with a literal {literal.value} "
                    f"(× {other_text.strip() or '<expr>'})",
                    self._HINT_WIDTH,
                )]
        return []

    # -- bare float dtype literals in defaults/dtype bindings -----------
    def _check_dtype_literals(self, module, node):
        out = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_float_dtype_literal(default):
                    out.append(self.diag(
                        module, default,
                        "float dtype literal as a parameter default",
                        self._HINT_DTYPE,
                    ))
        elif isinstance(node, ast.Assign):
            if _is_float_dtype_literal(node.value) and any(
                "dtype" in _attr_chain(t).lower() for t in node.targets
            ):
                out.append(self.diag(
                    module, node.value,
                    "float dtype literal assigned to a dtype binding",
                    self._HINT_DTYPE,
                ))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            # Covers dataclass field defaults like `dtype: str = "float64"`.
            if _is_float_dtype_literal(node.value):
                out.append(self.diag(
                    module, node.value,
                    "float dtype literal as an annotated default",
                    self._HINT_DTYPE,
                ))
        return out


class MeteringPass(LintPass):
    rule = "metering"
    title = "payload traffic flows through the byte meter"
    description = (
        "raw channel primitives (pipe/conn send/recv, SharedMemory) are "
        "the endpoint layer's privilege; anywhere else they bypass the "
        "ledger"
    )

    _CHANNEL_METHODS = ("send", "recv", "send_bytes", "recv_bytes", "poll")
    _CHANNEL_RECEIVERS = ("conn", "pipe", "sock", "channel")
    _RAW_CONSTRUCTORS = ("Pipe", "SharedMemory")
    _HINT = (
        "route payloads through Endpoint/Transport (which meter via "
        "ByteMeter); raw channels belong to files marked "
        "'# repro-lint: layer=endpoint'"
    )

    def run(self, module: SourceModule) -> List[Diagnostic]:
        if module.has_layer("endpoint"):
            return []
        out: List[Diagnostic] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver = _attr_chain(func.value).lower()
                receiver = receiver or module.segment(func.value).lower()
                if func.attr in self._CHANNEL_METHODS and any(
                    frag in receiver for frag in self._CHANNEL_RECEIVERS
                ):
                    out.append(self.diag(
                        module, node,
                        f"raw channel call {receiver}.{func.attr}() outside "
                        "the endpoint layer bypasses the byte meter",
                        self._HINT,
                    ))
                    continue
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if name in self._RAW_CONSTRUCTORS:
                out.append(self.diag(
                    module, node,
                    f"raw transport primitive {name}() constructed outside "
                    "the endpoint layer",
                    self._HINT,
                ))
        return out


class KernelPurityPass(LintPass):
    rule = "kernel-purity"
    title = "split-SpMM stays in the kernel layer"
    description = (
        "direct scipy matmuls on SplitOperator block attributes are the "
        "kernel layer's privilege; everything else dispatches via "
        "op.matmul()/op.rmatmul()"
    )

    #: Attribute names that identify a split-operator block.
    _BLOCK_ATTRS = (
        "fused_csr", "fused_csr_t", "boundary_csr",
    )
    _HINT = (
        "dispatch through the kernel layer (op.matmul / op.rmatmul); raw "
        "block matmuls belong to files marked '# repro-lint: layer=kernels'"
    )

    def _is_block_attr(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in self._BLOCK_ATTRS

    def run(self, module: SourceModule) -> List[Diagnostic]:
        if module.has_layer("kernels"):
            return []
        out: List[Diagnostic] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                for side in (node.left, node.right):
                    if self._is_block_attr(side):
                        out.append(self.diag(
                            module, node,
                            f"direct matmul on split block "
                            f"'.{side.attr}' outside the kernel layer",
                            self._HINT,
                        ))
                        break
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dot"
                and self._is_block_attr(node.func.value)
            ):
                out.append(self.diag(
                    module, node,
                    f"direct .dot() on split block "
                    f"'.{node.func.value.attr}' outside the kernel layer",
                    self._HINT,
                ))
        return out


class DeterminismPass(LintPass):
    rule = "determinism"
    title = "seeded regions stay seeded; clocks stay monotonic"
    description = (
        "no legacy global-state np.random.* calls, no stdlib "
        "random.* module-global calls, no unseeded default_rng(), "
        "no wall-clock time.time() in library code"
    )

    _LEGACY_RANDOM = (
        "rand", "randn", "randint", "random", "seed", "choice", "shuffle",
        "permutation", "normal", "uniform",
    )
    #: Stdlib ``random`` module-level functions share one hidden Mersenne
    #: state across every caller in the process — same reproducibility
    #: hazard as the numpy legacy API.  ``random.Random(seed)`` instances
    #: are fine (the chain then starts with the instance, not ``random``).
    _STDLIB_RANDOM = (
        "random", "seed", "randint", "randrange", "choice", "choices",
        "shuffle", "sample", "uniform", "gauss", "betavariate",
        "expovariate", "getrandbits", "random_bytes", "normalvariate",
    )
    _WALL_CLOCKS = ("time.time", "datetime.now", "datetime.datetime.now")
    _HINT_RNG = (
        "thread an explicit np.random.Generator (default_rng(seed)) "
        "through the call path"
    )
    _HINT_CLOCK = (
        "use time.perf_counter()/time.monotonic() — wall clocks jump "
        "under NTP/DST and break measured-seconds accounting"
    )

    def run(self, module: SourceModule) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain in ("np.random.default_rng", "numpy.random.default_rng"):
                if not node.args and not node.keywords:
                    out.append(self.diag(
                        module, node,
                        "unseeded np.random.default_rng() draws "
                        "irreproducible state",
                        self._HINT_RNG,
                    ))
            elif chain.startswith(("np.random.", "numpy.random.")):
                if chain.rsplit(".", 1)[-1] in self._LEGACY_RANDOM:
                    out.append(self.diag(
                        module, node,
                        f"global-state RNG call {chain}() — hidden, "
                        "process-wide, unseedable per run",
                        self._HINT_RNG,
                    ))
            elif chain.startswith("random.") and chain.count(".") == 1 \
                    and chain.rsplit(".", 1)[-1] in self._STDLIB_RANDOM:
                out.append(self.diag(
                    module, node,
                    f"stdlib module-global RNG call {chain}() — one "
                    "hidden Mersenne state shared process-wide",
                    "use a local random.Random(seed) instance (or the "
                    "numpy Generator already threaded through)",
                ))
            elif chain in self._WALL_CLOCKS:
                out.append(self.diag(
                    module, node,
                    f"wall-clock read {chain}() in library code",
                    self._HINT_CLOCK,
                ))
        return out


register_pass(DtypeWidthPass())
register_pass(MeteringPass())
register_pass(KernelPurityPass())
register_pass(DeterminismPass())
