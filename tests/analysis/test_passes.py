"""Fixture snippets per pass: a violating snippet must produce the
expected diagnostic (rule id + line), and its clean twin must be
silent.  This is the acceptance proof that each registered pass
actually catches the invariant it claims to."""

import textwrap

import pytest

from repro.analysis.engine import SourceModule, get_passes, run_passes


def lint(source, rules):
    """Run the selected passes over one dedented snippet."""
    mod = SourceModule.from_source(textwrap.dedent(source))
    return run_passes([mod], get_passes(rules))


def lines(found):
    return [d.line for d in found]


class TestDtypeWidth:
    RULE = ["dtype-width"]

    def test_literal_width_binding_flagged(self):
        found = lint(
            """
            bytes_per_scalar = 8
            """,
            self.RULE,
        )
        assert [d.rule for d in found] == ["dtype-width"]
        assert lines(found) == [2]

    def test_width_keyword_flagged(self):
        found = lint("meter = ByteMeter(4, nbytes=8)\n", self.RULE)
        assert len(found) == 1
        assert "nbytes" in found[0].message

    def test_width_arithmetic_flagged(self):
        found = lint("n = 8 * arr.ndim + payload\n", self.RULE)
        assert len(found) == 1
        assert "width-arithmetic" in found[0].message

    def test_dtype_literal_default_flagged(self):
        found = lint(
            """
            import numpy as np
            def f(x, dtype=np.float64):
                return x
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "parameter default" in found[0].message

    def test_annotated_dataclass_default_flagged(self):
        found = lint(
            """
            class Task:
                dtype: str = "float64"
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "annotated default" in found[0].message

    def test_clean_twin_silent(self):
        found = lint(
            """
            import numpy as np
            from repro.tensor.dtype import scalar_nbytes
            _I64 = np.dtype(np.int64).itemsize
            def f(x, dtype=None):
                nbytes = scalar_nbytes(dtype)
                return _I64 * x.ndim + nbytes
            """,
            self.RULE,
        )
        assert found == []

    def test_dtype_policy_layer_exempt(self):
        found = lint(
            """
            # repro-lint: layer=dtype-policy
            bytes_per_scalar = 8
            """,
            self.RULE,
        )
        assert found == []


class TestMetering:
    RULE = ["metering"]

    def test_raw_conn_send_flagged(self):
        found = lint("conn.send(payload)\n", self.RULE)
        assert [d.rule for d in found] == ["metering"]

    def test_raw_constructor_flagged(self):
        found = lint(
            """
            from multiprocessing import Pipe
            a, b = Pipe()
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "Pipe()" in found[0].message

    def test_endpoint_layer_exempt(self):
        found = lint(
            """
            # repro-lint: layer=endpoint
            conn.send(payload)
            """,
            self.RULE,
        )
        assert found == []

    def test_metered_send_clean(self):
        # Transport-level sends (self.comm.send) are the metering plane,
        # not a raw channel — must stay silent.
        found = lint("self.comm.send(dst, count, tag)\n", self.RULE)
        assert found == []


class TestKernelPurity:
    RULE = ["kernel-purity"]

    def test_block_matmul_flagged(self):
        found = lint("out = op.fused_csr @ h\n", self.RULE)
        assert [d.rule for d in found] == ["kernel-purity"]
        assert "fused_csr" in found[0].message

    def test_block_dot_flagged(self):
        found = lint("out = op.boundary_csr.dot(h)\n", self.RULE)
        assert len(found) == 1

    def test_kernels_layer_exempt(self):
        found = lint(
            """
            # repro-lint: layer=kernels
            out = op.fused_csr @ h
            """,
            self.RULE,
        )
        assert found == []

    def test_dispatched_matmul_clean(self):
        found = lint("out = op.matmul(h)\n", self.RULE)
        assert found == []


class TestDiscardedResult:
    RULE = ["discarded-result"]

    def test_discarded_event_wait_flagged(self):
        found = lint(
            """
            def join(self, timeout):
                self._done.wait(timeout)
            """,
            self.RULE,
        )
        assert [d.rule for d in found] == ["discarded-result"]

    def test_timed_join_without_is_alive_flagged(self):
        found = lint(
            """
            def close(self):
                thread.join(2.0)
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "is_alive" in found[0].message

    def test_timed_join_with_is_alive_clean(self):
        found = lint(
            """
            def close(self):
                thread.join(2.0)
                if thread.is_alive():
                    raise RuntimeError("stuck")
            """,
            self.RULE,
        )
        assert found == []

    def test_consumed_wait_clean(self):
        found = lint(
            """
            def join(self, timeout):
                return self._done.wait(timeout)
            """,
            self.RULE,
        )
        assert found == []

    def test_untimed_join_clean(self):
        # join() with no timeout blocks forever — nothing to discard.
        found = lint(
            """
            def close(self):
                thread.join()
            """,
            self.RULE,
        )
        assert found == []


class TestBlockingInLock:
    RULE = ["blocking-in-lock"]

    def test_recv_under_lock_flagged(self):
        found = lint(
            """
            with self.lock:
                data = conn.recv_bytes()
            """,
            self.RULE,
        )
        assert [d.rule for d in found] == ["blocking-in-lock"]

    def test_waiver_on_with_line_silences_block(self):
        found = lint(
            """
            with self.lock:  # repro-lint: ignore[blocking-in-lock]
                data = conn.recv_bytes()
            """,
            self.RULE,
        )
        assert found == []

    def test_waiver_on_comment_above_silences_block(self):
        found = lint(
            """
            # repro-lint: ignore[blocking-in-lock] — bounded backstop
            with self.lock:
                data = conn.recv_bytes()
            """,
            self.RULE,
        )
        assert found == []

    def test_non_lock_context_clean(self):
        found = lint(
            """
            with open(path) as fh:
                data = fh.read()
            """,
            self.RULE,
        )
        assert found == []

    def test_pure_compute_under_lock_clean(self):
        found = lint(
            """
            with self.lock:
                total = total + 1
            """,
            self.RULE,
        )
        assert found == []


class TestDeterminism:
    RULE = ["determinism"]

    def test_unseeded_default_rng_flagged(self):
        found = lint(
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
            self.RULE,
        )
        assert [d.rule for d in found] == ["determinism"]
        assert "unseeded" in found[0].message

    def test_legacy_global_rng_flagged(self):
        found = lint(
            """
            import numpy as np
            x = np.random.rand(3)
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "global-state" in found[0].message

    def test_wall_clock_flagged(self):
        found = lint(
            """
            import time
            t0 = time.time()
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "wall-clock" in found[0].message

    def test_stdlib_module_global_random_flagged(self):
        found = lint(
            """
            import random
            random.seed(0)
            x = random.random()
            """,
            self.RULE,
        )
        assert [d.rule for d in found] == ["determinism"] * 2
        assert all("Mersenne" in d.message for d in found)
        assert lines(found) == [3, 4]

    def test_stdlib_random_instance_clean(self):
        found = lint(
            """
            import random
            rng = random.Random(seed)
            x = rng.random()
            """,
            self.RULE,
        )
        assert found == []

    def test_clean_twin_silent(self):
        found = lint(
            """
            import time
            import numpy as np
            rng = np.random.default_rng(seed)
            t0 = time.perf_counter()
            """,
            self.RULE,
        )
        assert found == []


@pytest.mark.parametrize("rule", [
    "dtype-width", "metering", "kernel-purity", "discarded-result",
    "blocking-in-lock", "determinism",
    # Flow-sensitive (CFG) rule — fixtures in test_flow_passes.py.
    "lifecycle",
])
def test_every_registered_pass_has_a_fixture_class(rule):
    """Meta-check: the parametrised rule list above must cover exactly
    the registered passes, so adding a pass without fixtures fails."""
    from repro.analysis.engine import pass_names
    assert rule in pass_names()


def test_no_registered_pass_lacks_fixtures():
    from repro.analysis.engine import pass_names
    covered = {
        "dtype-width", "metering", "kernel-purity", "discarded-result",
        "blocking-in-lock", "determinism",
        "lifecycle",
    }
    assert set(pass_names()) == covered
