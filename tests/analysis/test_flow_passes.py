"""Seeded-violation fixtures for the flow-sensitive passes.

Per the acceptance bar each CFG rule gets a violating snippet that must
produce the expected rule at the expected line, and a clean twin that
must stay silent — including the twins that are only clean because the
analysis is flow-, escape- and exception-aware (try/finally, ownership
transfer, catch-all handlers).
"""

import textwrap

import pytest

from repro.analysis.engine import SourceModule, get_passes, run_passes


def lint(source, rules):
    mod = SourceModule.from_source(textwrap.dedent(source))
    return run_passes([mod], get_passes(rules))


def lines(found):
    return [d.line for d in found]


class TestLifecycle:
    RULE = ["lifecycle"]

    def test_branch_that_skips_close_flagged(self):
        found = lint(
            """
            def f(cond):
                shm = SharedMemory(create=True, size=64)
                if cond:
                    return None
                shm.close()
                shm.unlink()
            """,
            self.RULE,
        )
        assert [d.rule for d in found] == ["lifecycle"]
        assert lines(found) == [3]  # reported at the acquisition site

    def test_exceptional_exit_that_skips_close_flagged(self):
        found = lint(
            """
            def f():
                shm = SharedMemory(create=True, size=64)
                shm.buf[0] = header()  # may raise -> cleanup skipped
                shm.close()
                shm.unlink()
            """,
            self.RULE,
        )
        assert lines(found) == [3]
        assert "exceptional" in found[0].message

    def test_try_finally_clean(self):
        found = lint(
            """
            def f():
                shm = SharedMemory(create=True, size=64)
                try:
                    fill(shm)
                finally:
                    shm.close()
                    shm.unlink()
            """,
            self.RULE,
        )
        assert found == []

    def test_with_statement_clean(self):
        found = lint(
            """
            def f():
                with SharedMemory(create=True, size=64) as shm:
                    fill(shm)
            """,
            self.RULE,
        )
        assert found == []

    def test_escape_transfers_ownership_clean(self):
        found = lint(
            """
            def f(registry):
                a, b = Pipe(duplex=True)
                registry.append(a)
                return b
            """,
            self.RULE,
        )
        assert found == []

    def test_pipe_end_never_closed_flagged(self):
        found = lint(
            """
            def f():
                a, b = Pipe(duplex=True)
                a.close()
            """,
            self.RULE,
        )
        # `b` never reaches close() and never escapes.
        assert len(found) == 1
        assert "'b'" in found[0].message

    def test_attach_must_not_unlink_flagged(self):
        found = lint(
            """
            def worker(name):
                shm = SharedMemory(name=name, track=False)
                try:
                    value = shm.buf[0]
                finally:
                    shm.close()
                shm.unlink()
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "creator-owns-unlink" in found[0].message
        assert lines(found) == [8]

    def test_chained_attach_unlink_flagged(self):
        found = lint(
            """
            def sweep(name):
                SharedMemory(name=name).unlink()
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "creator-owns-unlink" in found[0].message

    def test_attach_close_only_clean(self):
        found = lint(
            """
            def worker(name):
                ring = _ShmRing.attach(name)
                use(ring)
                ring.close()
            """,
            self.RULE,
        )
        assert found == []

    def test_bare_acquire_without_release_flagged(self):
        found = lint(
            """
            def f(lock):
                lock.acquire()
                work()
            """,
            self.RULE,
        )
        assert len(found) == 1
        assert "held-lock" in found[0].message

    def test_acquire_release_pair_clean(self):
        found = lint(
            """
            def f(lock):
                lock.acquire()
                try:
                    work()
                finally:
                    lock.release()
            """,
            self.RULE,
        )
        assert found == []

    def test_mutation_between_bare_acquire_and_release_flagged(self):
        found = lint(
            """
            def f(self, lock, value):
                lock.acquire()
                self.table[0] = value
                self.count += 1
                lock.release()
            """,
            self.RULE,
        )
        assert [d.rule for d in found] == ["lifecycle"]
        assert lines(found) == [3]  # anchored at the acquire
        assert "held-lock" in found[0].message
        assert "exceptional" in found[0].message

    def test_mutation_under_try_finally_clean(self):
        found = lint(
            """
            def f(self, lock, value):
                lock.acquire()
                try:
                    self.table[0] = value
                finally:
                    lock.release()
            """,
            self.RULE,
        )
        assert found == []

    def test_with_lock_clean(self):
        found = lint(
            """
            def f(self, lock, value):
                with lock:
                    self.table[0] = value
            """,
            self.RULE,
        )
        assert found == []

    def test_read_only_critical_section_flagged(self):
        # No mutation to strand, but the subscript can raise before the
        # release: the lock itself is lost on that path.
        found = lint(
            """
            def f(self, lock):
                lock.acquire()
                value = self.table[0]
                lock.release()
                return value
            """,
            self.RULE,
        )
        assert lines(found) == [3]
        assert "held-lock" in found[0].message

    @pytest.mark.parametrize("source, expected", [
        pytest.param("""
            def f(self, lock, v):
                lock.acquire()
                try:
                    self.x = v
                except ValueError:
                    pass
                lock.release()
            """, [3], id="specific-except"),
        pytest.param("""
            def f(self, lock, v):
                lock.acquire()
                self.x = v
            """, [3], id="no-release"),
        pytest.param("""
            def f(self, lock, items):
                for it in items:
                    lock.acquire()
                    self.d[it] = 1
                    lock.release()
            """, [4], id="loop"),
        pytest.param("""
            def f(self, a, b, v):
                a.acquire()
                b.acquire()
                self.x = v
                b.release()
                a.release()
            """, [3, 4], id="two-locks"),
        pytest.param("""
            def f(self, lock, k):
                lock.acquire()
                del self.d[k]
                lock.release()
            """, [3], id="del"),
        pytest.param("""
            def f(self, lock, v):
                lock.acquire()
                try:
                    self.x = v
                except BaseException:
                    lock.release()
                    raise
                lock.release()
            """, [], id="catch-all-releases"),
        # Only locks bound to local names are tracked.
        pytest.param("""
            def f(self, v):
                self.lock.acquire()
                self.x = v
                self.lock.release()
            """, [], id="attribute-lock"),
    ])
    def test_held_lock_shapes(self, source, expected):
        found = lint(source, self.RULE)
        assert lines(found) == expected
        assert all("held-lock" in d.message for d in found)

    def test_waiver_suppresses(self):
        found = lint(
            """
            def sweep(name):
                # justified: creator-side atexit backstop
                # repro-lint: ignore[lifecycle]
                SharedMemory(name=name).unlink()
            """,
            self.RULE,
        )
        assert found == []


class TestFlowPassesOnRealTree:
    def test_src_is_clean(self):
        """The acceptance bar: the flow pass runs over the real tree
        with zero findings (each real one fixed or waived inline)."""
        from pathlib import Path

        from repro.analysis.lint import run_lint

        root = Path(__file__).resolve().parents[2]
        found = run_lint(
            root, ["src"],
            select=["lifecycle"],
        )
        assert found == []
