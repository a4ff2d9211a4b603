"""Engine mechanics: diagnostics, registry, suppressions."""

import pytest

from repro.analysis.engine import (
    Diagnostic,
    LintPass,
    SourceModule,
    collect_modules,
    get_passes,
    pass_names,
    run_passes,
)


class TestDiagnostic:
    def test_format_includes_location_rule_and_hint(self):
        d = Diagnostic(path="a.py", line=3, col=4, rule="dtype-width",
                       message="boom", hint="use scalar_nbytes")
        out = d.format()
        assert "a.py:3:5" in out
        assert "[dtype-width]" in out
        assert "use scalar_nbytes" in out


class TestRegistry:
    def test_builtin_passes_registered(self):
        names = pass_names()
        # The ISSUE's six invariants, plus blocking-in-lock.
        for rule in ("dtype-width", "metering", "kernel-purity",
                     "discarded-result", "blocking-in-lock",
                     "determinism"):
            assert rule in names
        assert len(names) >= 6

    def test_get_passes_selection_and_unknown(self):
        selected = get_passes(["dtype-width", "blocking-in-lock"])
        assert [p.rule for p in selected] == [
            "dtype-width", "blocking-in-lock",
        ]
        # Object protocols are enforced by the endpoint and transport
        # themselves, not by a lint pass; a lock released on every
        # path is `lifecycle`'s held-lock row.
        for name in ("no-such-rule", "typestate", "lock-order",
                     "exception-safety"):
            with pytest.raises(KeyError, match="unknown lint pass"):
                get_passes([name])

    def test_repeated_id_selects_its_pass_once(self):
        selected = get_passes(
            ["dtype-width", "determinism", "dtype-width"]
        )
        assert [p.rule for p in selected] == ["dtype-width", "determinism"]

    def test_passes_have_titles_and_rule_ids(self):
        for p in get_passes():
            assert p.rule and p.rule != "base"
            assert p.title


class TestSourceModule:
    def test_layer_marker_parsed(self):
        mod = SourceModule.from_source(
            "# repro-lint: layer=endpoint\nx = 1\n"
        )
        assert mod.has_layer("endpoint")
        assert not mod.has_layer("kernels")

    def test_same_line_suppression(self):
        mod = SourceModule.from_source(
            "x = 1  # repro-lint: ignore[dtype-width]\n"
        )
        assert mod.is_suppressed(1, "dtype-width")
        assert not mod.is_suppressed(1, "metering")

    def test_bare_ignore_waives_every_rule(self):
        mod = SourceModule.from_source("x = 1  # repro-lint: ignore\n")
        assert mod.is_suppressed(1, "dtype-width")
        assert mod.is_suppressed(1, "anything")

    def test_comment_line_marker_anchors_to_next_code_line(self):
        mod = SourceModule.from_source(
            "# repro-lint: ignore[blocking-in-lock] — bounded poll\n"
            "# (continued rationale)\n"
            "with self.lock:\n"
            "    pass\n"
        )
        assert mod.is_suppressed(3, "blocking-in-lock")
        assert not mod.is_suppressed(1, "blocking-in-lock")


class _FlagEveryAssign(LintPass):
    rule = "test-assign"
    title = "test pass"

    def run(self, module):
        import ast
        return [
            self.diag(module, node, "assign")
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Assign)
        ]


class TestRunPasses:
    def test_suppression_filters_centrally(self):
        mod = SourceModule.from_source(
            "a = 1\nb = 2  # repro-lint: ignore[test-assign]\n"
        )
        found = run_passes([mod], [_FlagEveryAssign()])
        assert [d.line for d in found] == [1]

    def test_findings_sorted_by_location(self):
        mods = [
            SourceModule.from_source("a = 1\n", path="b.py"),
            SourceModule.from_source("a = 1\n", path="a.py"),
        ]
        found = run_passes(mods, [_FlagEveryAssign()])
        assert [d.path for d in found] == ["a.py", "b.py"]


class TestCollectModules:
    def test_collects_only_python_under_targets(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "a.py").write_text("x = 1\n")
        (tmp_path / "src" / "b.txt").write_text("not python\n")
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "c.py").write_text("y = 2\n")
        mods = collect_modules(tmp_path, ["src", "missing"])
        assert [m.path for m in mods] == ["src/a.py"]
        # A target may also name one file.
        mods = collect_modules(tmp_path, ["src", "other/c.py"])
        assert [m.path for m in mods] == ["src/a.py", "other/c.py"]
