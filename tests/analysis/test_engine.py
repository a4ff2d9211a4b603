"""Engine mechanics: diagnostics, registry, suppressions, baseline."""

import json

import pytest

from repro.analysis.engine import (
    BASELINE_VERSION,
    Diagnostic,
    LintPass,
    SourceModule,
    collect_modules,
    diff_against_baseline,
    get_passes,
    load_baseline,
    pass_names,
    run_passes,
    save_baseline,
)


class TestDiagnostic:
    def test_key_is_content_addressed_not_line_addressed(self):
        a = Diagnostic(path="a.py", line=10, col=0, rule="r",
                       message="m", line_text="x = 8 * n")
        b = Diagnostic(path="a.py", line=99, col=4, rule="r",
                       message="m", line_text="x = 8 * n")
        assert a.key == b.key

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
        # Lock order and object protocols are checked at runtime
        # (REPRO_SANITIZE=locks/protocol), not by a lint pass.
        for name in ("no-such-rule", "typestate", "lock-order"):
            with pytest.raises(KeyError, match="unknown lint pass"):
                get_passes([name])

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


class TestBaseline:
    def _diag(self, text, line=1):
        return Diagnostic(path="a.py", line=line, col=0, rule="r",
                          message="m", line_text=text)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [self._diag("x = 8"), self._diag("x = 8", line=9),
                    self._diag("y = 4")]
        entries = save_baseline(path, findings)
        # Identical stripped lines no longer collide: each occurrence
        # gets its own ``#n``-indexed entry.
        assert f"{findings[0].key}#1" in entries
        assert f"{findings[0].key}#2" in entries
        assert len(entries) == 3
        loaded = load_baseline(path)
        assert loaded == set(entries)
        payload = json.loads(path.read_text())
        assert payload["version"] == BASELINE_VERSION

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)

    def test_v1_counted_baseline_migrates(self, tmp_path):
        d = self._diag("x = 8")
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"version": 1, "entries": {d.key: 2}}
        ))
        loaded = load_baseline(path)
        assert loaded == {f"{d.key}#1", f"{d.key}#2"}
        # A v1 pair of duplicate findings stays fully baselined...
        diff = diff_against_baseline(
            [d, self._diag("x = 8", line=9)], loaded
        )
        assert len(diff.known) == 2 and diff.new == [] and diff.stale == []

    def test_diff_splits_new_known_stale(self, tmp_path):
        known = self._diag("x = 8")
        gone = self._diag("z = 8")
        path = tmp_path / "baseline.json"
        save_baseline(path, [known, gone])
        new = self._diag("y = 4")
        diff = diff_against_baseline([known, new], load_baseline(path))
        assert [d.key for d in diff.known] == [known.key]
        assert [d.key for d in diff.new] == [new.key]
        assert diff.stale == [f"{gone.key}#1"]

    def test_surplus_occurrences_of_known_key_are_new(self, tmp_path):
        d = self._diag("x = 8")
        path = tmp_path / "baseline.json"
        save_baseline(path, [d])
        dupe = self._diag("x = 8", line=7)
        diff = diff_against_baseline([d, dupe], load_baseline(path))
        assert len(diff.known) == 1
        assert len(diff.new) == 1


class TestCollectModules:
    def test_collects_only_python_under_targets(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "a.py").write_text("x = 1\n")
        (tmp_path / "src" / "b.txt").write_text("not python\n")
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "c.py").write_text("y = 2\n")
        mods = collect_modules(tmp_path, ["src", "missing"])
        assert [m.path for m in mods] == ["src/a.py"]
