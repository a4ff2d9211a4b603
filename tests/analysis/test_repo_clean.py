"""Self-check: the tree is lint-clean, and the gate actually gates.

This is the CI contract in test form: ``repro lint`` over the real
``src/`` + ``benchmarks/`` tree must produce no findings beyond the
committed baseline (which is empty — every real violation was fixed
with the pass that caught it), and a deliberately seeded violation
must fail the CLI with exit code 1.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.engine import (
    DEFAULT_BASELINE_NAME,
    diff_against_baseline,
    load_baseline,
)
from repro.analysis.lint import main as lint_main, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_tree_is_clean_against_committed_baseline():
    findings = run_lint(REPO_ROOT)
    baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE_NAME)
    diff = diff_against_baseline(findings, baseline)
    assert diff.new == [], "new lint findings:\n" + "\n".join(
        d.format() for d in diff.new
    )
    # Shrink-only policy: the baseline never carries entries the tree
    # no longer produces.
    assert diff.stale == []


def test_committed_baseline_is_empty():
    # The repo's policy: violations are fixed, not baselined.  If this
    # fails, a finding was frozen instead of fixed — justify or fix.
    assert load_baseline(REPO_ROOT / DEFAULT_BASELINE_NAME) == set()


def test_cli_exits_zero_on_clean_tree(capsys):
    code = lint_main(["--root", str(REPO_ROOT), "--strict"])
    assert code == 0
    assert "OK:" in capsys.readouterr().out


def test_cli_fails_on_deliberate_violation(tmp_path, capsys):
    # A scratch tree seeded with one violation per family: the gate
    # must exit 1 and name the rules — this is the proof the CI lint
    # job would catch a regression, demonstrated in-suite.
    src = tmp_path / "src"
    src.mkdir()
    (src / "bad.py").write_text(
        "import numpy as np\n"
        "bytes_per_scalar = 8\n"
        "rng = np.random.default_rng()\n"
    )
    code = lint_main(["--root", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "[dtype-width]" in out
    assert "[determinism]" in out
    assert "FAIL" in out


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "legacy.py").write_text("bytes_per_scalar = 8\n")
    assert lint_main(["--root", str(tmp_path)]) == 1
    capsys.readouterr()
    # Freeze the legacy finding; the gate goes green without an edit.
    assert lint_main(["--root", str(tmp_path), "--update-baseline"]) == 0
    capsys.readouterr()
    assert lint_main(["--root", str(tmp_path), "--strict"]) == 0
    capsys.readouterr()
    # ...but a *new* finding still fails.
    (src / "fresh.py").write_text("nbytes = 4\n")
    assert lint_main(["--root", str(tmp_path)]) == 1


def test_cli_strict_fails_on_stale_baseline(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    bad = src / "legacy.py"
    bad.write_text("bytes_per_scalar = 8\n")
    assert lint_main(["--root", str(tmp_path), "--update-baseline"]) == 0
    capsys.readouterr()
    bad.write_text("x = 1\n")  # violation fixed, baseline now stale
    assert lint_main(["--root", str(tmp_path)]) == 0  # lenient passes
    capsys.readouterr()
    assert lint_main(["--root", str(tmp_path), "--strict"]) == 1
    assert "stale" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "github"])
def test_cli_strict_summary_word_follows_exit_status(tmp_path, capsys, fmt):
    src = tmp_path / "src"
    src.mkdir()
    (src / "ok.py").write_text("x = 1\n")
    (tmp_path / DEFAULT_BASELINE_NAME).write_text(json.dumps({
        "version": 2, "entries": ["src/ok.py::dtype-width::nbytes = 8#1"],
    }))
    args = ["--root", str(tmp_path), "--format", fmt]
    assert lint_main(args + ["--strict"]) == 1
    out = capsys.readouterr().out
    assert "FAIL:" in out and "OK:" not in out
    # Without --strict the same stale entry is tolerated: OK and exit 0.
    assert lint_main(args) == 0
    assert "OK:" in capsys.readouterr().out


@pytest.mark.parametrize("how", ["positional", "--paths"])
def test_cli_missing_named_target_is_a_usage_error(tmp_path, capsys, how):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "ok.py").write_text("x = 1\n")
    target = "src/repro/dsit"
    argv = [target] if how == "positional" else ["--paths", f"src,{target}"]
    assert lint_main(["--root", str(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    assert target in captured.err
    assert "OK:" not in captured.out


def test_cli_absent_default_target_is_skipped(tmp_path, capsys):
    # Only src/ exists; the default's benchmarks/ is skipped, not an error.
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "ok.py").write_text("x = 1\n")
    assert lint_main(["--root", str(tmp_path), "--strict"]) == 0
    assert "OK: 1 file(s) checked" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "bad.py").write_text("bytes_per_scalar = 8\n")
    code = lint_main(["--root", str(tmp_path), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["modules"] == 1
    assert [d["rule"] for d in payload["new"]] == ["dtype-width"]
    assert payload["new"][0]["path"] == "src/bad.py"


def test_cli_list_passes(capsys):
    assert lint_main(["--list-passes"]) == 0
    out = capsys.readouterr().out
    assert "dtype-width" in out
    assert "blocking-in-lock" in out
    assert "[project]" not in out and "[module]" not in out
    assert len([line for line in out.splitlines()
                if not line.startswith(" ")]) == 8


def test_cli_select_subset(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "bad.py").write_text(
        "import numpy as np\n"
        "bytes_per_scalar = 8\n"
        "rng = np.random.default_rng()\n"
    )
    code = lint_main(["--root", str(tmp_path), "--select", "determinism"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out
    assert "[dtype-width]" not in out
