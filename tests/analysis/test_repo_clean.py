"""Self-check: the tree is lint-clean, and the gate actually gates.

This is the CI contract in test form: ``repro lint`` over the real
``src/`` + ``benchmarks/`` tree must produce no findings (every real
violation was fixed with the pass that caught it, or waived inline at
its line with a reason), and a deliberately seeded violation must fail
the CLI with exit code 1.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.engine import Diagnostic
from repro.analysis.lint import (
    _github_annotation,
    main as lint_main,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _seed(root, source="bytes_per_scalar = 8\n", name="bad.py"):
    src = root / "src"
    src.mkdir(parents=True, exist_ok=True)
    (src / name).write_text(source)


def test_tree_is_clean():
    findings = run_lint(REPO_ROOT)
    assert findings == [], "lint findings:\n" + "\n".join(
        d.format() for d in findings
    )


def test_cli_exits_zero_on_clean_tree(capsys):
    code = lint_main(["--root", str(REPO_ROOT)])
    assert code == 0
    assert "OK:" in capsys.readouterr().out


def test_cli_fails_on_deliberate_violation(tmp_path, capsys):
    # A scratch tree seeded with one violation per family: the gate
    # must exit 1 and name the rules — this is the proof the CI lint
    # job would catch a regression, demonstrated in-suite.
    _seed(tmp_path,
          "import numpy as np\n"
          "bytes_per_scalar = 8\n"
          "rng = np.random.default_rng()\n")
    code = lint_main(["--root", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "[dtype-width]" in out
    assert "[determinism]" in out
    assert "FAIL" in out


@pytest.mark.parametrize("fmt", ["text", "github"])
def test_cli_summary_word_follows_exit_status(tmp_path, capsys, fmt):
    dirty, clean = tmp_path / "dirty", tmp_path / "clean"
    _seed(dirty)
    _seed(clean, "x = 1\n", name="ok.py")
    assert lint_main(["--root", str(dirty), "--format", fmt]) == 1
    out = capsys.readouterr().out
    assert "FAIL:" in out and "OK:" not in out
    assert lint_main(["--root", str(clean), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert "OK:" in out and "FAIL:" not in out


def test_cli_missing_named_target_is_a_usage_error(tmp_path, capsys):
    _seed(tmp_path, "x = 1\n", name="ok.py")
    target = "src/repro/dsit"
    assert lint_main(["--root", str(tmp_path), target]) == 2
    captured = capsys.readouterr()
    assert target in captured.err
    assert "OK:" not in captured.out


def test_cli_absent_default_target_is_skipped(tmp_path, capsys):
    # Only src/ exists; the default's benchmarks/ is skipped, not an error.
    _seed(tmp_path, "x = 1\n", name="ok.py")
    assert lint_main(["--root", str(tmp_path)]) == 0
    assert "OK: 1 file(s) checked" in capsys.readouterr().out


@pytest.mark.parametrize("layout", ["missing-root", "no-default-target"])
def test_cli_linting_nothing_is_a_usage_error(tmp_path, capsys, layout):
    # A mistyped --root (or a root with neither src/ nor benchmarks/)
    # collects no module; that must not pass green.
    root = tmp_path / "nope"
    if layout == "no-default-target":
        (root / "lib").mkdir(parents=True)
        (root / "lib" / "ok.py").write_text("x = 1\n")
    assert lint_main(["--root", str(root)]) == 2
    captured = capsys.readouterr()
    assert str(root) in captured.err
    assert "OK:" not in captured.out


def test_cli_list_passes(capsys):
    assert lint_main(["--list-passes"]) == 0
    out = capsys.readouterr().out
    assert "dtype-width" in out
    assert "blocking-in-lock" in out
    assert "[project]" not in out and "[module]" not in out
    assert len([line for line in out.splitlines()
                if not line.startswith(" ")]) == 7


def test_cli_select_subset(tmp_path, capsys):
    _seed(tmp_path,
          "import numpy as np\n"
          "bytes_per_scalar = 8\n"
          "rng = np.random.default_rng()\n")
    code = lint_main(["--root", str(tmp_path), "--select", "determinism"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out
    assert "[dtype-width]" not in out


def test_cli_repeated_select_reports_each_finding_once(tmp_path, capsys):
    _seed(tmp_path)
    code = lint_main(["--root", str(tmp_path),
                      "--select", "dtype-width,dtype-width"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("[dtype-width]") == 1
    assert "1 finding(s)" in out


def test_cli_sarif_log_has_one_result_per_finding(tmp_path, capsys):
    _seed(tmp_path,
          "import numpy as np\n"
          "bytes_per_scalar = 8\n"
          "rng = np.random.default_rng()\n")
    findings = run_lint(tmp_path)
    assert len(findings) == 2
    assert lint_main(["--root", str(tmp_path), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    rules = run["tool"]["driver"]["rules"]
    results = run["results"]
    assert len(results) == len(findings)
    for result, finding in zip(results, findings):
        assert result["ruleId"] == finding.rule
        assert rules[result["ruleIndex"]]["id"] == finding.rule
        (location,) = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "src/bad.py"
        assert physical["region"] == {
            "startLine": finding.line,
            "startColumn": finding.col + 1,
        }


def test_github_annotation_escapes_workflow_command_syntax():
    annotation = _github_annotation(Diagnostic(
        path="src/a,b:c%.py", line=3, col=4, rule="dtype-width",
        message="50% wide\nsecond line",
    ))
    # Columns are 1-based, as in the text and SARIF reports.
    assert annotation == (
        "::error file=src/a%2Cb%3Ac%25.py,line=3,col=5,"
        "title=repro lint [dtype-width]"
        "::50%25 wide%0Asecond line"
    )


def test_cli_profile_goes_to_stderr_and_stdout_still_parses(tmp_path,
                                                            capsys):
    _seed(tmp_path)
    argv = ["--root", str(tmp_path), "--format", "sarif", "--profile",
            "--select", "dtype-width,determinism"]
    assert lint_main(argv) == 1
    captured = capsys.readouterr()
    json.loads(captured.out)
    rows = captured.err.splitlines()
    assert len(rows) == 3
    assert all(row.startswith("profile: ") for row in rows)
    assert sorted(row.split()[1] for row in rows) == [
        "determinism", "dtype-width", "total",
    ]
