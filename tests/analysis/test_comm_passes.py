"""End-to-end tests for the comm-matching/deadlock/exchange passes."""

import json
from pathlib import Path

import pytest

from repro.analysis.commcheck import analyze_modules
from repro.analysis.engine import collect_modules
from repro.analysis.lint import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "comm_fixtures"
COMM_SELECT = "comm-matching,comm-deadlock,comm-exchange"


def _lint_file(fixture, capsys):
    code = lint_main([
        "--root", str(REPO_ROOT), "--no-baseline",
        "--select", COMM_SELECT, "--format", "json",
        str(FIXTURES / fixture),
    ])
    payload = json.loads(capsys.readouterr().out)
    return code, payload["new"]


def test_crossed_tags_names_both_sites(capsys):
    code, findings = _lint_file("crossed_tags.py", capsys)
    assert code == 1
    hits = [f for f in findings if f["rule"] == "comm-matching"]
    assert hits, findings
    msg = hits[0]["message"]
    # Both ends named: the receive site is the finding anchor, the
    # mismatched send site is spelled out in the message.
    assert "beta" in msg and "alpha" in msg
    assert "crossed_tags.py" in msg
    assert hits[0]["path"].endswith("crossed_tags.py")


def test_send_cycle_reports_blocking_cycle(capsys):
    code, findings = _lint_file("send_cycle.py", capsys)
    assert code == 1
    hits = [f for f in findings if f["rule"] == "comm-deadlock"]
    assert hits, findings
    msg = hits[0]["message"]
    assert "blocking-operation cycle" in msg
    assert "rank 0" in msg and "rank 1" in msg


def test_lonely_allreduce_reports_divergence(capsys):
    code, findings = _lint_file("lonely_allreduce.py", capsys)
    assert code == 1
    hits = [f for f in findings if f["rule"] == "comm-deadlock"]
    assert hits, findings
    assert "rank-divergent collective participation" in hits[0]["message"]


def test_leaked_exchange_reported_through_helper(capsys):
    code, findings = _lint_file("leak_exchange.py", capsys)
    assert code == 1
    hits = [f for f in findings if f["rule"] == "comm-exchange"]
    assert hits, findings
    assert "never completed on any path" in hits[0]["message"]


def test_clean_twins_are_clean(capsys):
    code, findings = _lint_file("clean_twins.py", capsys)
    assert code == 0
    assert findings == []


def test_src_tree_is_comm_clean(capsys):
    code = lint_main([
        "--root", str(REPO_ROOT), "--no-baseline",
        "--select", COMM_SELECT, "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0, payload["new"]
    assert payload["new"] == []


def test_default_entries_actually_verified():
    # Honesty check: "deadlock-free" must not mean "zero events were
    # interpreted".  Every default entry must produce a non-trivial
    # symbolic sequence at every world size.
    modules = collect_modules(REPO_ROOT, ["src"])
    result = analyze_modules(modules)
    info = {e["entry"]: e for e in result.entry_info}
    for name in (
        "run-rank-synchronous", "run-rank-pipelined",
        "allreduce-ring", "allreduce-tree",
        "trainer-synchronous", "trainer-pipelined", "trainer-gat",
    ):
        assert name in info, sorted(info)
        entry = info[name]
        assert not entry.get("partial"), entry
        for world, stats in entry["worlds"].items():
            assert stats["events"] > 0, (name, world, entry)
    # The ring allreduce at world 4 does 2*(m-1) send/recv pairs per
    # step across 4 ranks — far more than a token handful of events.
    ring = info["allreduce-ring"]["worlds"]
    assert max(s["events"] for s in ring.values()) >= 48, ring


def test_missing_default_entry_is_reported(tmp_path, capsys):
    # A tree that looks like the repo but lacks _run_rank must surface
    # a finding instead of silently verifying nothing.
    pkg = tmp_path / "src" / "repro" / "dist"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "executor.py").write_text("def unrelated():\n    return 1\n")
    code = lint_main([
        "--root", str(tmp_path), "--no-baseline",
        "--select", COMM_SELECT, "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    msgs = [f["message"] for f in payload["new"]]
    assert any("_run_rank is missing" in m for m in msgs), msgs


def test_unanchored_marker_is_reported(tmp_path, capsys):
    target = tmp_path / "floating.py"
    target.write_text(
        "# repro-lint: comm-entry\n"
        "CONSTANT = 3\n"
    )
    code = lint_main([
        "--root", str(tmp_path), "--no-baseline",
        "--select", COMM_SELECT, "--format", "json",
        str(target),
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    msgs = [f["message"] for f in payload["new"]]
    assert any("does not anchor" in m for m in msgs), msgs


def test_sarif_output_shape(capsys):
    code = lint_main([
        "--root", str(REPO_ROOT), "--no-baseline",
        "--select", COMM_SELECT, "--format", "sarif",
        str(FIXTURES / "crossed_tags.py"),
    ])
    assert code == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert "comm-matching" in rule_ids
    results = run["results"]
    assert results
    first = results[0]
    assert first["ruleId"] == "comm-matching"
    assert driver["rules"][first["ruleIndex"]]["id"] == first["ruleId"]
    loc = first["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith("crossed_tags.py")
    assert loc["region"]["startLine"] > 0


def test_profile_prints_pass_timings(capsys):
    code = lint_main([
        "--root", str(REPO_ROOT), "--no-baseline", "--profile",
        "--select", COMM_SELECT, "--format", "json",
        str(FIXTURES / "clean_twins.py"),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "profile:" in err
    assert "comm-matching" in err


@pytest.mark.parametrize("fixture", [
    "crossed_tags.py", "send_cycle.py",
    "lonely_allreduce.py", "leak_exchange.py",
])
def test_every_violation_fixture_fails_lint(fixture, capsys):
    code, findings = _lint_file(fixture, capsys)
    assert code == 1 and findings
