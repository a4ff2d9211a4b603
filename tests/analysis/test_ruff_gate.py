"""Style gate: when ruff is available, the tree must pass it.

Ruff is an optional tool (the CI lint job installs it); this test
keeps the gate honest in any environment that has it and skips
cleanly everywhere else.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

ruff = shutil.which("ruff")


@pytest.mark.skipif(ruff is None, reason="ruff not installed")
def test_ruff_clean_on_src_and_benchmarks():
    proc = subprocess.run(
        [ruff, "check", "src", "benchmarks"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ruff_config_present_and_minimal():
    # The config itself is part of the contract even where ruff isn't:
    # pyflakes + named bugbear picks only, no style-rule creep.
    text = (REPO_ROOT / "pyproject.toml").read_text()
    assert "[tool.ruff.lint]" in text
    assert '"F"' in text
    assert '"B006"' in text
