"""Run the fast example scripts end to end, the way the docs tell a user to."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_example(name):
    """Run ``examples/<name>.py`` from the repo root; assert exit code 0, return stdout."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_serve_quickstart_runs():
    assert "coalesced 8 single-row requests into 1 sweep(s)" in run_example("serve_quickstart")


@pytest.mark.parametrize("name", [
    "quickstart", "loan_approval", "constraint_discovery", "census_audit", "law_school_recourse",
])
def test_example_runs(name):
    run_example(name)
