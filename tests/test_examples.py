"""Run the fast example scripts end to end, the way the docs tell a user to."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_serve_quickstart_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "serve_quickstart.py")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "coalesced 8 single-row requests into 1 sweep(s)" in done.stdout
