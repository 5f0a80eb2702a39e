"""``setup.py`` carries real package metadata."""

import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_name_and_version_are_real():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    name, version = result.stdout.split()
    assert name != "UNKNOWN"
    assert version == repro.__version__
