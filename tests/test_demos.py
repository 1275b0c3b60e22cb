"""Every demo script must run to completion, without a RuntimeWarning."""

import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
