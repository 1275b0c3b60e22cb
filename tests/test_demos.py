"""Every demo script must run to completion, without a RuntimeWarning."""

import os
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


def test_system_files_demo_repeats_itself_and_cleans_up(tmp_path):
    """Demo 05 names its file, not the temporary directory it writes it
    in, and removes that directory: two runs print the same bytes."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    first, second = (subprocess.run(
        [sys.executable, str(DEMO_DIR / "05_system_files.py")],
        capture_output=True, text=True, check=True, env=env,
    ).stdout for _ in range(2))
    assert first == second
    assert list(tmp_path.iterdir()) == []
