"""Every demo script, and README's quick start, must run to completion,
without a RuntimeWarning."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"


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


def test_readme_quick_start_prints_what_it_says():
    """The quick start's code block runs as written; its first line is
    the verdict and evidence its comment gives, then W^2(k) = 2.005**k."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                     readme, re.S).group(1)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    first, *rows = proc.stdout.splitlines()
    assert first == "unstable 2.005"
    assert [row.split()[0] for row in rows] == [str(k) for k in range(6)]
    for k, row in enumerate(rows):
        assert float(row.split()[1]) == pytest.approx(2.005**k, rel=1e-14)
