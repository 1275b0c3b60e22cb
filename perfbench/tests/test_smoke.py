"""Smoke test of the benchmark harness.

Runs every workload once untraced and twice traced at the shortest
length (one round each), and checks that every metric declared in
``BENCHMARK.json`` is emitted with its unit, that no call fails, that
span counts repeat exactly, and that the harness refuses to run without
the program's sources.  Takes about five minutes on two cores:

    python3 -m pytest perfbench/tests -q
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@functools.lru_cache(maxsize=None)
def result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_with_unit(workload, trace):
    summary, text = result(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["attempted"] >= 1
    assert summary["failed"] == 0, text
    assert summary["correct"] is True
    assert "fail_ratio" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, _ = result(workload, 1)
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    second = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
