"""
System files and the command line
=================================

Analyses are driven by a single JSON file holding the mode matrices,
the switching law, and the initial mixture.  This script writes one,
validates it, and runs the same steps the ``jumpstab`` command line
performs, printing the equivalent shell invocations along the way.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from jumpstab import (
    analyze,
    load_system_file,
    validate_system,
    w2_trajectory,
)

doc = {
    "n": 2,
    "modes": {
        "spin": [[0.0, -1.04], [1.04, 0.0]],
        "damp": [[0.5, 0.0], [0.0, 0.4]],
    },
    "switching": {"type": "iid", "pi": [0.55, 0.45]},
    "initial": [
        {
            "weight": 1.0,
            "mean": [1.0, -0.5],
            "cov": [[0.05, 0.0], [0.0, 0.05]],
        }
    ],
}

with tempfile.TemporaryDirectory() as workdir:
    path = Path(workdir) / "spin_damp.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    print(f"wrote {path.name}")

    # same as: jumpstab validate spin_damp.json
    sf = load_system_file(path)
    report = validate_system(sf.system, sf.switching, sf.initial)
    print(f"\n$ jumpstab validate {path.name}")
    print(report)

    # same as: jumpstab analyze spin_damp.json
    verdict = analyze(sf.system, sf.switching)
    print(f"\n$ jumpstab analyze {path.name}")
    print(f"verdict: {verdict.verdict}, "
          f"spectral radius {verdict.evidence:.6f}")

    # same as: jumpstab trajectory spin_damp.json --steps 8
    print(f"\n$ jumpstab trajectory {path.name} --steps 8")
    print("k,w2")
    for rec in w2_trajectory(sf.system, sf.switching, sf.initial, 8):
        print(f"{rec.k},{rec.w2:.10f}")

    # the actual executable, for the full CSV contract and exit codes
    print(f"\n$ python -m jumpstab simulate {path.name} --steps 5 "
          f"--trajectories 2000")
    proc = subprocess.run(
        [
            sys.executable, "-m", "jumpstab", "simulate", str(path),
            "--steps", "5", "--trajectories", "2000",
        ],
        capture_output=True, text=True, check=True,
    )
    print(proc.stdout, end="")

print("\nexit codes: 0 ok, 1 usage/parse/validation, 2 failed")
print("--assert-stable, 3 numerical breakdown")
