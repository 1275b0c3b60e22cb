#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarize them.

    python3 perfbench/collect.py --seeds 1-10 --label <commit> \\
        --out perfbench/baseline/BENCH_baseline.json

Runs ``run.py`` once per (workload, seed), one run at a time, each in a
fresh process, and writes every run's metrics plus, per workload and
metric, the median, the quartiles from ``statistics.quantiles(n=4)`` and
their distance as a share of the median (the run-to-run spread).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    out = {"median": med, "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / abs(med) if med else float("nan"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    report = {"label": args.label, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads(
                (ROOT / ".perfbench"
                 / f"BENCH_{workload}-s{seed}-trace{args.trace}.json")
                .read_text(encoding="utf-8")
            )
            report.setdefault("environment", record["environment"])
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "unscaled_metrics": record.get("unscaled_metrics", {}),
            })
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
        names = runs[0]["metrics"]
        summary = {
            name: summarize([r["metrics"][name] for r in runs])
            for name in names
        }
        unscaled = {
            name: summarize([r["unscaled_metrics"][name] for r in runs])
            for name in runs[0]["unscaled_metrics"]
        }
        report["workloads"][workload] = {
            "runs": runs, "summary": summary, "unscaled_summary": unscaled,
        }
        for name, s in summary.items():
            raw = (f"  unscaled median {unscaled[name]['median']:>12.6g}  "
                   f"spread {unscaled[name].get('spread', float('nan')):7.3f}"
                   if name in unscaled else "")
            print(f"  {name:40s} median {s['median']:>14.6g}  "
                  f"spread {s.get('spread', float('nan')):7.3f}{raw}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
