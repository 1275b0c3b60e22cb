"""Command-line front end for system files.

Subcommands, all operating on a JSON system description (see
``systemfile``):

    validate    check the file and print a validation report
    analyze     run the stability test matching the switching law
    trajectory  write the analytic squared-distance trajectory as CSV
    simulate    write a Monte Carlo ensemble estimate as CSV
    compare     cross-check the analytic trajectory against Monte Carlo

Exit codes: 0 success; 1 usage, parse, or validation error, or an array
too large to allocate; 2 verdict assertion failure under
``--assert-stable``; 3 numerical failure (divergence or eigensolver
breakdown).

CSV output uses 17 significant digits so identical runs produce
byte-identical files; reports print as plain text, or as JSON under
``--json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys

from .matkit import NumericalError
from .mcsim import SimConfig, simulate_ensemble
from .propagate import DEFAULT_COMPONENT_CAP, w2_trajectory
from .stability import DEFAULT_HORIZON, DEFAULT_MARGIN, analyze
from .sysmodel import validate_system
from .systemfile import SystemFileError, load_system_file

__all__ = ["main"]

_PASS_SE = 4.0

_EVIDENCE_LABEL = {
    "iid": "spectral radius",
    "markov": "spectral radius",
    "general": "spectral radius",
    "contraction": "prefix product norm",
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jumpstab",
        description=(
            "Mean-square stability analysis and distance-to-origin "
            "trajectories for stochastic jump linear systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser(
        "validate", help="check a system file and print a report"
    )
    p_val.add_argument("file", help="JSON system description")
    p_val.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    p_ana = sub.add_parser(
        "analyze", help="run the stability test for the switching law"
    )
    p_ana.add_argument("file", help="JSON system description")
    p_ana.add_argument(
        "--margin", type=float, default=DEFAULT_MARGIN,
        help="half-width of the marginal band around 1, in [0, 1) "
             "(default %(default)g)",
    )
    p_ana.add_argument(
        "--horizon", type=int, default=DEFAULT_HORIZON,
        help="steps the sequence contraction scan covers "
             "(default %(default)d)",
    )
    p_ana.add_argument(
        "--assert-stable", action="store_true",
        help="exit 2 unless the verdict certifies stability",
    )
    p_ana.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    p_tra = sub.add_parser(
        "trajectory", help="write the analytic W^2 trajectory as CSV"
    )
    p_tra.add_argument("file", help="JSON system description")
    p_tra.add_argument(
        "--steps", type=int, required=True, help="number of steps K"
    )
    p_tra.add_argument(
        "--method", choices=("moment", "gamma", "exact_mog"),
        default="moment", help="propagation route (default %(default)s)",
    )
    p_tra.add_argument(
        "--cap", type=int, default=DEFAULT_COMPONENT_CAP,
        help="component cap for exact_mog (default %(default)d)",
    )
    p_tra.add_argument(
        "--out", default=None,
        help="CSV output path (default: stdout)",
    )

    p_sim = sub.add_parser(
        "simulate", help="write a Monte Carlo ensemble estimate as CSV"
    )
    p_sim.add_argument("file", help="JSON system description")
    p_sim.add_argument(
        "--steps", type=int, required=True, help="number of steps K"
    )
    p_sim.add_argument(
        "--trajectories", type=int, default=10_000,
        help="ensemble size (default %(default)d)",
    )
    p_sim.add_argument(
        "--seed", type=int, default=0,
        help="stream seed (default %(default)d)",
    )
    p_sim.add_argument(
        "--sampling", choices=("marginal", "path"), default="marginal",
        help="mode draw semantics (default %(default)s)",
    )
    p_sim.add_argument(
        "--threads", type=int, default=1,
        help="worker threads; the output does not depend on this "
             "(default %(default)d)",
    )
    p_sim.add_argument(
        "--out", default=None,
        help="CSV output path (default: stdout)",
    )

    p_cmp = sub.add_parser(
        "compare",
        help="cross-check analytic trajectory against Monte Carlo",
    )
    p_cmp.add_argument("file", help="JSON system description")
    p_cmp.add_argument(
        "--steps", type=int, required=True, help="number of steps K"
    )
    p_cmp.add_argument(
        "--trajectories", type=int, default=10_000,
        help="ensemble size (default %(default)d)",
    )
    p_cmp.add_argument(
        "--seed", type=int, default=0,
        help="stream seed (default %(default)d)",
    )
    p_cmp.add_argument(
        "--sampling", choices=("marginal", "path"), default="marginal",
        help="mode draw semantics (default %(default)s)",
    )
    p_cmp.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    return parser


def _load_validated(path):
    sf = load_system_file(path)
    report = validate_system(sf.system, sf.switching, sf.initial)
    if not report.ok:
        raise SystemFileError(f"{path}: {report}")
    return sf


def _open_out(path):
    if path is None:
        return _sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _fmt(value) -> str:
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return format(float(value), ".17g")


def _write_csv(handle, header, rows):
    handle.write(",".join(header) + "\n")
    for row in rows:
        handle.write(",".join(_fmt(v) for v in row) + "\n")


def _json_number(value):
    # JSON has no inf/nan literals; fall back to strings
    return value if math.isfinite(value) else repr(value)


def cmd_validate(args) -> int:
    try:
        sf = load_system_file(args.file)
    except SystemFileError as exc:
        if args.json:
            print(json.dumps({"ok": False, "parse_error": str(exc)}))
        else:
            print(f"parse error: {exc}", file=_sys.stderr)
        return 1
    report = validate_system(sf.system, sf.switching, sf.initial)
    if args.json:
        print(
            json.dumps(
                {"ok": report.ok, "violations": list(report.violations)},
                indent=2,
            )
        )
    else:
        print(report)
    return 0 if report.ok else 1


def cmd_analyze(args) -> int:
    sf = _load_validated(args.file)
    report = analyze(
        sf.system, sf.switching,
        margin=args.margin, horizon=args.horizon,
    )
    label = _EVIDENCE_LABEL[report.test_name]
    if args.json:
        payload = {
            "file": args.file,
            "test": report.test_name,
            "verdict": report.verdict,
            "evidence": _json_number(report.evidence),
            "evidence_label": label,
            "horizon_used": report.horizon_used,
            "notes": list(report.notes),
            "margin": args.margin,
            "certificate": report.certificate,
            "applications": report.applications,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"file: {args.file}")
        print(f"test: {report.test_name}")
        print(f"verdict: {report.verdict}")
        print(f"evidence: {label} = {report.evidence:.12g}")
        if report.horizon_used is not None:
            print(f"horizon used: k={report.horizon_used}")
        for note in report.notes:
            print(f"note: {note}")
    if args.assert_stable:
        certified = report.verdict in ("stable", "stable-per-corollary")
        return 0 if certified else 2
    return 0


def cmd_trajectory(args) -> int:
    sf = _load_validated(args.file)
    records = w2_trajectory(
        sf.system, sf.switching, sf.initial,
        k_max=args.steps, method=args.method, cap=args.cap,
    )
    exact = args.method == "exact_mog"
    header = ["k", "w2", "w"] + (["component_count"] if exact else [])
    rows = []
    for rec in records:
        row = [rec.k, rec.w2, math.sqrt(max(rec.w2, 0.0))]
        if exact:
            row.append(rec.component_count)
        rows.append(row)
    handle, close = _open_out(args.out)
    try:
        _write_csv(handle, header, rows)
    finally:
        if close:
            handle.close()
    return 0


def cmd_simulate(args) -> int:
    sf = _load_validated(args.file)
    cfg = SimConfig(
        trajectories=args.trajectories,
        k_max=args.steps,
        seed=args.seed,
        sampling=args.sampling,
    )
    stats = simulate_ensemble(
        sf.system, sf.switching, sf.initial, cfg, threads=args.threads
    )
    rows = [
        [k, stats.mean_sq[k], stats.stderr[k], int(stats.samples[k])]
        for k in range(args.steps + 1)
    ]
    handle, close = _open_out(args.out)
    try:
        _write_csv(handle, ["k", "mean_sq", "stderr", "n_samples"], rows)
    finally:
        if close:
            handle.close()
    return 0


def _se_deviations(records, stats):
    """Per-step |mean_sq - w2| in standard-error units.

    Steps whose sample spread sits at rounding level are deterministic;
    there the deviation is 0 when the values agree to relative 1e-9 and
    inf otherwise, so exact routes still compare meaningfully.
    """
    out = []
    for rec in records:
        dev = abs(stats.mean_sq[rec.k] - rec.w2)
        scale = max(1.0, abs(rec.w2))
        se = stats.stderr[rec.k]
        if se > 1e-12 * scale:
            out.append(dev / se)
        elif dev <= 1e-9 * scale:
            out.append(0.0)
        else:
            out.append(math.inf)
    return out


def cmd_compare(args) -> int:
    sf = _load_validated(args.file)
    records = w2_trajectory(
        sf.system, sf.switching, sf.initial, k_max=args.steps
    )
    cfg = SimConfig(
        trajectories=args.trajectories,
        k_max=args.steps,
        seed=args.seed,
        sampling=args.sampling,
    )
    stats = simulate_ensemble(sf.system, sf.switching, sf.initial, cfg)
    se_dev = _se_deviations(records, stats)
    worst = max(range(len(se_dev)), key=lambda i: se_dev[i])
    path_mode = args.sampling == "path"

    marginal_stats = None
    marginal_worst = None
    if path_mode:
        # same seed, marginal semantics: the second agreement number
        marginal_cfg = SimConfig(
            trajectories=args.trajectories,
            k_max=args.steps,
            seed=args.seed,
            sampling="marginal",
        )
        marginal_stats = simulate_ensemble(
            sf.system, sf.switching, sf.initial, marginal_cfg
        )
        marginal_dev = _se_deviations(records, marginal_stats)
        marginal_worst = max(marginal_dev)

    passed = bool(
        (marginal_worst if path_mode else se_dev[worst]) <= _PASS_SE
    )

    if args.json:
        payload = {
            "file": args.file,
            "sampling": args.sampling,
            "trajectories": args.trajectories,
            "seed": args.seed,
            "rows": [
                {
                    "k": rec.k,
                    "w2": rec.w2,
                    "mean_sq": stats.mean_sq[rec.k],
                    "stderr": stats.stderr[rec.k],
                    "se_dev": _json_number(se_dev[rec.k]),
                    "heavy_tail": bool(stats.heavy_tail[rec.k]),
                }
                for rec in records
            ],
            "max_se_dev": _json_number(se_dev[worst]),
            "pass": passed,
            "threshold_se": _PASS_SE,
        }
        if path_mode:
            payload["marginal_max_se_dev"] = _json_number(marginal_worst)
        print(json.dumps(payload, indent=2))
        return 0

    print(f"file: {args.file}")
    print(
        f"sampling: {args.sampling}, trajectories: {args.trajectories}, "
        f"seed: {args.seed}"
    )
    print(f"{'k':>4}  {'analytic_w2':>24}  {'mc_mean_sq':>24}  "
          f"{'stderr':>12}  {'dev/SE':>8}")
    for rec in records:
        print(
            f"{rec.k:>4}  {rec.w2:>24.16e}  "
            f"{stats.mean_sq[rec.k]:>24.16e}  "
            f"{stats.stderr[rec.k]:>12.4e}  {se_dev[rec.k]:>8.2f}"
        )
    print(
        f"max deviation: {se_dev[worst]:.2f} SE at k={records[worst].k}"
    )
    if path_mode:
        print(
            f"marginal-sampling max deviation: {marginal_worst:.2f} SE"
        )
        print(
            "note: the analytic trajectory weights modes by their "
            "per-step marginals, while path sampling follows the "
            "chain's conditional transitions; a gap between the two "
            "deviations measures mode correlation, not a defect."
        )
    heavy = [str(rec.k) for rec in records if stats.heavy_tail[rec.k]]
    if heavy:
        print(f"heavy-tailed steps (SE unreliable): k={', '.join(heavy)}")
    verdict = "PASS" if passed else "FAIL"
    print(f"result: {verdict} (threshold {_PASS_SE:g} SE)")
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "trajectory": cmd_trajectory,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 3
    # SystemFileError is a ValueError; a MemoryError is a --steps or
    # --trajectories too large to allocate
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
