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
``--assert-stable``; 3 numerical failure (divergence, overflow,
eigensolver breakdown, or a negative W^2).

CSV output uses 17 significant digits so identical runs produce
byte-identical files, whatever the number of CPUs the process may use:
a threaded matrix product sums in an order set by the CPU count, so
unless ``OPENBLAS_NUM_THREADS`` is set, ``main`` runs OpenBLAS on one
thread.  Reports print as plain text, or as JSON under ``--json``.

``simulate`` and ``compare`` sample the process the analytic trajectory
describes, the chain's paths for a Markov law; compare's rule for
deterministic steps is relative, so its verdict ignores the start's scale.

The parser and ``validate`` need only the standard library: the reader
in ``systemfile`` checks a file in plain Python, and loads numpy only
for a covariance its proof cannot clear.  The other subcommands run the
same reader, then import the numerical modules they use, after ``main``
has chosen the BLAS thread count.  The process entry,
``jumpstab.__main__.run``, freezes the heap after ``main`` returns, so
the interpreter's final collections skip what these imports loaded;
``main`` itself freezes nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys

from .defaults import (
    DEFAULT_COMPONENT_CAP,
    DEFAULT_HORIZON,
    DEFAULT_MARGIN,
    NumericalError,
)

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


#: Every argument, declared once; ``_COMMANDS`` lists each subcommand's
#: arguments in the order its --help shows them
_ARGUMENTS = {
    "file": dict(help="JSON system description"),
    "--steps": dict(type=int, required=True, help="number of steps K"),
    "--trajectories": dict(
        type=int, default=10_000, help="ensemble size (default %(default)d)"
    ),
    "--seed": dict(
        type=int, default=0, help="stream seed (default %(default)d)"
    ),
    "--sampling": dict(
        choices=("marginal", "path"),
        help="mode draws, only the law's own: path for a Markov law, "
             "marginal otherwise (default: the law's own)",
    ),
    "--threads": dict(
        type=int, default=1,
        help="has no effect: the ensemble runs on the calling thread "
             "(default %(default)d)",
    ),
    "--margin": dict(
        type=float, default=DEFAULT_MARGIN,
        help="half-width of the marginal band around 1, in [0, 1) "
             "(default %(default)g)",
    ),
    "--horizon": dict(
        type=int, default=DEFAULT_HORIZON,
        help="steps the sequence contraction scan covers "
             "(default %(default)d)",
    ),
    "--assert-stable": dict(
        action="store_true",
        help="exit 2 unless the verdict certifies stability",
    ),
    "--method": dict(
        choices=("moment", "gamma", "exact_mog"), default="moment",
        help="propagation route (default %(default)s)",
    ),
    "--cap": dict(
        type=int, default=DEFAULT_COMPONENT_CAP,
        help="component cap for exact_mog (default %(default)d)",
    ),
    "--json": dict(action="store_true", help="emit the report as JSON"),
    "--out": dict(default=None, help="CSV output path (default: stdout)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jumpstab",
        description=(
            "Mean-square stability analysis and distance-to-origin "
            "trajectories for stochastic jump linear systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_, flags) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=help_)
        for flag in flags:
            subparser.add_argument(flag, **_ARGUMENTS[flag])
    return parser


def _load_validated(path):
    from .systemfile import SystemFileError, _build, _read, _report

    decoded = _read(path)
    report = _report(*decoded)
    if not report.ok:
        raise SystemFileError(f"{path}: {report}")
    return _build(*decoded)


def _fmt(value) -> str:
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return format(float(value), ".17g")


def _write_csv(path, header, rows):
    """Write ``rows`` as CSV to the file ``path``, or to stdout if None."""
    handle = (_sys.stdout if path is None
              else open(path, "w", encoding="utf-8", newline="\n"))
    try:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if path is not None:
            handle.close()


def _json_number(value):
    # JSON has no inf/nan literals; fall back to strings
    return value if math.isfinite(value) else repr(value)


def cmd_validate(args) -> int:
    from .systemfile import SystemFileError, _read, _report

    try:
        decoded = _read(args.file)
    except (OSError, SystemFileError) as exc:
        if args.json:
            print(json.dumps({"ok": False, "parse_error": str(exc)}))
        else:
            print(f"parse error: {exc}", file=_sys.stderr)
        return 1
    report = _report(*decoded)
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
    from .stability import analyze

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
    from .propagate import w2_trajectory

    sf = _load_validated(args.file)
    records = w2_trajectory(
        sf.system, sf.switching, sf.initial,
        k_max=args.steps, method=args.method, cap=args.cap,
    )
    exact = args.method == "exact_mog"
    header = ["k", "w2", "w"] + (["component_count"] if exact else [])
    _write_csv(args.out, header, (
        [rec.k, rec.w2, math.sqrt(rec.w2)]
        + ([rec.component_count] if exact else [])
        for rec in records
    ))
    return 0


def cmd_simulate(args) -> int:
    from .mcsim import SimConfig, simulate_ensemble

    sf = _load_validated(args.file)
    cfg = SimConfig(args.trajectories, args.steps, seed=args.seed,
                    sampling=args.sampling)
    stats = simulate_ensemble(sf.system, sf.switching, sf.initial, cfg)
    _write_csv(args.out, ["k", "mean_sq", "stderr", "n_samples"], (
        [k, stats.mean_sq[k], stats.stderr[k], args.trajectories]
        for k in range(args.steps + 1)
    ))
    return 0


def _se_deviations(records, stats):
    """Per-step |mean_sq - w2| in standard-error units.

    Steps whose standard error is at most 1e-12 of max(|w2|, |mean_sq|)
    are deterministic; there the deviation is 0 when the values agree to
    relative 1e-9 and inf otherwise, so exact routes still compare
    meaningfully.  Both thresholds are relative, so scaling the start
    leaves every deviation as it is.
    """
    out = []
    for rec in records:
        mean_sq, se = stats.mean_sq[rec.k], stats.stderr[rec.k]
        dev = abs(mean_sq - rec.w2)
        scale = max(abs(rec.w2), abs(mean_sq), _sys.float_info.min)
        if se > 1e-12 * scale:
            out.append(dev / se)
        elif dev <= 1e-9 * scale:
            out.append(0.0)
        else:
            out.append(math.inf)
    return out


def cmd_compare(args) -> int:
    # one sample has no spread: every step's standard error would read 0,
    # and a random step would pass for a deterministic one
    if args.trajectories < 2:
        raise ValueError(
            f"compare needs --trajectories >= 2 for a standard error, "
            f"got {args.trajectories}"
        )
    from .mcsim import SimConfig, simulate_ensemble
    from .propagate import w2_trajectory
    from .sysmodel import MarkovSwitching

    sf = _load_validated(args.file)
    records = w2_trajectory(
        sf.system, sf.switching, sf.initial, k_max=args.steps
    )
    # the trajectory steps a Markov law's chain: the ensemble follows it
    path = isinstance(sf.switching, MarkovSwitching)
    cfg = SimConfig(trajectories=args.trajectories, k_max=args.steps,
                    seed=args.seed, sampling="path" if path else "marginal")
    stats = simulate_ensemble(sf.system, sf.switching, sf.initial, cfg)
    se_dev = _se_deviations(records, stats)
    worst = max(range(len(se_dev)), key=lambda i: se_dev[i])
    passed = bool(se_dev[worst] <= _PASS_SE)

    if args.json:
        payload = {
            "file": args.file,
            "sampling": cfg.sampling,
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
        print(json.dumps(payload, indent=2))
        return 0

    print(f"file: {args.file}")
    print(
        f"sampling: {cfg.sampling}, trajectories: {args.trajectories}, "
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
    heavy = [str(rec.k) for rec in records if stats.heavy_tail[rec.k]]
    if heavy:
        print(f"heavy-tailed steps (SE unreliable): k={', '.join(heavy)}")
    verdict = "PASS" if passed else "FAIL"
    print(f"result: {verdict} (threshold {_PASS_SE:g} SE)")
    return 0


#: Subcommand: (handler, --help line, arguments in --help order)
_COMMANDS = {
    "validate": (cmd_validate, "check a system file and print a report",
                 ("file", "--json")),
    "analyze": (cmd_analyze, "run the stability test for the switching law",
                ("file", "--margin", "--horizon", "--assert-stable",
                 "--json")),
    "trajectory": (cmd_trajectory, "write the analytic W^2 trajectory as CSV",
                   ("file", "--steps", "--method", "--cap", "--out")),
    "simulate": (cmd_simulate, "write a Monte Carlo ensemble estimate as CSV",
                 ("file", "--steps", "--trajectories", "--seed", "--sampling",
                  "--threads", "--out")),
    "compare": (cmd_compare,
                "cross-check analytic trajectory against Monte Carlo",
                ("file", "--steps", "--trajectories", "--seed", "--json")),
}


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if "numpy" not in _sys.modules:
        # OpenBLAS sizes its thread pool once, as numpy loads (later, the
        # variable would only leak into child processes).  One thread
        # keeps the summation order of products, hence the CSV bytes,
        # the same on any number of CPUs, and spares a short call the
        # pool's start-up.  A value the user set stands.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return _COMMANDS[args.command][0](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 3
    # SystemFileError is a ValueError; a MemoryError is a --steps or
    # --trajectories too large to allocate
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
