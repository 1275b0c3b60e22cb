#!/usr/bin/env python3
"""Benchmark of the ``jumpstab`` command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 30 --trace 0

The untraced run (``--trace 0``) times each ``python -m jumpstab`` call
from process start to exit, one call at a time (a single closed-loop
client), with ``PYTHONPATH`` set to the checkout's own ``src/``.  The
traced run (``--trace 1``) calls ``jumpstab.cli.main`` in-process over
the same call list, once without and once with spans, and reports the
per-layer numbers.  Both check every output (see ``checks.py``).

Inputs are generated from ``--seed`` (see ``inputs.py``).  Files, spans
and a full result record go to ``.perfbench/`` in the checkout; the last
line of standard output is the JSON summary.  See ``README.md`` for the
metrics and what each should move.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from checks import Checker, check_validate
from inputs import WORKLOADS, build_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SUBCOMMANDS = ("analyze", "trajectory", "simulate", "compare")
SETUP_REPS = 3
IMPORT_REPS = 3
IMPORT_MODULES = ("jumpstab", "scipy.stats", "scipy.linalg")
# the heaviest call takes about 5 s; a call past this counts as failed
CALL_TIMEOUT_S = 60
# a tail percentile is reported only with this many calls beyond it
TAIL_BEYOND = 10
#: Reference process timed just before every untraced call, on the same
#: CPU: interpreter start and a fixed pure-Python loop, no jumpstab code.
#: Its median wall time on the 2-core x86 host the baseline was taken on.
REFERENCE = ("-c", "sum(i * i for i in range(2_000_000))")
REFERENCE_NOMINAL_S = 0.24
#: A call is scaled by the median of the references this many places
#: before and after its own.
REFERENCE_WINDOW = 1


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("*openblas*"):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        threads = getter()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def cpus_for(argv):
    """CPUs a call may run on: one, unless it asks for worker threads.

    A call and the reference timed before it then run on the same CPU and
    see the same contention from other tenants of the host.
    """
    cpus = sorted(os.sched_getaffinity(0))
    threads = 1
    if "--threads" in argv:
        threads = int(argv[argv.index("--threads") + 1])
    return set(cpus[-threads:])


def run_subprocess(argv, env):
    """Wall time from process start to exit, exit code, stdout."""
    cpus = cpus_for(argv)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "jumpstab", *argv], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -1, ""
    return time.perf_counter() - start, proc.returncode, proc.stdout


def run_reference(env):
    """Wall time of the reference process."""
    cpus = cpus_for([])
    start = time.perf_counter()
    subprocess.run([sys.executable, *REFERENCE], env=env, cwd=ROOT,
                   capture_output=True, check=True, timeout=CALL_TIMEOUT_S,
                   preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    return time.perf_counter() - start


def host_scale(refs):
    """Per-call factor REFERENCE_NOMINAL_S / median of the nearby references.

    The host switches between fast and slow stretches of several seconds,
    where every process runs up to 40% slower; the references before and
    after a call follow the stretch it ran in.  ``refs`` holds one more
    reference than there are calls: the one after the last call.
    """
    w = REFERENCE_WINDOW
    return [REFERENCE_NOMINAL_S / median(refs[max(i - w, 0):i + w + 1])
            for i in range(len(refs) - 1)]


def run_inprocess(main, argv):
    """Exit code and stdout of ``jumpstab.cli.main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def inprocess_pass(main, calls, tracer=None):
    """Run every call in-process; return call walls, outputs and makespan.

    With a tracer, each call is a root span with the call's index as id.
    """
    walls, outputs = [], []
    start = time.perf_counter()
    for i, call in enumerate(calls):
        t0 = time.perf_counter()
        with (tracer.span(f"cli.{call.sub}", call_id=i) if tracer
              else contextlib.nullcontext()):
            outputs.append(run_inprocess(main, call.argv()))
        walls.append(time.perf_counter() - t0)
    return walls, outputs, time.perf_counter() - start


def tail(values):
    """Value at the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    idx = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


class Tally:
    """Attempted and failed calls, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, label, error):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")


def end_to_end(calls, walls, setup, attempted):
    """The end-to-end metrics from call and setup wall times."""
    by_sub = {sub: [w for c, w in zip(calls, walls) if c.sub == sub]
              for sub in SUBCOMMANDS}
    sims = [(c, w) for c, w in zip(calls, walls) if c.sub == "simulate"]
    every = walls + setup
    return {
        "setup_s": (median(setup), "s", len(setup)),
        **{f"{sub}_p50_s": (median(w), "s", len(w))
           for sub, w in by_sub.items()},
        "call_tail_s": (tail(every)[0], "s", len(every)),
        "makespan_s": (sum(walls), "s", len(walls)),
        "mc_traj_steps_per_s": (
            sum(c.trajectories * c.steps for c, _ in sims)
            / sum(w for _, w in sims), "1/s", len(sims)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "MB", attempted),
    }


def untraced(calls, smallest, tally, record):
    env = child_env()
    validate = ["validate", smallest.path]
    # warm-up, untimed: the first processes of a run start slowly
    run_reference(env)
    _, code, out = run_subprocess(validate, env)
    tally.add("warm-up validate", check_validate(code, out))
    # the validate calls behind setup_s are spread over the run, like the
    # light calls of each workload (see inputs._interleave)
    setup_at = [round(i * len(calls) / SETUP_REPS) for i in range(SETUP_REPS)]
    order, walls, refs = [], [], []   # order: call index, or None for setup
    checker = Checker()
    for i, call in enumerate(calls):
        for _ in range(setup_at.count(i)):
            refs.append(run_reference(env))
            wall, code, out = run_subprocess(validate, env)
            tally.add("setup validate", check_validate(code, out))
            order.append(None)
            walls.append(wall)
        refs.append(run_reference(env))
        wall, code, out = run_subprocess(call.argv(), env)
        tally.add(f"call {i} {' '.join(call.argv())}",
                  checker.check(call, code, out))
        order.append(i)
        walls.append(wall)
    refs.append(run_reference(env))

    scale = host_scale(refs)
    record["calls"] = [
        {"argv": calls[i].argv() if i is not None else validate,
         "wall_s": w, "reference_s": r, "scale": f}
        for i, w, r, f in zip(order, walls, refs, scale)
    ]
    record["final_reference_s"] = refs[-1]
    record["tail_percentile"] = tail(walls)[1]

    def metrics(times):
        return end_to_end(
            calls, [t for i, t in zip(order, times) if i is not None],
            [t for i, t in zip(order, times) if i is None], tally.attempted)

    record["unscaled_metrics"] = {
        name: value for name, (value, _, _) in metrics(walls).items()}
    record["scale_median"] = median(scale)
    return metrics([w * f for w, f in zip(walls, scale)])


def import_times(env) -> dict:
    """Median cumulative import time of each module in a fresh interpreter."""
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import jumpstab"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CALL_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import jumpstab failed: {proc.stderr}")
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                found[parts[2].strip()] = int(parts[1]) * 1e-6
        for name in IMPORT_MODULES:
            # a module jumpstab does not import costs it nothing
            samples[name].append(found.get(name, 0.0))
    return {name: median(v) for name, v in samples.items()}


def traced(calls, smallest, tally, record):
    sys.path.insert(0, str(SRC))
    import jumpstab
    from jumpstab.cli import main
    from jumpstab.mcsim import SimConfig, simulate_ensemble
    from jumpstab.propagate import gamma_product
    from jumpstab.systemfile import load_system_file

    from tracing import Tracer, public_functions

    env = child_env()
    imports = import_times(env)

    validate = ["validate", smallest.path]
    sub_walls, inproc_walls = [], []
    for _ in range(SETUP_REPS):
        wall, code, out = run_subprocess(validate, env)
        tally.add("setup validate", check_validate(code, out))
        sub_walls.append(wall)
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        code, out = run_inprocess(main, validate)
        inproc_walls.append(time.perf_counter() - start)
        tally.add("in-process validate", check_validate(code, out))

    # the same calls twice in-process: untraced, then with spans
    tracer = Tracer(public_functions(jumpstab))
    walls, plain, makespan_plain = inprocess_pass(main, calls)
    _, traced_out, makespan_traced = inprocess_pass(main, calls, tracer)
    covered = sum(s[5] - s[4] for s in tracer.roots())
    for label, outputs in (("untraced", plain), ("traced", traced_out)):
        checker = Checker()
        for call, (code, out) in zip(calls, outputs):
            tally.add(f"{label} {' '.join(call.argv())}",
                      checker.check(call, code, out))
    counts = tracer.counts()

    # probes: public functions the CLI never calls, and the Monte Carlo
    # phases, timed without the hook so its per-call cost stays out
    gamma_call = next(c for c in calls if c.method == "gamma")
    sf = load_system_file(gamma_call.spec.path)
    with tracer.span("probe.propagate.gamma_product", "probe", hook=False):
        gamma_product(sf.system, sf.switching, gamma_call.steps)
    sim_call = next(c for c in calls if c.sub == "simulate")
    sf = load_system_file(sim_call.spec.path)
    flags = dict(zip(sim_call.args[::2], sim_call.args[1::2]))
    mc = {}
    for label, k_max, threads in (("threads1", sim_call.steps, 1),
                                  ("threads2", sim_call.steps, 2),
                                  ("k0", 0, 1)):
        cfg = SimConfig(trajectories=sim_call.trajectories, k_max=k_max,
                        seed=int(flags["--seed"]),
                        sampling=flags["--sampling"])
        with tracer.span(f"probe.mcsim.simulate_ensemble.{label}", "probe",
                         hook=False):
            simulate_ensemble(sf.system, sf.switching, sf.initial, cfg,
                              threads=threads)
        mc[label] = tracer.spans[-1][5] - tracer.spans[-1][4]

    self_s = tracer.self_times()
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{record['workload']}-s{record['seed']}.json"
    tracer.dump(spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["imports_s"] = imports

    by_sub = {sub: [w for c, w in zip(calls, walls) if c.sub == sub]
              for sub in SUBCOMMANDS}
    metrics = {
        "import.jumpstab_s": (imports["jumpstab"], "s", IMPORT_REPS),
        "import.scipy_stats_s": (imports["scipy.stats"], "s", IMPORT_REPS),
        "import.scipy_linalg_s": (imports["scipy.linalg"], "s", IMPORT_REPS),
        "cli.validate.inproc_s": (median(inproc_walls), "s", SETUP_REPS),
        **{f"cli.{sub}.inproc_s": (median(w), "s", len(w))
           for sub, w in by_sub.items()},
        "cli.process_overhead_s": (
            median(sub_walls) - median(inproc_walls), "s", SETUP_REPS),
    }
    for name in (
        "systemfile.load_system_file", "sysmodel.validate_system",
        "sysmodel.marginal_schedule", "sysmodel.stationary_distribution",
        "matkit.spectral_radius", "stability.iid_test",
        "stability.markov_test", "stability.general_test",
        "stability.contraction_test", "propagate.lifted_step_matrix",
        "propagate.moment_step", "propagate.w2_trajectory.moment",
        "propagate.w2_trajectory.gamma", "propagate.mog_step",
        "propagate.w2_trajectory.exact_mog",
        "wasserstein.mixture_to_dirac_sq", "wasserstein.synthetic_gaussian",
    ):
        metrics[f"{name}_s"] = (self_s.get(name, 0.0), "s", 1)
    metrics["propagate.gamma_product_s"] = (
        self_s["probe.propagate.gamma_product"], "s", 1)
    metrics["mcsim.simulate_ensemble_s"] = (mc["threads1"], "s", 1)
    metrics["mcsim.stream_setup_s"] = (mc["k0"], "s", 1)
    metrics["mcsim.step_s"] = (
        (mc["threads1"] - mc["k0"]) / sim_call.steps, "s", 1)
    metrics["mcsim.threads2_speedup"] = (
        mc["threads1"] / mc["threads2"], "ratio", 1)
    for name in (
        "matkit.spectral_radius.dim", "matkit.spectral_radius.flops_computed",
        "matkit.spectral_radius.bytes_computed",
        "stability.general_test.horizon_used",
        "propagate.mog_step.components", "mcsim.traj_steps",
    ):
        metrics[name] = (counts.get(name, 0), "count", 1)
    metrics["trace.makespan_untraced_s"] = (makespan_plain, "s", len(calls))
    metrics["trace.makespan_traced_s"] = (makespan_traced, "s", len(calls))
    metrics["trace.overhead_s"] = (
        makespan_traced - makespan_plain, "s", len(calls))
    metrics["trace.uncovered_s"] = (
        makespan_traced - covered, "s", len(calls))
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jumpstab" / "__init__.py").is_file():
        print(f"error: no jumpstab sources under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}"
    files, calls = build_workload(
        args.workload, args.seed, args.seconds, WORK / tag
    )
    smallest = min(files, key=lambda spec: os.path.getsize(spec.path))
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "inputs": str((WORK / tag / "manifest.json").relative_to(ROOT)),
    }
    tally = Tally()
    run = traced if args.trace else untraced
    metrics = run(calls, smallest, tally, record)

    failed = len(tally.failures)
    record["attempted"], record["failed"] = tally.attempted, failed
    record["failures"] = tally.failures
    record["metrics"] = {
        name: {"value": v, "unit": u, "samples": n}
        for name, (v, u, n) in metrics.items()
    }
    result_path = WORK / f"BENCH_{tag}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n",
                           encoding="utf-8")

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"calls {len(calls)}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  {env['blas']} x{env['blas_threads']}  "
          f"nproc {env['nproc']}")
    unscaled = record.get("unscaled_metrics", {})
    if unscaled:
        print(f"  host scale factor (median) {record['scale_median']:.4g}; "
              f"unscaled values in brackets")
    for name, (value, unit, samples) in metrics.items():
        raw = f"[{unscaled[name]:.6g}]" if name in unscaled else ""
        print(f"  {name:40s} {value:>16.6g} {unit:6s} (n={samples}) {raw}")
    print(f"  {'fail_ratio':40s} {failed / tally.attempted:>16.6g} ratio  "
          f"(n={tally.attempted})")
    for failure in tally.failures[:10]:
        print(f"  FAILED {failure}")
    print(f"  result record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
