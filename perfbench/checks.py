"""Output checks for every benchmark call.

Each check returns an error string, or ``None`` when the output is right.
A call that exits non-zero or fails its check counts toward ``failed``.

What is pinned, and what is deliberately not:

- ``analyze``: the test name and verdict stored with the file.
- ``trajectory``: the three routes agree with each other to 1e-9
  relative on every step they share; for non-Markov laws, W^2(k) also
  matches a plain numpy recursion ``Phi <- sum_j pi_j A_j Phi A_j^T``.
  Markov trajectories are not compared against any recursion, because
  whether modes are weighted by marginals or by the coupled chain is an
  open design question of the library.
- ``simulate``: CSV bytes identical at ``--threads 1`` and ``2``.
- ``compare``: PASS, on files whose Monte Carlo equals the analytic
  value on every sample path (equal-norm modes from a point mass).
"""

from __future__ import annotations

import math

import numpy as np

from inputs import Call

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _csv(text: str):
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("empty output")
    return lines[0].split(","), [
        [float(x) for x in line.split(",")] for line in lines[1:]
    ]


def reference_w2(call: Call) -> np.ndarray:
    """W^2(0 .. K) by the plain second-moment recursion (non-Markov laws)."""
    spec = call.spec
    weights = np.array([c["weight"] for c in spec.initial])
    weights = weights / weights.sum()
    phi = sum(
        w * (np.outer(c["mean"], c["mean"]) + np.asarray(c["cov"]))
        for w, c in zip(weights, spec.initial)
    )
    out = [np.trace(phi)]
    for pi in spec.marginals(call.steps):
        phi = sum(p * a @ phi @ a.T for p, a in zip(pi, spec.modes))
        out.append(np.trace(phi))
    return np.asarray(out)


def check_validate(returncode: int, stdout: str):
    if returncode != 0:
        return f"exit code {returncode}"
    return None if stdout.strip() == "OK" else f"report {stdout.strip()!r}"


class Checker:
    """Checks call outputs in order; pairs are matched on earlier calls."""

    def __init__(self):
        self._trajectories = {}   # file -> list of w2 arrays
        self._simulations = {}    # (file, args without --threads) -> bytes

    def check(self, call: Call, returncode: int, stdout: str):
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            return getattr(self, "_" + call.sub)(call, stdout)
        except (ValueError, IndexError) as exc:
            return f"unreadable output: {exc}"

    def _analyze(self, call, out):
        fields = dict(
            line.split(": ", 1) for line in out.splitlines() if ": " in line
        )
        got = (fields.get("test"), fields.get("verdict"))
        want = (call.spec.expected_test, call.spec.expected_verdict)
        return None if got == want else f"test/verdict {got}, expected {want}"

    def _trajectory(self, call, out):
        header, rows = _csv(out)
        exact = call.method == "exact_mog"
        want_header = ["k", "w2", "w"] + (["component_count"] if exact else [])
        if header != want_header:
            return f"header {header}"
        if len(rows) != call.steps + 1:
            return f"{len(rows)} rows for {call.steps} steps"
        w2 = np.array([row[1] for row in rows])
        for k, row in enumerate(rows):
            if row[0] != k or not math.isfinite(row[1]):
                return f"row {k} malformed: {row}"
            if not _close(row[2], math.sqrt(max(row[1], 0.0))):
                return f"w != sqrt(w2) at k={k}"
        if exact:
            spec = call.spec
            count = len(spec.initial)
            if spec.law != "markov":
                marg = spec.marginals(call.steps)
            for k, row in enumerate(rows):
                if k:
                    # modes of probability zero add no components
                    live = spec.m if spec.law == "markov" else int(
                        np.count_nonzero(marg[k - 1]))
                    count *= live
                if row[3] != count:
                    return f"component_count {row[3]} at k={k}, expected {count}"
        if call.spec.law != "markov":
            ref = reference_w2(call)
            for k, (a, b) in enumerate(zip(w2, ref)):
                if not _close(a, b):
                    return f"w2({k}) = {a!r}, recursion gives {b!r}"
        for other in self._trajectories.setdefault(call.spec.path, []):
            for k, (a, b) in enumerate(zip(w2, other)):
                if not _close(a, b):
                    return f"routes disagree at k={k}: {a!r} vs {b!r}"
        self._trajectories[call.spec.path].append(w2)
        return None

    def _simulate(self, call, out):
        header, rows = _csv(out)
        if header != ["k", "mean_sq", "stderr", "n_samples"]:
            return f"header {header}"
        if len(rows) != call.steps + 1:
            return f"{len(rows)} rows for {call.steps} steps"
        for k, row in enumerate(rows):
            if row[0] != k or row[3] != call.trajectories:
                return f"row {k} malformed: {row}"
            if not (math.isfinite(row[1]) and row[1] >= 0.0 and row[2] >= 0.0):
                return f"row {k} has bad moments: {row}"
        args = list(call.args)
        i = args.index("--threads")
        key = (call.spec.path, tuple(args[:i] + args[i + 2:]))
        first = self._simulations.setdefault(key, out)
        if first != out:
            return "CSV bytes differ between thread counts"
        return None

    def _compare(self, call, out):
        last = out.strip().splitlines()[-1]
        return None if last.startswith("result: PASS") else f"got {last!r}"
