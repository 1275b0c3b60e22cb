"""Seeded inputs for the benchmark: system files and the workload call lists.

Every mode matrix is built as ``A = c U diag(s) V^T`` with random
orthogonal ``U, V`` and singular values ``s`` drawn from a narrow band,
so the extreme singular values of each mode are known exactly.  They
bound the spectral radius of the second-moment lift on both sides: for
an IID law ``sum_j pi_j smin_j^2 <= rho <= sum_j pi_j smax_j^2``, and for
a Markov chain ``rho`` lies between the spectral radii of
``diag(smin_j^2) P^T`` and ``diag(smax_j^2) P^T``.  Scaling the modes so
that the bound on the relevant side sits at 0.85 (stable) or 1.15
(unstable) fixes each file's verdict by construction, away from the
marginal band, whatever eigensolver the program uses.

The program under test sees only the JSON files; the expected verdicts
and the reason each file is in the set go to ``manifest.json`` beside
them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STABLE_BOUND = 0.85
UNSTABLE_BOUND = 1.15
SV_SPREAD = 0.5

#: Ensemble size and horizon of the heavy Monte Carlo calls; 10 of the
#: simulator's 4096-trajectory blocks, so two threads split them evenly.
MC_TRAJECTORIES = 40_960
MC_STEPS = 20
#: Ensemble of the light simulate/compare calls in the other workloads.
SMALL_TRAJECTORIES = 2_000
SMALL_STEPS = 10

WORKLOADS = ("cli-sweep", "large-lift", "monte-carlo")
LAWS = ("iid", "markov", "schedule", "sequence")

#: Wall time of one round of each workload's calls, with the reference
#: process timed before each, on a 2-core x86 host at the seed commit;
#: ``--seconds`` divided by it gives the round count, so a run's call list
#: depends on ``--seconds`` only, never on timing.
NOMINAL_ROUND_S = {"cli-sweep": 16.0, "large-lift": 35.0, "monte-carlo": 36.0}


@dataclass
class SystemSpec:
    """One generated system file and what the benchmark expects of it."""

    name: str
    law: str
    n: int
    m: int
    why: str
    expected_test: str
    expected_verdict: str
    modes: list
    switching: dict
    initial: list
    path: str = ""

    def to_file(self) -> dict:
        return {
            "n": self.n,
            "modes": {f"A{j + 1}": a.tolist() for j, a in enumerate(self.modes)},
            "switching": self.switching,
            "initial": self.initial,
        }

    def marginals(self, k_max: int) -> np.ndarray:
        """Per-step mode marginals pi(1) .. pi(k_max) of a non-Markov law."""
        sw = self.switching
        if sw["type"] == "iid":
            return np.tile(np.asarray(sw["pi"], float), (k_max, 1))
        if sw["type"] == "schedule":
            vec = np.asarray(sw["vectors"], float)
            return vec[np.minimum(np.arange(k_max), len(vec) - 1)]
        if sw["type"] == "sequence":
            idx = np.asarray(sw["indices"]) - 1
            out = np.zeros((k_max, self.m))
            out[np.arange(k_max), idx[np.arange(k_max) % len(idx)]] = 1.0
            return out
        raise ValueError(f"{self.name}: Markov marginals are not pinned")


@dataclass
class Call:
    """One CLI invocation of the workload: ``jumpstab <sub> <file> <args>``."""

    sub: str
    spec: SystemSpec
    args: tuple = ()
    steps: int = 0
    method: str = "moment"
    trajectories: int = 0

    def argv(self) -> list:
        return [self.sub, self.spec.path, *self.args]


def _orth(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _raw_modes(rng, n, m):
    """Modes with relative gains and their exact extreme singular values."""
    mats, smin, smax = [], [], []
    for _ in range(m):
        s = rng.uniform(1.0 - SV_SPREAD, 1.0 + SV_SPREAD, n)
        gain = rng.uniform(0.7, 1.3)
        mats.append(gain * _orth(rng, n) @ np.diag(s) @ _orth(rng, n).T)
        smin.append(gain * s.min())
        smax.append(gain * s.max())
    return mats, np.asarray(smin), np.asarray(smax)


def _rho(mat):
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def _initial(rng, n, q, point_mass=False):
    weights = rng.dirichlet(np.ones(q))
    out = []
    for w in weights:
        mean = rng.standard_normal(n)
        if point_mass:
            cov = np.zeros((n, n))
        else:
            f = rng.standard_normal((n, n)) / np.sqrt(n)
            cov = 0.1 * f @ f.T
        out.append({"weight": float(w), "mean": mean.tolist(), "cov": cov.tolist()})
    return out


def make_system(rng, name, law, n, m, stable=True, q=1, why=""):
    """A system of the given law kind whose verdict is fixed by construction."""
    mats, smin, smax = _raw_modes(rng, n, m)
    target = STABLE_BOUND if stable else UNSTABLE_BOUND
    side = smax if stable else smin
    test, verdict = law, "stable" if stable else "unstable"
    if law == "iid":
        pi = rng.dirichlet(2.0 * np.ones(m))
        bound = float(pi @ side**2)
        switching = {"type": "iid", "pi": pi.tolist()}
    elif law == "markov":
        # correlated chain: consecutive modes repeat with probability >= 0.6
        p = 0.4 * rng.dirichlet(np.ones(m), size=m) + 0.6 * np.eye(m)
        bound = _rho(np.diag(side**2) @ p.T)
        switching = {"type": "markov", "P": p.tolist(),
                     "pi0": rng.dirichlet(np.ones(m)).tolist()}
    elif law == "schedule":
        vectors = rng.dirichlet(2.0 * np.ones(m), size=int(rng.integers(3, 9)))
        per_step = vectors @ side**2
        # every stored step (the tail included) meets the bound
        bound = float(per_step.max() if stable else per_step.min())
        switching = {"type": "schedule", "vectors": vectors.tolist()}
        test = "general"
    elif law == "sequence":
        if not stable:
            raise ValueError("sequence files are built contractive")
        indices = rng.integers(1, m + 1, size=int(rng.integers(2, 6)))
        # the one-period product norm is at most the product of smax
        bound = float(np.prod(smax[indices - 1]))
        scale = (STABLE_BOUND / bound) ** (1.0 / len(indices))
        mats = [scale * a for a in mats]
        switching = {"type": "sequence", "indices": indices.tolist()}
        test, verdict = "contraction", "stable-per-corollary"
    else:
        raise ValueError(f"unknown law {law!r}")
    if law != "sequence":
        scale = np.sqrt(target / bound)
        mats = [scale * a for a in mats]
    return SystemSpec(
        name=name, law=law, n=n, m=m, why=why, expected_test=test,
        expected_verdict=verdict, modes=mats, switching=switching,
        initial=_initial(rng, n, q),
    )


def make_equal_norm(rng, name, law, n, m, why):
    """Modes g*Q_j (Q_j orthogonal) from a point mass: ||x(k)|| is the same
    on every sample path, so Monte Carlo equals the analytic trajectory to
    rounding and ``compare`` must report PASS for any seed."""
    gain = np.sqrt(0.95)
    mats = [gain * _orth(rng, n) for _ in range(m)]
    if law == "iid":
        switching = {"type": "iid", "pi": rng.dirichlet(2.0 * np.ones(m)).tolist()}
    else:
        switching = {"type": "schedule",
                     "vectors": rng.dirichlet(2.0 * np.ones(m), size=4).tolist()}
    return SystemSpec(
        name=name, law=law, n=n, m=m, why=why, expected_test="",
        expected_verdict="", modes=mats, switching=switching,
        initial=_initial(rng, n, 1, point_mass=True),
    )


def _cli_sweep(rng, rounds):
    sizes = rng.permutation([1, 2, 4, int(rng.choice([1, 2, 4]))])
    orders = rng.permutation([2, 3, 2, 3])
    small = {
        law: make_system(
            rng, f"{law}-small", law, int(n), int(m),
            stable=law == "sequence" or bool(rng.integers(0, 2)),
            q=int(rng.integers(1, 3)),
            why=f"small {law} system (n={n}, m={m}); the call is mostly "
                f"interpreter start, import and parse",
        )
        for law, n, m in zip(LAWS, sizes, orders)
    }
    # trajectory files stay bounded over the horizon
    traj = {
        law: make_system(
            rng, f"{law}-traj", law, int(rng.choice([2, 4])),
            int(rng.choice([2, 3])), q=2,
            why=f"stable {law} system for the moment/gamma/exact_mog "
                f"route agreement",
        )
        for law in LAWS
    }
    det = [
        make_equal_norm(
            rng, f"compare-{law}", law, 2, 2,
            why="equal-norm modes from a point mass: compare must PASS exactly",
        )
        for law in ("iid", "schedule")
    ]
    first = int(rng.integers(0, 4))
    calls = []
    for r in range(rounds):
        calls += [Call("analyze", small[LAWS[(3 * r + k) % 4]])
                  for k in range(3)]
        spec = traj[LAWS[(first + r) % 4]]
        mog_steps = 6 if spec.m == 2 else 5
        calls += [
            Call("trajectory", spec, ("--steps", "40"), steps=40),
            Call("trajectory", spec, ("--steps", "40", "--method", "gamma"),
                 steps=40, method="gamma"),
            Call("trajectory", spec,
                 ("--steps", str(mog_steps), "--method", "exact_mog"),
                 steps=mog_steps, method="exact_mog"),
        ]
        sims = _simulate_pair(small["iid"], SMALL_TRAJECTORIES, SMALL_STEPS,
                              seed=r)
        calls += [sims[0], _compare(det[0], SMALL_TRAJECTORIES, SMALL_STEPS, r),
                  sims[1], _compare(det[1], SMALL_TRAJECTORIES, SMALL_STEPS, r)]
    return [*small.values(), *traj.values(), *det], calls


def _simulate_pair(spec, trajectories, steps, seed, sampling="marginal"):
    args = ("--steps", str(steps), "--trajectories", str(trajectories),
            "--seed", str(seed), "--sampling", sampling)
    return [
        Call("simulate", spec, args + ("--threads", str(t)), steps=steps,
             trajectories=trajectories)
        for t in (1, 2)
    ]


def _compare(spec, trajectories, steps, seed):
    return Call(
        "compare", spec,
        ("--steps", str(steps), "--trajectories", str(trajectories),
         "--seed", str(seed)),
        steps=steps, trajectories=trajectories,
    )


def _interleave(heavy, light):
    """Spread the light calls evenly between the heavy ones.

    Call times drift with the load on the host over tens of seconds;
    spreading each kind of call over the whole run lets its median sample
    that drift instead of one stretch of it.
    """
    out, done = [], 0
    for i, call in enumerate(heavy):
        out.append(call)
        upto = round((i + 1) * len(light) / len(heavy))
        out += light[done:upto]
        done = upto
    return out


def _large_lift(rng, rounds):
    markov = make_system(
        rng, "markov-24", "markov", 24, 3, stable=bool(rng.integers(0, 2)),
        why="Markov lift of size m*n^2 = 1728: dense eigvals dominates",
    )
    schedule = make_system(
        rng, "schedule-20", "schedule", 20, 3, q=2,
        why="schedule law at n=20: the 500-step general_test fold of "
            "400x400 lifts, and 300-step moment/gamma trajectories",
    )
    iid = make_system(
        rng, "iid-32", "iid", 32, 3, stable=bool(rng.integers(0, 2)),
        why="IID lift of size n^2 = 1024: dense eigvals",
    )
    sequence = make_system(
        rng, "sequence-24", "sequence", 24, 3,
        why="deterministic sequence at n=24: the contraction scan",
    )
    mog = make_system(
        rng, "markov-mog-16", "markov", 16, 3, q=2,
        why="exact mixture at n=16, m=3, 8 steps: 13,122 components",
    )
    light = make_equal_norm(
        rng, "compare-iid", "iid", 2, 2,
        why="small file for the light simulate/compare calls",
    )
    calls = []
    for r in range(rounds):
        heavy = [
            Call("analyze", markov),
            Call("trajectory", schedule, ("--steps", "300"), steps=300),
            Call("analyze", schedule),
            Call("trajectory", mog, ("--steps", "8", "--method", "exact_mog"),
                 steps=8, method="exact_mog"),
            Call("analyze", iid),
            Call("trajectory", schedule,
                 ("--steps", "300", "--method", "gamma"),
                 steps=300, method="gamma"),
        ]
        sims = [_simulate_pair(light, SMALL_TRAJECTORIES, SMALL_STEPS,
                               seed=2 * r + i) for i in range(2)]
        compares = [_compare(light, SMALL_TRAJECTORIES, SMALL_STEPS, 3 * r + i)
                    for i in range(3)]
        calls += _interleave(heavy, [
            sims[0][0], compares[0], Call("analyze", sequence), sims[0][1],
            compares[1], Call("trajectory", mog, ("--steps", "8"), steps=8),
            sims[1][0], compares[2], sims[1][1],
        ])
    return [markov, schedule, iid, sequence, mog, light], calls


def _monte_carlo(rng, rounds):
    n = lambda: int(rng.integers(2, 5))
    iid = make_system(rng, "mc-iid", "iid", n(), 3, q=2,
                      why="IID law, marginal sampling, 1 and 2 threads")
    schedule = make_system(rng, "mc-schedule", "schedule", n(), 3, q=2,
                           why="schedule law, marginal sampling, 1 and 2 threads")
    markov = make_system(rng, "mc-markov", "markov", n(), 3, q=2,
                         why="correlated Markov chain, path sampling")
    det = make_equal_norm(
        rng, "mc-compare", "schedule", n(), 3,
        why="equal-norm modes from a point mass: compare must PASS exactly",
    )
    light = {
        law: make_system(
            rng, f"mc-light-{law}", law, 2, 2, q=2,
            why=f"small {law} system: keeps analyze and trajectory in the "
                f"mix while their own work stays small",
        )
        for law in LAWS
    }
    first = int(rng.integers(0, 4))
    calls = []
    for r in range(rounds):
        heavy = [
            *_simulate_pair(iid, MC_TRAJECTORIES, MC_STEPS, seed=r),
            *_simulate_pair(schedule, MC_TRAJECTORIES, MC_STEPS, seed=r),
            _compare(det, MC_TRAJECTORIES, MC_STEPS, seed=4 * r),
            _compare(det, MC_TRAJECTORIES, MC_STEPS, seed=4 * r + 1),
            *_simulate_pair(markov, MC_TRAJECTORIES, MC_STEPS, seed=r,
                            sampling="path"),
            _compare(det, MC_TRAJECTORIES, MC_STEPS, seed=4 * r + 2),
            _compare(det, MC_TRAJECTORIES, MC_STEPS, seed=4 * r + 3),
        ]
        spec = light["iid"]
        laws = [LAWS[(first + 3 * r + k) % 4] for k in range(3)]
        calls += _interleave(heavy, [
            Call("analyze", light[laws[0]]),
            Call("trajectory", spec, ("--steps", "20", "--method", "gamma"),
                 steps=20, method="gamma"),
            Call("analyze", light[laws[1]]),
            Call("trajectory", spec, ("--steps", "6", "--method", "exact_mog"),
                 steps=6, method="exact_mog"),
            Call("analyze", light[laws[2]]),
            Call("trajectory", spec, ("--steps", "20"), steps=20),
        ])
    return [iid, schedule, markov, det, *light.values()], calls


_GENERATORS = {
    "cli-sweep": _cli_sweep,
    "large-lift": _large_lift,
    "monte-carlo": _monte_carlo,
}


def build_workload(workload: str, seed: int, seconds: float, out_dir: Path):
    """Write the workload's files under ``out_dir``; return (files, calls).

    The same workload, seed and seconds always give the same files and
    the same call list.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    files, calls = _GENERATORS[workload](rng, rounds)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for spec in files:
        path = out_dir / f"{spec.name}.json"
        path.write_text(json.dumps(spec.to_file()) + "\n", encoding="utf-8")
        spec.path = str(path)
        manifest.append({
            "file": path.name, "law": spec.law, "n": spec.n, "m": spec.m,
            "expected_test": spec.expected_test,
            "expected_verdict": spec.expected_verdict, "why": spec.why,
        })
    (out_dir / "manifest.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "files": manifest},
                   indent=1) + "\n",
        encoding="utf-8",
    )
    return files, calls
