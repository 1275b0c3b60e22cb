"""Acceptance suite: one test per release criterion.

Each test prints a ``criterion N: PASS`` line on success (visible under
``pytest -s``); a failure reads as the criterion number in the test
name.  Tolerances and runtime budgets are pinned in the assertions.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from jumpstab.matkit import spectral_norm, spectral_radius
from jumpstab.mcsim import SimConfig, simulate_ensemble
from jumpstab.propagate import w2_trajectory
from jumpstab.stability import analyze, contraction_test, markov_test
from jumpstab.sysmodel import (
    GaussianMixture,
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
)
from jumpstab.wasserstein import (
    gaussian_to_dirac,
    mixture_to_dirac_sq,
    synthetic_gaussian,
)
from reference import lifted_step_matrix


def block_replicate(blocks):
    """The matrix whose (i, j) block is blocks[i] for every j."""
    return np.tile(np.vstack(blocks), (1, len(blocks)))


def random_mixture(rng, n, q):
    weights = rng.random(q) + 0.1
    weights /= weights.sum()
    means = 2.0 * rng.standard_normal((q, n))
    covs = []
    for _ in range(q):
        b = rng.standard_normal((n, n))
        covs.append(b @ b.T + 0.05 * np.eye(n))
    return GaussianMixture(weights=weights, means=means, covs=covs)


def random_modes(rng, m, n, radius=None):
    """Mode matrices; if radius is given, the iid lift under uniform
    weights is rescaled to that exact spectral radius."""
    mats = [rng.standard_normal((n, n)) for _ in range(m)]
    if radius is None:
        return mats
    sys_ = JumpLinearSystem(modes=mats)
    pi = np.full(m, 1.0 / m)
    rho = spectral_radius(lifted_step_matrix(sys_, pi))
    scale = math.sqrt(radius / rho)
    return [scale * a for a in mats]


def controlled_modes(rng, m, n, radius):
    """Rotations times gains from a narrow band, rescaled to a target
    lifted radius.

    Monte Carlo mean estimates need this: with unconstrained Gaussian
    modes the per-step log-gain variance is ~5, so by k=20 the ensemble
    mean rides on events far too rare for 1e5 samples and the 4-SE
    comparison loses its meaning.  A narrow gain band keeps the norm's
    log variance small enough for the CLT to hold at every step.
    """
    mats = []
    for _ in range(m):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        r = rng.standard_normal((n, n))
        r /= spectral_norm(r)
        gain = math.exp(rng.uniform(math.log(0.7), math.log(1.3)))
        mats.append(gain * q @ (np.eye(n) + 0.1 * r))
    sys_ = JumpLinearSystem(modes=mats)
    pi = np.full(m, 1.0 / m)
    rho = spectral_radius(lifted_step_matrix(sys_, pi))
    return [math.sqrt(radius / rho) * a for a in mats]


def random_stochastic_matrix(rng, m):
    p = rng.random((m, m)) + 0.1
    return p / p.sum(axis=1, keepdims=True)


def random_law(rng, m, kind):
    if kind == "iid":
        pi = rng.random(m) + 0.1
        return IIDSwitching(pi / pi.sum())
    if kind == "markov":
        pi0 = rng.random(m) + 0.1
        return MarkovSwitching(
            P=random_stochastic_matrix(rng, m), pi0=pi0 / pi0.sum()
        )
    rows = rng.random((6, m)) + 0.1
    return ScheduleSwitching(rows / rows.sum(axis=1, keepdims=True))


def rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), np.finfo(float).tiny)


def spectra_match(big, small, tol=1e-8):
    """Nonzero-spectrum multiset equality after scale normalization.

    ``big`` may carry extra eigenvalues, which must all sit at zero.
    """
    eig_big = np.linalg.eigvals(big)
    eig_small = np.linalg.eigvals(small)
    scale = max(1.0, np.abs(eig_big).max(initial=0.0),
                np.abs(eig_small).max(initial=0.0))
    order = np.argsort(np.abs(eig_big))
    extra = eig_big[order[: big.shape[0] - small.shape[0]]]
    kept = eig_big[order[big.shape[0] - small.shape[0]:]]
    if np.abs(extra).max(initial=0.0) > tol * scale:
        return False
    diff = np.sort_complex(kept) - np.sort_complex(eig_small)
    return np.abs(diff).max(initial=0.0) <= tol * scale


def test_criterion_1_equidistance():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(1, 6))
        mix = random_mixture(rng, n, q)
        direct = mixture_to_dirac_sq(mix)
        mean, cov = synthetic_gaussian(mix)
        via_gaussian = gaussian_to_dirac(mean, cov) ** 2
        worst = max(worst, rel_gap(direct, via_gaussian))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS (200 mixtures, worst relative gap "
        f"{worst:.2e}, {elapsed:.2f} s)"
    )


def test_criterion_2_triple_method_agreement():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    kinds = ("iid", "markov", "schedule")
    for i in range(50):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        sys_ = JumpLinearSystem(
            modes=random_modes(rng, m, n, radius=1.2)
        )
        law = random_law(rng, m, kinds[i % 3])
        init = random_mixture(rng, n, int(rng.integers(1, 3)))
        runs = {
            method: w2_trajectory(sys_, law, init, 8, method=method)
            for method in ("moment", "gamma", "exact_mog")
        }
        for k in range(9):
            ref = runs["moment"][k].w2
            for method in ("gamma", "exact_mog"):
                worst = max(worst, rel_gap(runs[method][k].w2, ref))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(
        f"criterion 2: PASS (50 systems, worst relative gap "
        f"{worst:.2e}, {elapsed:.2f} s)"
    )


def test_criterion_3_monte_carlo_oracle():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    kinds = ("iid", "markov", "schedule")
    passed = 0
    worst_se = 0.0
    for i in range(20):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(1, 3))
        radius = float(rng.uniform(0.3, 1.05))
        sys_ = JumpLinearSystem(
            modes=controlled_modes(rng, m, n, radius)
        )
        law = random_law(rng, m, kinds[i % 3])
        init = random_mixture(rng, n, int(rng.integers(1, 3)))
        # the analytic trajectory steps a Markov law's chain: sample paths
        sampling = "path" if kinds[i % 3] == "markov" else "marginal"
        stats = simulate_ensemble(
            sys_, law, init,
            SimConfig(trajectories=100_000, k_max=20, seed=3000 + i,
                      sampling=sampling),
        )
        recs = w2_trajectory(sys_, law, init, 20)
        dev_se = max(
            abs(stats.mean_sq[r.k] - r.w2) / stats.stderr[r.k]
            for r in recs
        )
        worst_se = max(worst_se, dev_se)
        if dev_se <= 4.0:
            passed += 1
    elapsed = time.perf_counter() - start
    assert passed >= 19
    assert elapsed < 300.0
    print(
        f"criterion 3: PASS ({passed}/20 instances within 4 SE, worst "
        f"{worst_se:.2f} SE, {elapsed:.1f} s)"
    )


def test_criterion_4_iid_recovery():
    sys_ = JumpLinearSystem(modes=[[[2.0]], [[0.1]]])
    report = analyze(sys_, IIDSwitching([0.5, 0.5]))
    assert report.verdict == "unstable"
    assert report.evidence == pytest.approx(2.005, abs=1e-12)

    rng = np.random.default_rng(1004)
    init = GaussianMixture.from_components(
        [(1.0, [1.0, 0.0], 0.1 * np.eye(2))]
    )
    for target in (0.3, 0.5, 0.7, 0.9):
        modes = random_modes(rng, 2, 2, radius=target)
        sys_r = JumpLinearSystem(modes=modes)
        law = IIDSwitching([0.5, 0.5])
        rep = analyze(sys_r, law)
        assert rep.verdict == "stable"
        # decay constant absorbs the non-normal transient: double the
        # pure-geometric horizon and pad
        horizon = 2 * math.ceil(math.log(1e-9) / math.log(rep.evidence))
        horizon += 20
        recs = w2_trajectory(sys_r, law, init, horizon)
        floor = min(r.w2 for r in recs)
        assert floor <= 1e-9 * recs[0].w2
    print(
        "criterion 4: PASS (rho = 2.005 exact, unstable; four stable "
        "instances decay below 1e-9 within the log horizon)"
    )


def test_criterion_5_markov_recovery():
    sys_ = JumpLinearSystem(modes=[[[1.2]], [[0.5]]])
    p = [[0.3, 0.7], [0.7, 0.3]]
    report = markov_test(sys_, p)
    # characteristic root of the 2x2 lifted chain matrix
    root = (0.507 + math.sqrt(0.507**2 + 4 * 0.144)) / 2
    assert report.evidence == pytest.approx(root, rel=1e-6)
    assert report.evidence == pytest.approx(0.70986, abs=5e-6)
    assert report.verdict == "stable"

    law = MarkovSwitching(P=p, pi0=[0.5, 0.5])
    init = GaussianMixture.from_components([(1.0, [1.0], [[0.0]])])
    stats = simulate_ensemble(
        sys_, law, init,
        SimConfig(
            trajectories=100_000, k_max=100, seed=5005, sampling="path"
        ),
    )
    assert stats.mean_sq[100] < stats.mean_sq[0]
    # the ensemble's mean square rides on rare long runs of the 1.2 mode,
    # so its checkpoints fall only by chance; the chain recursion's do
    checkpoints = [r.w2 for r in w2_trajectory(sys_, law, init, 100)][::10]
    assert all(np.diff(checkpoints) < 0)
    print(
        f"criterion 5: PASS (rho = {report.evidence:.6f} within 1e-6 of "
        f"{root:.6f}, stable; chain W^2 decreasing over 100 steps)"
    )


def test_criterion_6_block_spectrum_properties():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    # (a) (XY) kron I = (X kron I)(Y kron I)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        x = rng.standard_normal((n, n))
        y = rng.standard_normal((n, n))
        eye = np.eye(m)
        lhs = np.kron(x @ y, eye)
        rhs = np.kron(x, eye) @ np.kron(y, eye)
        scale = max(1.0, np.abs(lhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-8 * scale
    # (b) the block-replicated matrix keeps the sum's spectrum and
    # pads with zeros
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        blocks = [rng.standard_normal((n, n)) for _ in range(m)]
        assert spectra_match(block_replicate(blocks), sum(blocks))
    # (c) the same holds for products of block-replicated matrices
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        depth = int(rng.integers(2, 5))
        factors = [
            [rng.standard_normal((n, n)) for _ in range(m)]
            for _ in range(depth)
        ]
        big = np.linalg.multi_dot(
            [block_replicate(b) for b in factors]
        )
        small = np.linalg.multi_dot([sum(b) for b in factors])
        assert spectra_match(big, small)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"criterion 6: PASS (3 x 100 block-spectrum instances, "
        f"{elapsed:.2f} s)"
    )


def test_criterion_7_markov_reduces_to_iid():
    rng = np.random.default_rng(1007)
    for _ in range(50):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        sys_ = JumpLinearSystem(modes=random_modes(rng, m, n))
        pi = rng.random(m) + 0.1
        pi /= pi.sum()
        # chain with every row equal to pi is the iid law in disguise
        p = np.tile(pi, (m, 1))
        lifted_iid = lifted_step_matrix(sys_, pi)
        big = block_replicate(
            [pi[j] * np.kron(sys_.modes[j], sys_.modes[j])
             for j in range(m)]
        )
        assert spectra_match(big, lifted_iid)
        rep_markov = markov_test(sys_, p)
        rep_iid = analyze(sys_, IIDSwitching(pi))
        scale = max(1.0, rep_iid.evidence)
        assert abs(rep_markov.evidence - rep_iid.evidence) <= 1e-8 * scale
    print(
        "criterion 7: PASS (50 instances: uniform-row chain lift "
        "matches the iid spectrum)"
    )


def test_criterion_8_contractive_prefix():
    sys_ = JumpLinearSystem(modes=[[[2.0]], [[0.1]]])
    report = contraction_test(sys_, SequenceSwitching((1, 2)))
    assert report.verdict == "stable-per-corollary"
    assert report.horizon_used == 2
    assert report.evidence == pytest.approx(0.2, abs=1e-15)

    grow = JumpLinearSystem(modes=[[[2.0]]])
    for horizon in (10, 500, 5000):
        rep = contraction_test(
            grow, SequenceSwitching((1,)), k_max=horizon
        )
        assert rep.verdict == "inconclusive"
    print(
        "criterion 8: PASS (alternating prefix k=2 with norm 0.2; "
        "constant growth inconclusive at horizons 10, 500, 5000)"
    )


def test_criterion_9_csv_determinism(tmp_path):
    doc = tmp_path / "sys.json"
    doc.write_text(
        """
        {
          "n": 1,
          "modes": {"a": [[1.2]], "b": [[0.5]]},
          "switching": {"type": "markov",
                        "P": [[0.3, 0.7], [0.7, 0.3]],
                        "pi0": [0.5, 0.5]},
          "initial": [{"weight": 1.0, "mean": [1.0], "cov": [[0.2]]}]
        }
        """,
        encoding="utf-8",
    )
    outs = [tmp_path / name for name in
            ("r1.csv", "r2.csv", "t2.csv", "t8.csv")]
    base = [
        sys.executable, "-m", "jumpstab", "simulate", str(doc),
        "--steps", "12", "--trajectories", "20000",
        "--seed", "20260822", "--sampling", "path",
    ]
    for out, threads in zip(outs, ("1", "1", "2", "8")):
        proc = subprocess.run(
            base + ["--threads", threads, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    blobs = [out.read_bytes() for out in outs]
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]
    assert blobs[0] == blobs[3]
    print(
        "criterion 9: PASS (byte-identical CSV across repeated runs "
        "and thread counts 1, 2, 8)"
    )
