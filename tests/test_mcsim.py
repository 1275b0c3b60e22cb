"""Monte Carlo simulator tests.

Statistical assertions use 4-standard-error bands around analytic
oracles computed by the moment recursion; determinism assertions demand
bit equality.
"""

import bisect
import itertools
import math
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from jumpstab.matkit import NumericalError
from jumpstab import mcsim, sysmodel
from jumpstab.mcsim import (
    SimConfig,
    _mix,
    _normals,
    _psd_factor,
    _step_moments,
    _uniforms,
    simulate_ensemble,
)
from jumpstab.propagate import w2_trajectory
from jumpstab.stability import markov_test
from jumpstab.sysmodel import (
    GaussianMixture,
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
)
from reference import GAMMA, MASK, ensemble_draws, splitmix64, traced_peak
from reference import uniforms as reference_uniforms


def point_mass(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    return GaussianMixture.from_components([(1.0, x, np.zeros((n, n)))])


def scalar_system(*values):
    return JumpLinearSystem(modes=[[[float(v)]] for v in values])


def random_chain(n, m, seed):
    """An n-dimensional Markov chain over m random modes (E||A x||^2 =
    ||x||^2 on average), started from a two-component mixture."""
    rng = np.random.default_rng(seed)
    modes = [rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(m)]
    law = MarkovSwitching(P=rng.dirichlet(np.ones(m), size=m),
                          pi0=rng.dirichlet(np.ones(m)))
    comps = []
    for weight in (0.4, 0.6):
        root = rng.standard_normal((n, n))
        comps.append((weight, rng.standard_normal(n),
                      0.3 * root @ root.T + 0.1 * np.eye(n)))
    return (JumpLinearSystem(modes=modes), law,
            GaussianMixture.from_components(comps))


def reference_mean_sq(sys, law, mix, cfg):
    """mean ||x(k)||^2 of a Markov-law ensemble, each trajectory stepped
    by x <- A_j x in a plain loop, from the reference draws of the
    documented stream layout; each mean is an exactly rounded sum over
    the samples."""
    # uniform u falls in bucket bisect_right(cuts, u) of these cuts
    cuts_of = lambda w: list(np.cumsum(w)[:-1])
    init_cuts = cuts_of(mix.weights / np.sum(mix.weights))
    factors = [np.linalg.cholesky(c) for c in mix.covs]
    marginal_cuts, pi = [], law.pi0 / np.sum(law.pi0)
    for _ in range(cfg.k_max):
        pi = pi @ law.P
        pi = pi / np.sum(pi)
        marginal_cuts.append(cuts_of(pi))
    row_cuts = [cuts_of(row / np.sum(row)) for row in law.P]
    samples = [[] for _ in range(cfg.k_max + 1)]
    comp, z, picks = ensemble_draws(cfg.seed, sys.n, cfg.k_max,
                                    cfg.trajectories)
    for t in range(cfg.trajectories):
        c = bisect.bisect_right(init_cuts, comp[t])
        x = mix.means[c] + factors[c] @ z[t]
        samples[0].append(x @ x)
        for k in range(cfg.k_max):
            if cfg.sampling == "path" and k > 0:
                cuts = row_cuts[j]
            else:
                cuts = marginal_cuts[k]
            j = bisect.bisect_right(cuts, picks[k][t])
            x = sys.modes[j] @ x
            samples[k + 1].append(x @ x)
    return np.array([math.fsum(s) for s in samples]) / cfg.trajectories


class TestSimConfig:
    def test_valid(self):
        cfg = SimConfig(trajectories=10, k_max=5, seed=3, sampling="path")
        assert cfg.trajectories == 10

    def test_rejects_zero_trajectories(self):
        with pytest.raises(ValueError, match="trajectories"):
            SimConfig(trajectories=0, k_max=5)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k_max"):
            SimConfig(trajectories=1, k_max=-1)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError, match="64 bits"):
            SimConfig(trajectories=1, k_max=1, seed=2**64)

    def test_rejects_unknown_sampling(self):
        with pytest.raises(ValueError, match="sampling"):
            SimConfig(trajectories=1, k_max=1, sampling="both")


class TestSampleInitial:
    """Initial-state draws of the ensemble, read at k_max=0."""

    def test_degenerate_component_is_exact(self):
        stats = simulate_ensemble(
            JumpLinearSystem(modes=[np.eye(2)]), IIDSwitching([1.0]),
            point_mass([2.0, -3.0]), SimConfig(trajectories=10, k_max=0),
        )
        assert_array_equal(stats.mean_sq, [13.0])
        assert_array_equal(stats.stderr, [0.0])

    def test_standard_normal_second_moment(self):
        mix = GaussianMixture.from_components(
            [(1.0, np.zeros(2), np.eye(2))]
        )
        stats = simulate_ensemble(
            JumpLinearSystem(modes=[np.eye(2)]), IIDSwitching([1.0]), mix,
            SimConfig(trajectories=200_000, k_max=0, seed=5),
        )
        assert abs(stats.mean_sq[0] - 2.0) <= 4 * stats.stderr[0]

    def test_component_frequencies(self):
        # ||x||^2 is about 100 on the first component and 0 on the second
        mix = GaussianMixture.from_components(
            [
                (0.9, [10.0], [[0.01]]),
                (0.1, [0.0], [[0.01]]),
            ]
        )
        stats = simulate_ensemble(
            scalar_system(1.0), IIDSwitching([1.0]), mix,
            SimConfig(trajectories=50_000, k_max=0, seed=11),
        )
        assert abs(stats.mean_sq[0] - 90.01) <= 4 * stats.stderr[0]

    def test_rank_deficient_covariance(self):
        # singular cov: all mass on the span of (1, 1), which the mode
        # [[1, -1], [0, 0]] maps to exactly 0
        cov = np.outer([1.0, 1.0], [1.0, 1.0])
        mix = GaussianMixture.from_components([(1.0, [0.0, 0.0], cov)])
        sys = JumpLinearSystem(modes=[[[1.0, -1.0], [0.0, 0.0]]])
        stats = simulate_ensemble(
            sys, IIDSwitching([1.0]), mix,
            SimConfig(trajectories=20, k_max=1, seed=13),
        )
        assert stats.mean_sq[0] > 0.0
        assert stats.mean_sq[1] == 0.0

    def test_indefinite_covariance_raises(self):
        """An indefinite covariance fails Cholesky and the spectral root
        alike, and is rejected as not PSD."""
        with pytest.raises(ValueError, match="not PSD"):
            _psd_factor(np.diag([1.0, -1.0]))

    def test_matches_ensemble_stream_layout(self):
        # two blocks, the second ragged: pins the component's slot and
        # the Box-Muller slots and formula, in either block
        mix = GaussianMixture.from_components(
            [
                (0.4, [1.0, 0.0], np.eye(2)),
                (0.6, [0.0, 1.0], 0.5 * np.eye(2)),
            ]
        )
        sys = JumpLinearSystem(modes=[np.eye(2)])
        big_t = 4096 + 3
        cfg = SimConfig(trajectories=big_t, k_max=0, seed=99)
        stats = simulate_ensemble(sys, IIDSwitching([1.0]), mix, cfg)
        scales = np.array([1.0, np.sqrt(0.5)])
        comp_u, z, _ = ensemble_draws(99, 2, 0, big_t)
        comp = (comp_u >= 0.4).astype(int)
        x = mix.means[comp] + scales[comp, None] * z
        normsq = np.einsum("ti,ti->t", x, x)[:, None]
        assert stats.mean_sq[0] == normsq.mean(axis=0)[0]
        assert stats.stderr[0] == (
            normsq.std(axis=0, ddof=1)[0] / np.sqrt(big_t)
        )


class TestSimulateEnsemble:
    def test_zero_modes_absorb(self):
        sys = JumpLinearSystem(modes=[np.zeros((2, 2))])
        mix = GaussianMixture.from_components(
            [(1.0, [1.0, 2.0], np.eye(2))]
        )
        stats = simulate_ensemble(
            sys, IIDSwitching([1.0]), mix,
            SimConfig(trajectories=100, k_max=5, seed=1),
        )
        assert_array_equal(stats.mean_sq[1:], np.zeros(5))
        assert_array_equal(stats.stderr[1:], np.zeros(5))

    def test_deterministic_single_mode_exact(self):
        sys = JumpLinearSystem(modes=[0.5 * np.eye(2)])
        stats = simulate_ensemble(
            sys, IIDSwitching([1.0]), point_mass([1.0, 0.0]),
            SimConfig(trajectories=50, k_max=8, seed=2),
        )
        assert_array_equal(stats.stderr, np.zeros(9))
        for k in range(9):
            assert stats.mean_sq[k] == pytest.approx(0.25**k, rel=1e-15)

    def test_scalar_iid_against_analytic(self):
        sys = scalar_system(2.0, 0.1)
        law = IIDSwitching([0.5, 0.5])
        stats = simulate_ensemble(
            sys, law, point_mass([1.0]),
            SimConfig(trajectories=40_000, k_max=10, seed=3),
        )
        analytic = 2.005 ** np.arange(11)
        for k in range(11):
            band = 4 * stats.stderr[k] if stats.stderr[k] > 0 else 1e-12
            assert abs(stats.mean_sq[k] - analytic[k]) <= band

    def test_seed_determinism(self):
        sys = scalar_system(1.1, 0.4)
        law = IIDSwitching([0.3, 0.7])
        mix = GaussianMixture.from_components([(1.0, [1.0], [[0.5]])])
        cfg = SimConfig(trajectories=5000, k_max=12, seed=42)
        a = simulate_ensemble(sys, law, mix, cfg)
        b = simulate_ensemble(sys, law, mix, cfg)
        assert_array_equal(a.mean_sq, b.mean_sq)
        assert_array_equal(a.stderr, b.stderr)

    def test_mode_picks_follow_initial_draws(self):
        # step k picks from slot 2 + k, after the component's slot and
        # one Box-Muller pair; modes 2 and 1/2 keep every product exact
        sys = scalar_system(2.0, 0.5)
        cfg = SimConfig(trajectories=5, k_max=3, seed=7)
        stats = simulate_ensemble(
            sys, IIDSwitching([0.5, 0.5]), point_mass([1.0]), cfg
        )
        x = np.ones(5)
        for k in range(1, 4):
            x = x * np.where(reference_uniforms(7, 2 + k, 5) >= 0.5, 0.5, 2.0)
            assert stats.mean_sq[k] == np.mean(x * x)

    @pytest.mark.parametrize("sampling, m", [
        pytest.param("marginal", 2, id="marginal"),
        pytest.param("path", 2, id="path"),
        # past the all-modes product's mode count, at n = 2
        pytest.param("path", 12, id="path-m12"),
    ])
    def test_ragged_block_thread_invariance(self, sampling, m):
        if m == 2:
            sys = scalar_system(1.1, 0.6)
            law = MarkovSwitching(P=[[0.2, 0.8], [0.6, 0.4]],
                                  pi0=[0.3, 0.7])
            mix = GaussianMixture.from_components([(1.0, [1.0], [[0.4]])])
        else:
            sys, law, mix = random_chain(2, m, seed=67)
        cfg = SimConfig(trajectories=4097, k_max=6, seed=67,
                        sampling=sampling)
        runs = [
            simulate_ensemble(sys, law, mix, cfg, threads=t)
            for t in (1, 2, 4)
        ]
        for other in runs[1:]:
            assert_array_equal(other.mean_sq, runs[0].mean_sq)
            assert_array_equal(other.stderr, runs[0].stderr)
            assert_array_equal(other.heavy_tail, runs[0].heavy_tail)

    # m = 3 takes the all-modes product, m = 12 the gathered one
    @pytest.mark.parametrize("m", [3, 12])
    @pytest.mark.parametrize("sampling", ["marginal", "path"])
    def test_matches_plain_loop_reference(self, sampling, m):
        sys, law, mix = random_chain(3, m, seed=71 + m)
        cfg = SimConfig(trajectories=4096 + 5, k_max=5, seed=73,
                        sampling=sampling)
        stats = simulate_ensemble(sys, law, mix, cfg)
        assert_allclose(stats.mean_sq, reference_mean_sq(sys, law, mix, cfg),
                        rtol=1e-13, atol=0.0)

    def test_equal_norm_paths_give_the_exact_mean(self):
        # every path keeps ||x(k)||^2 = 0.95^k ||x0||^2, so the ensemble
        # mean is exact up to the rounding of the samples and of the sum
        rng = np.random.default_rng(79)
        modes = [np.sqrt(0.95) * np.linalg.qr(rng.standard_normal((3, 3)))[0]
                 for _ in range(3)]
        x0 = np.array([0.7, -1.3, 2.1])
        stats = simulate_ensemble(
            JumpLinearSystem(modes=modes), IIDSwitching([0.2, 0.3, 0.5]),
            point_mass(x0), SimConfig(trajectories=40_960, k_max=20, seed=83),
        )
        exact = 0.95 ** np.arange(21) * (x0 @ x0)
        assert_allclose(stats.mean_sq, exact, rtol=1e-13, atol=0.0)
        assert np.all(stats.stderr <= 1e-14 * stats.mean_sq)

    def test_thread_count_independence(self):
        rng = np.random.default_rng(17)
        mats = [0.6 * rng.standard_normal((2, 2)) for _ in range(2)]
        sys = JumpLinearSystem(modes=mats)
        law = MarkovSwitching(P=[[0.2, 0.8], [0.5, 0.5]], pi0=[1.0, 0.0])
        mix = GaussianMixture.from_components(
            [(1.0, [1.0, -1.0], 0.3 * np.eye(2))]
        )
        cfg = SimConfig(trajectories=9000, k_max=15, seed=23,
                        sampling="path")
        serial = simulate_ensemble(sys, law, mix, cfg, threads=1)
        threaded = simulate_ensemble(sys, law, mix, cfg, threads=4)
        assert_array_equal(serial.mean_sq, threaded.mean_sq)
        assert_array_equal(serial.stderr, threaded.stderr)
        assert_array_equal(serial.heavy_tail, threaded.heavy_tail)

    def test_memory_does_not_grow_with_steps(self):
        # each step's squared norms are reduced before the next step, so
        # the peak holds the states and a few rows of T, not k_max rows
        sys, law, mix = random_chain(2, 3, seed=89)
        peaks = []
        for k_max in (10, 400):
            cfg = SimConfig(trajectories=2 * 4096 + 5, k_max=k_max, seed=97,
                            sampling="path")
            peaks.append(traced_peak(simulate_ensemble, sys, law, mix, cfg)[1])
        assert abs(peaks[1] - peaks[0]) < 2**20

    def test_schedule_read_one_row_per_step(self):
        # each step forms its mode cuts from its own marginal row, so the
        # peak grows with k_max by the 33 bytes of outputs per step (three
        # floats, one int64 count, one flag) and no (k_max, m) table; at
        # 64 modes such a table grows 1 MB from 500 to 2,500 steps, and
        # few steps keep the traced run short
        m = 64
        sys = scalar_system(*np.linspace(0.3, 0.6, m))
        mix = point_mass([1.0])
        law = MarkovSwitching(P=0.9 * np.eye(m) + 0.1 / m, pi0=np.eye(m)[0])
        simulate_ensemble(sys, law, mix, SimConfig(1, 10))  # warm-up
        peaks = {}
        for k_max in (500, 2_500):
            peaks[k_max] = traced_peak(simulate_ensemble, sys, law, mix,
                                       SimConfig(1, k_max))[1]
        outputs = 33 * (2_500 - 500)
        assert peaks[2_500] - peaks[500] - outputs < 128 * 1024

    def test_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"{thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = SimConfig(trajectories=2 * 4096 + 5, k_max=3, seed=101)
        stats = simulate_ensemble(scalar_system(0.5, 0.9),
                                  IIDSwitching([0.5, 0.5]),
                                  point_mass([1.0]), cfg, threads=2)
        assert stats.k_max == 3

    def test_marginal_agreement_random_instance(self):
        rng = np.random.default_rng(19)
        mats = []
        for _ in range(2):
            a = rng.standard_normal((2, 2))
            a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
            mats.append(a)
        sys = JumpLinearSystem(modes=mats)
        law = MarkovSwitching(P=[[0.6, 0.4], [0.3, 0.7]], pi0=[0.5, 0.5])
        mix = GaussianMixture.from_components(
            [
                (0.5, [1.0, 0.0], 0.2 * np.eye(2)),
                (0.5, [-1.0, 1.0], 0.1 * np.eye(2)),
            ]
        )
        stats = simulate_ensemble(
            sys, law, mix, SimConfig(trajectories=30_000, k_max=20, seed=29)
        )
        recs = w2_trajectory(sys, law, mix, 20)
        for rec in recs:
            band = 4 * stats.stderr[rec.k]
            assert abs(stats.mean_sq[rec.k] - rec.w2) <= max(band, 1e-12)

    def test_sequence_law_is_noise_free_in_modes(self):
        sys = scalar_system(2.0, 0.1)
        law = SequenceSwitching((1, 2))
        stats = simulate_ensemble(
            sys, law, point_mass([1.0]),
            SimConfig(trajectories=10, k_max=6, seed=31),
        )
        recs = w2_trajectory(sys, law, point_mass([1.0]), 6)
        for rec in recs:
            assert stats.mean_sq[rec.k] == pytest.approx(rec.w2, rel=1e-12)
            # identical samples; anything above rounding level would
            # mean the mode draws actually varied
            assert stats.stderr[rec.k] <= 1e-12 * max(rec.w2, 1.0)
        assert not stats.heavy_tail.any()

    def test_schedule_law_supported(self):
        sys = scalar_system(0.9, 0.5)
        law = ScheduleSwitching([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        stats = simulate_ensemble(
            sys, law, point_mass([1.0]),
            SimConfig(trajectories=20_000, k_max=8, seed=37),
        )
        recs = w2_trajectory(sys, law, point_mass([1.0]), 8)
        for rec in recs:
            band = 4 * stats.stderr[rec.k]
            assert abs(stats.mean_sq[rec.k] - rec.w2) <= max(band, 1e-12)

    def test_path_requires_markov(self):
        sys = scalar_system(0.5)
        with pytest.raises(ValueError, match="path sampling requires"):
            simulate_ensemble(
                sys, IIDSwitching([1.0]), point_mass([1.0]),
                SimConfig(trajectories=10, k_max=2, sampling="path"),
            )

    def test_path_equals_marginal_for_memoryless_chain(self):
        # every row of P equal to pi makes the chain memoryless, so the
        # two sampling semantics consume identical cut points and the
        # shared streams must give bit-identical ensembles
        sys = scalar_system(1.2, 0.5)
        pi = np.array([0.35, 0.65])
        law = MarkovSwitching(P=np.tile(pi, (2, 1)), pi0=[1.0, 0.0])
        mix = GaussianMixture.from_components([(1.0, [1.0], [[0.2]])])
        cfg_m = SimConfig(trajectories=4000, k_max=10, seed=41)
        cfg_p = SimConfig(trajectories=4000, k_max=10, seed=41,
                          sampling="path")
        a = simulate_ensemble(sys, law, mix, cfg_m)
        b = simulate_ensemble(sys, law, mix, cfg_p)
        assert_array_equal(a.mean_sq, b.mean_sq)

    def test_path_sampling_stable_chain_decays(self):
        sys = scalar_system(1.2, 0.5)
        p = [[0.3, 0.7], [0.7, 0.3]]
        assert markov_test(sys, p).evidence < 0.9
        law = MarkovSwitching(P=p, pi0=[0.5, 0.5])
        stats = simulate_ensemble(
            sys, law, point_mass([1.0]),
            SimConfig(trajectories=10_000, k_max=100, seed=43,
                      sampling="path"),
        )
        assert stats.mean_sq[100] < stats.mean_sq[0]
        # overall downward trend, not just the endpoint
        assert stats.mean_sq[100] < 0.1 * stats.mean_sq[0]

    def test_path_sampling_unstable_chain_grows(self):
        sys = scalar_system(1.5, 1.2)
        p = [[0.3, 0.7], [0.7, 0.3]]
        assert markov_test(sys, p).evidence > 1.1
        law = MarkovSwitching(P=p, pi0=[0.5, 0.5])
        stats = simulate_ensemble(
            sys, law, point_mass([1.0]),
            SimConfig(trajectories=5000, k_max=30, seed=47,
                      sampling="path"),
        )
        assert stats.mean_sq[30] >= 10 * stats.mean_sq[0]

    def test_heavy_tail_flagged_in_unstable_regime(self):
        sys = scalar_system(2.0, 0.1)
        stats = simulate_ensemble(
            sys, IIDSwitching([0.5, 0.5]), point_mass([1.0]),
            SimConfig(trajectories=50_000, k_max=10, seed=53),
        )
        assert stats.heavy_tail.any()

    @pytest.mark.parametrize("sampling", ["marginal", "path"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflow_raises_numerical_error(self, sampling, threads):
        # huge states and a -1e3 mode: the batched matmul overflows midway
        sys = JumpLinearSystem(
            modes=[[[1e3, 1.0], [0.0, -1e3]], [[0.5, 0.0], [0.3, 0.5]]]
        )
        mix = GaussianMixture.from_components(
            [(0.5, [1e150, -1e150], 1e300 * np.eye(2)),
             (0.5, [1.0, 0.0], np.eye(2))]
        )
        law = MarkovSwitching(P=[[0.5, 0.5], [0.2, 0.8]], pi0=[0.5, 0.5])
        cfg = SimConfig(trajectories=5000, k_max=120, sampling=sampling)
        with pytest.raises(NumericalError, match=r"overflow float64 at k=2$"):
            simulate_ensemble(sys, law, mix, cfg, threads=threads)

    def test_huge_finite_norms_keep_exact_statistics(self):
        # squared norms up to ~2^(20k): their squares overflow from k=26
        # on, so the plain sample std was inf; scaling the modes by 2^-10
        # scales every sample by 2^(-20k) exactly. Under the reference
        # draws, the standard error first passes 1e154 at k=43
        law, mix = IIDSwitching([0.5, 0.5]), point_mass([1.0])
        cfg = SimConfig(trajectories=50, k_max=60, seed=3)
        big = simulate_ensemble(scalar_system(1024.0, 0.5), law, mix, cfg)
        small = simulate_ensemble(scalar_system(1.0, 2.0**-11), law, mix, cfg)
        powers = 20 * np.arange(61)
        assert np.all(np.isfinite(big.stderr))
        assert big.stderr[43] > 1e154
        assert_allclose(big.mean_sq, np.ldexp(small.mean_sq, powers),
                        rtol=1e-13)
        assert_allclose(big.stderr, np.ldexp(small.stderr, powers),
                        rtol=1e-12)
        assert_array_equal(big.heavy_tail, small.heavy_tail)

    def test_validation_errors_surface(self):
        sys = scalar_system(1.0, 2.0)
        with pytest.raises(ValueError, match="probability sum"):
            simulate_ensemble(
                sys, IIDSwitching([0.6, 0.6]), point_mass([1.0]),
                SimConfig(trajectories=10, k_max=2),
            )

    def test_samples_field(self):
        sys = scalar_system(0.5)
        stats = simulate_ensemble(
            sys, IIDSwitching([1.0]), point_mass([1.0]),
            SimConfig(trajectories=77, k_max=3),
        )
        assert_array_equal(stats.samples, np.full(4, 77))
        assert stats.k_max == 3


def weyl(lo, count):
    """G*(t+1) mod 2^64 for trajectories t = lo .. lo + count - 1."""
    return np.arange(lo + 1, lo + count + 1, dtype=np.uint64) * GAMMA


class TestGenerator:
    """The counter-based SplitMix64 against a sequential one in Python
    ints (``reference.splitmix64``)."""

    @pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
    def test_words_match_sequential_splitmix64(self, seed):
        outputs = list(itertools.islice(splitmix64(seed), 6))
        for d, key in enumerate(outputs):
            # key(d) in Python ints, word(d, t) in uint64 arrays
            assert _mix((seed + GAMMA * (d + 1)) & MASK) == key
            assert _mix(weyl(0, 8) + key).tolist() == list(
                itertools.islice(splitmix64(key), 8))
            assert_array_equal(_uniforms(seed, d, weyl(0, 8)),
                               reference_uniforms(seed, d, 8))
            assert_array_equal(_uniforms(seed, d, weyl(5, 3)),
                               reference_uniforms(seed, d, 8)[5:])

    def test_far_slots_and_trajectories(self):
        # output d from state s is output 0 from state s + G*d, so far
        # slots and trajectories need no long sequential run
        seed, d, t = 2**64 - 1, 10**15, 2**40
        key = next(splitmix64((seed + GAMMA * d) & MASK))
        word = next(splitmix64((key + GAMMA * t) & MASK))
        assert _uniforms(seed, d, weyl(t, 1))[0] == (word >> 11) * 2.0**-53

    def test_uniform_histogram(self):
        # 64 bins of 2^16 uniforms: chi-square (63 degrees of freedom)
        # below its 1e-6 upper quantile, scipy.stats.chi2.isf(1e-6, 63)
        counts = np.bincount(
            (_uniforms(2024, 0, weyl(0, 2**16)) * 64).astype(int),
            minlength=64)
        expected = 2**16 / 64
        assert np.sum((counts - expected) ** 2 / expected) < 131.37

    def test_neighbours_uncorrelated(self):
        big_n = 2**16
        u = _uniforms(2025, 5, weyl(0, big_n + 1))
        next_slot = _uniforms(2025, 6, weyl(0, big_n))
        for a, b in ((u[:-1], next_slot), (u[:-1], u[1:])):
            assert abs(np.corrcoef(a, b)[0, 1]) < 5 / np.sqrt(big_n)

    def test_box_muller_moments(self):
        # n = 3: two pairs, the last sine dropped
        z = _normals(2026, 3, weyl(0, 2**15)).ravel()
        size = z.size
        assert abs(z.mean()) < 5 / np.sqrt(size)
        assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / size)
        kurtosis = np.mean(z**4) / z.var() ** 2
        assert abs(kurtosis - 3.0) < 5 * np.sqrt(24 / size)


def recorded_draws(monkeypatch, sys, law, mix, cfg):
    """Every draw of one run, read from the simulator's own calls: the
    uniforms of each slot, {d: (T,)}, and the (n, T) normals."""
    slots, normals = {}, np.full((sys.n, cfg.trajectories), np.nan)
    # the trajectories of the counters G*(t+1): G is odd, so invertible
    trajectory = lambda counters: counters * pow(GAMMA, -1, 2**64) - 1

    def uniforms(seed, d, counters):
        u = _uniforms(seed, d, counters)
        row = slots.setdefault(d, np.full(cfg.trajectories, np.nan))
        row[trajectory(counters)] = u
        return u

    def gaussians(seed, n, counters):
        z = _normals(seed, n, counters)
        normals[:, trajectory(counters)] = z
        return z

    with monkeypatch.context() as patch:
        patch.setattr(mcsim, "_uniforms", uniforms)
        patch.setattr(mcsim, "_normals", gaussians)
        simulate_ensemble(sys, law, mix, cfg)
    assert not np.isnan(normals).any()
    assert not any(np.isnan(row).any() for row in slots.values())
    return slots, normals


class TestDrawsPerTrajectory:
    """A trajectory's draws depend on (seed, slot, trajectory) only."""

    def test_independent_of_ensemble_size(self, monkeypatch):
        sys, law, mix = random_chain(3, 3, seed=103)
        runs = [
            recorded_draws(monkeypatch, sys, law, mix,
                           SimConfig(trajectories=big_t, k_max=3, seed=107,
                                     sampling="path"))
            for big_t in (5, 4096 + 5)
        ]
        (small, small_z), (large, large_z) = runs
        # slot 0, four Box-Muller slots, three mode picks
        assert sorted(small) == sorted(large) == list(range(8))
        for d in small:
            assert_array_equal(small[d], large[d][:5])
        assert_array_equal(small_z, large_z[:, :5])

    def test_independent_of_steps(self, monkeypatch):
        sys, law, mix = random_chain(3, 3, seed=109)
        (short, short_z), (long, long_z) = [
            recorded_draws(monkeypatch, sys, law, mix,
                           SimConfig(trajectories=4096 + 5, k_max=k_max,
                                     seed=113))
            for k_max in (3, 9)
        ]
        assert sorted(short) == list(range(8))
        assert sorted(long) == list(range(14))
        for d in short:
            assert_array_equal(short[d], long[d])
        assert_array_equal(short_z, long_z)

    @pytest.mark.parametrize("m", [3, 12])
    def test_chunk_size_keeps_the_mean(self, monkeypatch, m):
        sys, law, mix = random_chain(3, m, seed=127)
        cfg = SimConfig(trajectories=300, k_max=6, seed=131,
                        sampling="path")
        default = simulate_ensemble(sys, law, mix, cfg)
        monkeypatch.setattr(mcsim, "_CHUNK", 7)
        small = simulate_ensemble(sys, law, mix, cfg)
        assert_allclose(small.mean_sq, default.mean_sq, rtol=1e-13, atol=0.0)


def step_major(samples):
    """The (T, steps) ``samples`` in the simulator's step-major layout."""
    return np.ascontiguousarray(samples.T)


def step_moments(normsq):
    """The (3, steps) mean, standard error and kurtosis of the step-major
    ``normsq``, reduced one step at a time as the simulator does."""
    return np.array([_step_moments(row) for row in normsq]).T


class TestKurtosis:
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: rng.standard_normal((5000, 3)),
            lambda rng: rng.standard_cauchy((5000, 3)) ** 2,
            lambda rng: rng.lognormal(0.0, 1.5, (5000, 3)),
        ],
        ids=["gaussian", "squared-cauchy", "log-normal"],
    )
    def test_matches_scipy(self, draw):
        scipy_stats = pytest.importorskip("scipy.stats")
        samples = draw(np.random.default_rng(59))
        oracle = scipy_stats.kurtosis(samples, axis=0, fisher=False, bias=True)
        assert_allclose(step_moments(step_major(samples))[2], oracle,
                        rtol=1e-12)

    def test_huge_samples_do_not_overflow(self):
        rng = np.random.default_rng(61)
        samples = step_major(rng.standard_cauchy((5000, 2)) ** 2)
        assert_allclose(
            step_moments(samples * 1e80)[2], step_moments(samples)[2],
            rtol=1e-12,
        )


class TestScaledMoments:
    def test_overflowing_sum_averaged_scaled(self):
        samples = np.array([[1e308, 1e308, 1.5e308], [1.0, 3.0, 2.0]])
        mean, stderr, _ = step_moments(samples)
        assert_allclose(mean, [3.5 / 3 * 1e308, 2.0], rtol=1e-15)
        assert_allclose(stderr * np.sqrt(3),
                        [np.std(samples[0] / 1e300, ddof=1) * 1e300, 1.0],
                        rtol=1e-14)

    def test_ordinary_columns_untouched(self):
        samples = np.random.default_rng(67).lognormal(0.0, 2.0, (4, 1000))
        mean, stderr, _ = step_moments(samples)
        assert_array_equal(mean, samples.mean(axis=1))
        assert_array_equal(mean, samples.T.mean(axis=0))
        assert_array_equal(stderr,
                           samples.std(axis=1, ddof=1) / np.sqrt(1000))
        assert_array_equal(stderr,
                           samples.T.std(axis=0, ddof=1) / np.sqrt(1000))

    def test_equal_huge_samples_have_zero_spread(self):
        mean, stderr, kurtosis = step_moments(np.full((1, 4), 1e308))
        assert_array_equal(mean, [1e308])
        assert_array_equal(stderr, [0.0])
        assert np.isnan(kurtosis).all()


@pytest.mark.parametrize("sampling", ["marginal", "path"])
def test_law_checked_once_per_call(monkeypatch, sampling):
    calls = []
    original = sysmodel.check_law

    def counting(law, m):
        calls.append(m)
        return original(law, m)

    monkeypatch.setattr(sysmodel, "check_law", counting)
    law = MarkovSwitching(P=[[0.9, 0.1], [0.2, 0.8]], pi0=[0.5, 0.5])
    simulate_ensemble(scalar_system(0.5, 0.9), law, point_mass([1.0]),
                      SimConfig(trajectories=10, k_max=5, sampling=sampling))
    assert calls == [2]
