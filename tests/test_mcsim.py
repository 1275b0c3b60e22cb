"""Monte Carlo simulator tests.

Statistical assertions use 4-standard-error bands around analytic
oracles computed by the moment recursion; determinism assertions demand
bit equality.
"""

import itertools
import math
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from jumpstab.matkit import NumericalError, _psd_slack, _sym_part
from jumpstab import mcsim, sysmodel
from jumpstab.mcsim import (
    EnsembleStats,
    SimConfig,
    _bits,
    _finish,
    _fold,
    _mix,
    _normals,
    _psd_factor,
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
from reference import (
    GAMMA,
    MASK,
    ensemble_draws,
    ensemble_mean_sq,
    splitmix64,
    traced_peak,
)
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


def marginal_twin(law, k_max):
    """The schedule of a Markov law's marginals: each step's mode drawn
    independently from pi0 P^k, the chain's correlation dropped."""
    return ScheduleSwitching(sysmodel.marginal_schedule(law, k_max))


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

    @pytest.mark.parametrize("n", range(1, 5))
    def test_zero_covariance_factors_to_exact_zeros(self, n):
        factor = _psd_factor(np.zeros((n, n)))
        assert factor.shape == (n, n)
        assert not factor.any() and not np.signbit(factor).any()

    def test_point_masses_draw_no_normals(self, monkeypatch):
        # every start factor is zero: x(0) is the picked means
        def refuse(*args):
            raise AssertionError("normals drawn")

        monkeypatch.setattr(mcsim, "_normals", refuse)
        zero = np.zeros((2, 2))
        mix = GaussianMixture.from_components(
            [(0.25, [2.0, -3.0], zero), (0.75, [1.0, 1.0], zero)])
        big_t = 4096 + 3
        stats = simulate_ensemble(
            JumpLinearSystem(modes=[np.eye(2)]), IIDSwitching([1.0]), mix,
            SimConfig(trajectories=big_t, k_max=0, seed=5),
        )
        comp_u, _, _ = ensemble_draws(5, 2, 0, big_t)
        assert stats.mean_sq[0] == np.where(comp_u >= 0.25, 2.0, 13.0).mean()

    def test_point_mass_beside_a_spread_component(self):
        # the point mass's rows of the normals' images are zeros
        mix = GaussianMixture.from_components(
            [(0.4, [1.0, 0.0], np.zeros((2, 2))),
             (0.6, [0.0, 1.0], 0.5 * np.eye(2))])
        big_t = 4096 + 3
        stats = simulate_ensemble(
            JumpLinearSystem(modes=[np.eye(2)]), IIDSwitching([1.0]), mix,
            SimConfig(trajectories=big_t, k_max=0, seed=99),
        )
        comp_u, z, _ = ensemble_draws(99, 2, 0, big_t)
        comp = (comp_u >= 0.4).astype(int)
        x = mix.means[comp] + np.array([0.0, np.sqrt(0.5)])[comp, None] * z
        assert stats.mean_sq[0] == np.einsum("ti,ti->t", x, x).mean()

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
        """An indefinite covariance fails numpy's Cholesky and leaves the
        pivoted one a negative residual, and is rejected as not PSD."""
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


def psd_with_rank(rng, n, rank, scale):
    """A random n x n PSD matrix of the given rank and largest
    eigenvalue about ``scale``, and an orthonormal basis of its range's
    complement."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = scale * rng.uniform(0.01, 1.0, rank)
    return (q[:, :rank] * lam) @ q[:, :rank].T, q[:, rank:]


def factor_error(factor, cov):
    """max|F F^T - S| in units of S's slack, S the symmetric part."""
    sym = _sym_part(cov)
    return np.max(np.abs(factor @ factor.T - sym)) / _psd_slack(sym)


class TestPsdFactor:
    """The sampler's factor of a start covariance, found without an
    eigensolver whatever the covariance's rank. A residual below -slack
    is left to check_mixture, whose eigvalsh decides what its Cholesky
    proof cannot: an indefinite cov, or an eigenvalue in [-slack, 0)."""

    @pytest.fixture
    def no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an eigensolver ran")

        for name in ("eig", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)

    def test_definite_is_numpy_cholesky(self, no_eigensolver):
        for n in range(1, 5):
            assert_array_equal(_psd_factor(np.eye(n)), np.eye(n))
        assert_array_equal(_psd_factor(np.diag([4.0, 9.0])),
                           np.diag([2.0, 3.0]))
        rng = np.random.default_rng(71)
        for n, scale in itertools.product(range(1, 7), (1e-6, 1.0, 1e6)):
            cov, _ = psd_with_rank(rng, n, n, scale)
            factor = _psd_factor(cov)
            assert factor.tobytes() == np.linalg.cholesky(cov).tobytes()

    def test_reproduces_psd_covariance(self, no_eigensolver):
        rng = np.random.default_rng(73)
        for n, scale in itertools.product(range(1, 7), (1e-6, 1.0, 1e6)):
            for rank in range(n + 1):
                cov, _ = psd_with_rank(rng, n, rank, scale)
                factor = _psd_factor(cov)
                assert np.isfinite(factor).all()
                assert factor_error(factor, cov) <= 1.0, (n, rank, scale)

    def test_rank_deficient(self, no_eigensolver):
        # one pivot, and a residual of exact zeros: the null direction
        # (2, -1) gets no variance at all
        cov = np.outer([1.0, 2.0], [1.0, 2.0])
        factor = _psd_factor(cov)
        assert_array_equal(factor, [[1.0, 0.0], [2.0, 0.0]])
        assert_array_equal(np.array([2.0, -1.0]) @ factor, [0.0, 0.0])

    def test_asymmetry_within_half_slack(self, no_eigensolver):
        """check_mixture accepts an asymmetry up to slack/2; Cholesky reads
        the lower triangle, the pivoted factor the symmetric part."""
        rng = np.random.default_rng(79)
        for n, scale in itertools.product(range(2, 7), (1e-6, 1.0, 1e6)):
            for rank in (n - 1, n):
                cov, _ = psd_with_rank(rng, n, rank, scale)
                skew = rng.uniform(-1.0, 1.0, (n, n))
                skew -= skew.T
                skew *= 0.24 * _psd_slack(cov) / np.abs(skew).max()
                cov = cov + skew
                mix = GaussianMixture([1.0], np.zeros((1, n)), cov[None])
                assert sysmodel.check_mixture(mix) == []
                factor = _psd_factor(cov)
                assert np.isfinite(factor).all()
                assert factor_error(factor, cov) <= 1.0, (n, rank, scale)

    @staticmethod
    def minus_half_slack():
        """(n, rank, scale, S) with S = P - (slack/2) v v^T, P PSD of rank
        r < n and v in its null space, which check_mixture accepts: n =
        1-6, every rank below n, scales 1e-6, 1 and 1e6, seeded."""
        rng = np.random.default_rng(83)
        for n, scale in itertools.product(range(1, 7), (1e-6, 1.0, 1e6)):
            for rank in range(n):
                psd, null = psd_with_rank(rng, n, rank, scale)
                slack = _psd_slack(psd)
                yield n, rank, scale, \
                    psd - 0.5 * slack * np.outer(null[:, 0], null[:, 0])

    def test_eigenvalue_at_minus_half_slack(self):
        """The residual is about -(slack/2) w w^T, |w|^2 <= 1 + |W|_F^2,
        with W = R11^-1 R12 of the pivoted factor; Higham's Lemma 10.13
        bounds |W|_F^2 by (n - r)(4^r - 1)/3, and at n <= 2 pivoting
        keeps |W| <= 1, so the error stays within slack there."""
        for n, rank, scale, cov in self.minus_half_slack():
            factor = _psd_factor(cov)
            assert np.isfinite(factor).all()
            bound = 1.0 if n <= 2 else \
                0.5 * (1.0 + (n - rank) * (4**rank - 1) / 3)
            assert factor_error(factor, cov) <= bound, (n, rank, scale)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the pivoted factor's residual grows with "
                              "|R11^-1 R12| at n >= 3: up to 1.65 slack "
                              "here, at n = 6")
    def test_accepted_covariance_within_slack(self):
        """Every covariance check_mixture accepts gets a factor within its
        slack, the eigenvalue at -slack/2 included."""
        for n, rank, scale, cov in self.minus_half_slack():
            mix = GaussianMixture([1.0], np.zeros((1, n)), cov[None])
            if sysmodel.check_mixture(mix):
                pytest.fail(f"check_mixture rejects {(n, rank, scale)}")
            assert factor_error(_psd_factor(cov), cov) <= 1.0, \
                (n, rank, scale)

    def test_slack_relative_to_scale(self):
        v = np.array([0.1, 0.7])
        cov = 1e9 * np.outer(v, v)
        assert factor_error(_psd_factor(cov), cov) <= 1.0
        assert _psd_factor(np.diag([1e9, -2e-10]))[1, 1] == 0.0
        with pytest.raises(ValueError, match="not PSD"):
            _psd_factor(np.diag([1.0, -2e-10]))


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

    @pytest.mark.parametrize("marginal, m", [
        pytest.param(True, 2, id="marginal"),
        pytest.param(False, 2, id="path"),
        # past the all-modes product's mode count, at n = 2
        pytest.param(False, 12, id="path-m12"),
    ])
    def test_ragged_block_thread_invariance(self, marginal, m):
        if m == 2:
            sys = scalar_system(1.1, 0.6)
            law = MarkovSwitching(P=[[0.2, 0.8], [0.6, 0.4]],
                                  pi0=[0.3, 0.7])
            mix = GaussianMixture.from_components([(1.0, [1.0], [[0.4]])])
        else:
            sys, law, mix = random_chain(2, m, seed=67)
        if marginal:
            law = marginal_twin(law, 6)
        cfg = SimConfig(trajectories=4097, k_max=6, seed=67)
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
    @pytest.mark.parametrize("kind", ["iid", "marginal", "sequence", "path"])
    def test_matches_plain_loop_reference(self, kind, m):
        # "marginal" is the schedule of the chain's first three
        # marginals, the last one repeated
        sys, law, mix = random_chain(3, m, seed=71 + m)
        law = {"iid": IIDSwitching(law.pi0),
               "marginal": marginal_twin(law, 3),
               "sequence": SequenceSwitching((m, 1, 2)),
               "path": law}[kind]
        cfg = SimConfig(trajectories=4096 + 5, k_max=5, seed=73)
        stats = simulate_ensemble(sys, law, mix, cfg)
        assert_allclose(stats.mean_sq,
                        ensemble_mean_sq(sys, law, mix, 73, 4096 + 5, 5),
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

    @pytest.mark.parametrize("n, law, sampling", [
        (4, IIDSwitching([0.2, 0.3, 0.5]), "marginal"),
        (3, ScheduleSwitching([[0.9, 0.05, 0.05], [0.2, 0.3, 0.5]]),
         "marginal"),
        (2, MarkovSwitching([[0.3, 0.3, 0.4], [0.6, 0.2, 0.2],
                             [0.1, 0.1, 0.8]], [0.5, 0.25, 0.25]), "path"),
    ], ids=["iid", "schedule", "markov-path"])
    def test_peak_grows_by_the_states_and_two_rows(self, n, law, sampling):
        # per trajectory: its state, its squared norm and one scratch
        # float, and under path sampling its last mode in one byte; every
        # other array holds one block of 4096 trajectories
        rng = np.random.default_rng(n)
        sys = JumpLinearSystem(modes=[rng.standard_normal((n, n))
                                      for _ in range(3)])
        mix = GaussianMixture.from_components(
            [(0.4, np.zeros(n), np.eye(n)), (0.6, np.ones(n), np.eye(n))])
        peaks = [traced_peak(simulate_ensemble, sys, law, mix,
                             SimConfig(blocks * 4096, 5, seed=3,
                                       sampling=sampling))[1]
                 for blocks in (4, 12)]
        per_trajectory = 8 * (n + 2) + (sampling == "path")
        # 4 KiB of slack for the interpreter's own allocations
        assert peaks[1] - peaks[0] <= 8 * 4096 * per_trajectory + 4096

    @pytest.mark.parametrize("n, law, sampling", [
        (4, IIDSwitching([0.2, 0.3, 0.5]), "marginal"),
        (3, ScheduleSwitching([[0.9, 0.05, 0.05], [0.2, 0.3, 0.5]]),
         "marginal"),
        (2, MarkovSwitching([[0.3, 0.3, 0.4], [0.6, 0.2, 0.2],
                             [0.1, 0.1, 0.8]], [0.5, 0.25, 0.25]), "path"),
    ], ids=["iid", "schedule", "markov-path"])
    def test_peak_grows_by_the_states_only(self, n, law, sampling):
        # per trajectory: its state, and under path sampling its last
        # mode in one byte; each block's squared norms are folded into
        # the step's moments in one block buffer, so no other array
        # grows with the ensemble
        rng = np.random.default_rng(n)
        sys = JumpLinearSystem(modes=[rng.standard_normal((n, n))
                                      for _ in range(3)])
        mix = GaussianMixture.from_components(
            [(0.4, np.zeros(n), np.eye(n)), (0.6, np.ones(n), np.eye(n))])
        peaks = [traced_peak(simulate_ensemble, sys, law, mix,
                             SimConfig(blocks * 4096, 5, seed=3,
                                       sampling=sampling))[1]
                 for blocks in (4, 12)]
        per_trajectory = 8 * n + (sampling == "path")
        # 4 KiB of slack for the interpreter's own allocations
        assert peaks[1] - peaks[0] <= 8 * 4096 * per_trajectory + 4096

    def test_overflow_in_the_ragged_block_names_its_step(self):
        # at seed 2545 only trajectory 8196, the last of the ragged third
        # block, draws u(0, t) above the cut, so it alone starts at 1e150;
        # mode 10 takes its squared norm to 1e308 at k = 4 and past the
        # largest float at k = 5, and every other one's to 1e10
        u0 = reference_uniforms(2545, 0, 2 * 4096 + 5)
        second, top = np.sort(u0)[-2:]
        assert u0.argmax() == 2 * 4096 + 4
        cut = (second + top) / 2
        mix = GaussianMixture.from_components(
            [(cut, [1.0], [[0.0]]), (1.0 - cut, [1e150], [[0.0]])])
        cfg = lambda k_max: SimConfig(2 * 4096 + 5, k_max, seed=2545)
        stats = simulate_ensemble(scalar_system(10.0), IIDSwitching([1.0]),
                                  mix, cfg(4))
        assert_allclose(stats.mean_sq[4], (1e308 + 8196e8) / 8197,
                        rtol=1e-14)
        with pytest.raises(NumericalError, match=r"overflow float64 at k=5$"):
            simulate_ensemble(scalar_system(10.0), IIDSwitching([1.0]),
                              mix, cfg(8))

    @pytest.mark.parametrize("law, sampling", [
        (IIDSwitching([0.5, 0.5]), "marginal"),
        (ScheduleSwitching([[0.9, 0.1], [0.2, 0.8]]), "marginal"),
        (SequenceSwitching((1, 2, 2)), "marginal"),
        (MarkovSwitching([[0.3, 0.7], [0.7, 0.3]], [0.5, 0.5]), "path"),
    ], ids=["iid", "schedule", "sequence", "markov-path"])
    def test_one_trajectory_peak_does_not_grow_with_steps(self, law,
                                                          sampling):
        # one trajectory holds one state and one draw per step, so the
        # peak grows with k_max only by the 33 bytes of outputs per step
        # (three floats, one int64 count, one flag)
        sys, mix = scalar_system(0.9, 0.5), point_mass([1.0])
        simulate_ensemble(sys, law, mix, SimConfig(1, 10, sampling=sampling))
        peaks = {k_max: traced_peak(simulate_ensemble, sys, law, mix,
                                    SimConfig(1, k_max, sampling=sampling))[1]
                 for k_max in (100, 1_100)}
        assert peaks[1_100] - peaks[100] - 33 * 1_000 < 8 * 1024

    def test_path_ensemble_matches_the_chain_from_one_mode(self):
        # pi0 = (1, 0) is the law of the mode before step 1, so step 1
        # draws from P's first row: the chain gives W^2(1) = 0.607 and
        # W^2(2) = 0.451749, where a marginal route gave 0.5707014 at k=2
        sys = scalar_system(1.2, 0.5)
        law = MarkovSwitching(P=[[0.3, 0.7], [0.7, 0.3]], pi0=[1.0, 0.0])
        stats = simulate_ensemble(
            sys, law, point_mass([1.0]),
            SimConfig(trajectories=100_000, k_max=2, seed=59,
                      sampling="path"),
        )
        recs = w2_trajectory(sys, law, point_mass([1.0]), 2)
        assert_allclose([r.w2 for r in recs], [1.0, 0.607, 0.451749],
                        rtol=1e-12)
        for rec in recs[1:]:
            assert abs(stats.mean_sq[rec.k] - rec.w2) <= 4 * stats.stderr[
                rec.k]

    def test_schedule_read_one_row_per_step(self):
        # each step forms its mode cuts from its own chain pair, so the
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
        assert stats.mean_sq.size == 4

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
        # the analytic trajectory steps the chain, so the ensemble
        # follows its paths
        stats = simulate_ensemble(
            sys, law, mix, SimConfig(trajectories=30_000, k_max=20, seed=29,
                                     sampling="path")
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
        # every row of P equal to pi makes the chain memoryless, so its
        # paths consume the cut points of IIDSwitching(pi), and the
        # shared streams must give bit-identical ensembles
        sys = scalar_system(1.2, 0.5)
        pi = np.array([0.35, 0.65])
        mix = GaussianMixture.from_components([(1.0, [1.0], [[0.2]])])
        cfg = SimConfig(trajectories=4000, k_max=10, seed=41)
        iid = simulate_ensemble(sys, IIDSwitching(pi), mix, cfg)
        for pi0 in ([1.0, 0.0], [0.3, 0.7]):
            law = MarkovSwitching(P=np.tile(pi, (2, 1)), pi0=pi0)
            chain = simulate_ensemble(sys, law, mix, cfg)
            assert_array_equal(chain.mean_sq, iid.mean_sq)
            assert_array_equal(chain.stderr, iid.stderr)

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
        if sampling == "marginal":
            law = marginal_twin(law, 120)
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

    def test_fields(self):
        """One row per step k = 0 .. k_max; the trajectory count is the
        config's, so the stats do not repeat it."""
        sys = scalar_system(0.5)
        stats = simulate_ensemble(
            sys, IIDSwitching([1.0]), point_mass([1.0]),
            SimConfig(trajectories=77, k_max=3),
        )
        assert EnsembleStats._fields == ("mean_sq", "stderr", "heavy_tail")
        assert all(len(field) == 4 for field in stats)


def weyl(lo, count):
    """G*(t+1) mod 2^64 for trajectories t = lo .. lo + count - 1."""
    return np.arange(lo + 1, lo + count + 1, dtype=np.uint64) * GAMMA


def uniforms(seed, d, lo, count):
    """u(d, t) for t = lo .. lo + count - 1, from the simulator's words."""
    return _bits(seed, d, lo, weyl(0, count),
                 *np.empty((2, count), np.uint64)) * 2.0**-53


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
            assert_array_equal(uniforms(seed, d, 0, 8),
                               reference_uniforms(seed, d, 8))
            assert_array_equal(uniforms(seed, d, 5, 3),
                               reference_uniforms(seed, d, 8)[5:])

    def test_far_slots_and_trajectories(self):
        # output d from state s is output 0 from state s + G*d, so far
        # slots and trajectories need no long sequential run
        seed, d, t = 2**64 - 1, 10**15, 2**40
        key = next(splitmix64((seed + GAMMA * d) & MASK))
        word = next(splitmix64((key + GAMMA * t) & MASK))
        assert uniforms(seed, d, t, 1)[0] == (word >> 11) * 2.0**-53

    def test_uniform_histogram(self):
        # 64 bins of 2^16 uniforms: chi-square (63 degrees of freedom)
        # below its 1e-6 upper quantile, scipy.stats.chi2.isf(1e-6, 63)
        counts = np.bincount(
            (uniforms(2024, 0, 0, 2**16) * 64).astype(int),
            minlength=64)
        expected = 2**16 / 64
        assert np.sum((counts - expected) ** 2 / expected) < 131.37

    def test_neighbours_uncorrelated(self):
        big_n = 2**16
        u = uniforms(2025, 5, 0, big_n + 1)
        next_slot = uniforms(2025, 6, 0, big_n)
        for a, b in ((u[:-1], next_slot), (u[:-1], u[1:])):
            assert abs(np.corrcoef(a, b)[0, 1]) < 5 / np.sqrt(big_n)

    def test_box_muller_moments(self):
        # n = 3: two pairs, the last sine dropped
        z = _normals(2026, 3, 0, weyl(0, 2**15)).ravel()
        size = z.size
        assert abs(z.mean()) < 5 / np.sqrt(size)
        assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / size)
        kurtosis = np.mean(z**4) / z.var() ** 2
        assert abs(kurtosis - 3.0) < 5 * np.sqrt(24 / size)


def recorded_draws(monkeypatch, sys, law, mix, cfg):
    """Every draw of one run, read from the simulator's own calls: the
    uniforms of each slot, {d: (T,)}, and the (n, T) normals."""
    slots, normals = {}, np.full((sys.n, cfg.trajectories), np.nan)

    # every word helper call gets the counters G*(i+1) of a block's
    # offsets i, and draws trajectories lo .. lo + out.size - 1
    def bits(seed, d, lo, base, out, tmp):
        assert_array_equal(base[:out.size], weyl(0, out.size))
        words = _bits(seed, d, lo, base, out, tmp)
        row = slots.setdefault(d, np.full(cfg.trajectories, np.nan))
        row[lo:lo + words.size] = words * 2.0**-53
        return words

    def gaussians(seed, n, lo, base):
        z = _normals(seed, n, lo, base)
        normals[:, lo:lo + base.size] = z
        return z

    with monkeypatch.context() as patch:
        patch.setattr(mcsim, "_bits", bits)
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

    @pytest.mark.parametrize("sampling", ["marginal", "path"])
    def test_independent_of_chunking(self, monkeypatch, sampling):
        # each block draws its own slots: 586 blocks of 7, the last of 6
        sys, law, mix = random_chain(3, 3, seed=137)
        if sampling == "marginal":
            law = marginal_twin(law, 3)
        cfg = SimConfig(trajectories=4096 + 5, k_max=3, seed=139,
                        sampling=sampling)
        default, default_z = recorded_draws(monkeypatch, sys, law, mix, cfg)
        monkeypatch.setattr(mcsim, "_CHUNK", 7)
        small, small_z = recorded_draws(monkeypatch, sys, law, mix, cfg)
        assert sorted(small) == sorted(default) == list(range(8))
        for d in default:
            assert_array_equal(small[d], default[d])
        assert_array_equal(small_z, default_z)

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


def step_moments(normsq, chunk=mcsim._CHUNK):
    """The (3, steps) mean, standard error and kurtosis of the step-major
    ``normsq``, each row folded in blocks of ``chunk`` as the simulator
    does; each block is copied, as the fold overwrites it and its
    scratch."""
    moments = []
    for k, row in enumerate(normsq):
        record = None
        for lo in range(0, row.size, chunk):
            block = row[lo:lo + chunk].copy()
            record = _fold(record, block, np.empty_like(block))
        moments.append(_finish(record, k))
    return np.array(moments).T


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


def _split_rows():
    rng = np.random.default_rng(211)
    tiny = rng.uniform(0.5, 1.0, 4096) * 2.0**-600
    return {
        "log-normal": rng.lognormal(0.0, 2.0, 2 * 4096 + 1000),
        "squared-cauchy": rng.standard_cauchy(4096 + 3000) ** 2,
        "near-1e308": rng.uniform(0.5, 1.0, 4096 + 100) * 1e308,
        "1e308-rows": np.tile([1e308, 1e308, 1.5e308], 5),
        # block maxima 2^600 apart, in both orders of merge
        "frames-2^600-apart": np.concatenate(
            [tiny, rng.uniform(0.5, 1.0, 4096), tiny[:99]]),
    }


SPLIT_ROWS = _split_rows()


def two_pass(row):
    """Mean and standard error (ddof 1) of ``row``, each sum exactly
    rounded by math.fsum, on the row scaled by a power of two so that no
    square overflows."""
    scale = 2.0 ** -math.frexp(row.max())[1]
    y = row * scale
    mean = math.fsum(y) / y.size
    var = math.fsum((v - mean) ** 2 for v in y) / (y.size - 1)
    return mean / scale, math.sqrt(var / y.size) / scale


class TestBlockMoments:
    """A step's moments folded block by block and merged pairwise, against
    references that read the whole row at once."""

    @pytest.mark.parametrize("chunk", [7, 4096])
    @pytest.mark.parametrize("name", list(SPLIT_ROWS))
    def test_split_rows_match_the_whole_row(self, name, chunk):
        scipy_stats = pytest.importorskip("scipy.stats")
        row = SPLIT_ROWS[name]
        assert row.size % chunk  # a ragged last block
        (mean,), (stderr,), (kurtosis,) = step_moments(row[None], chunk)
        ref_mean, ref_stderr = two_pass(row)
        assert mean == pytest.approx(ref_mean, rel=1e-14, abs=0.0)
        assert stderr == pytest.approx(ref_stderr, rel=1e-14, abs=0.0)
        # kurtosis is scale-free; the scaling keeps scipy's 4th powers finite
        oracle = scipy_stats.kurtosis(row * 2.0 ** -math.frexp(row.max())[1],
                                      fisher=False, bias=True)
        assert kurtosis == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("sampling", ["marginal", "path"])
def test_law_checked_once_per_call(monkeypatch, sampling):
    calls = []
    original = sysmodel.check_law

    def counting(law, m):
        calls.append(m)
        return original(law, m)

    law = MarkovSwitching(P=[[0.9, 0.1], [0.2, 0.8]], pi0=[0.5, 0.5])
    if sampling == "marginal":
        law = marginal_twin(law, 5)
    monkeypatch.setattr(sysmodel, "check_law", counting)
    simulate_ensemble(scalar_system(0.5, 0.9), law, point_mass([1.0]),
                      SimConfig(trajectories=10, k_max=5, sampling=sampling))
    assert calls == [2]
