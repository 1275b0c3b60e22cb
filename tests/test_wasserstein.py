"""Closed-form distance tests.

The synthetic-Gaussian moments are cross-checked against a large
sampling oracle; the equidistance identity is verified by computing both
routes independently.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jumpstab.sysmodel import GaussianMixture
from jumpstab.wasserstein import (
    gaussian_to_dirac,
    mixture_to_dirac_sq,
    synthetic_gaussian,
)


def random_mixture(rng, n, q):
    weights = rng.random(q) + 0.1
    weights /= weights.sum()
    means = rng.standard_normal((q, n))
    covs = np.empty((q, n, n))
    for i in range(q):
        g = rng.standard_normal((n, n))
        covs[i] = g @ g.T
    return GaussianMixture(weights=weights, means=means, covs=covs)


class TestGaussianToDirac:
    def test_zero_mean_identity_cov(self):
        assert gaussian_to_dirac(np.zeros(2), np.eye(2)) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_pure_mean(self):
        assert gaussian_to_dirac([3.0, 4.0], np.zeros((2, 2))) == pytest.approx(
            5.0
        )

    def test_direct_substitution(self):
        assert gaussian_to_dirac([1.0, 1.0], np.diag([2.0, 3.0])) == pytest.approx(
            np.sqrt(7.0)
        )

    def test_square_is_second_moment(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            mu = rng.standard_normal(3)
            g = rng.standard_normal((3, 3))
            cov = g @ g.T
            d = gaussian_to_dirac(mu, cov)
            assert d * d == pytest.approx(mu @ mu + np.trace(cov), rel=1e-13)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            gaussian_to_dirac([0.0, 0.0], np.diag([1.0, -1.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            gaussian_to_dirac([0.0, 0.0, 0.0], np.eye(2))


class TestMixtureToDiracSq:
    def test_two_point_mixture(self):
        mix = GaussianMixture.from_components(
            [
                (0.5, [1.0], np.zeros((1, 1))),
                (0.5, [-1.0], np.zeros((1, 1))),
            ]
        )
        assert mixture_to_dirac_sq(mix) == pytest.approx(1.0)

    def test_single_component_matches_gaussian_distance(self):
        mu = [1.0, 2.0]
        cov = np.diag([0.5, 0.25])
        mix = GaussianMixture.from_components([(1.0, mu, cov)])
        assert mixture_to_dirac_sq(mix) == pytest.approx(
            gaussian_to_dirac(mu, cov) ** 2, rel=1e-13
        )

    def test_equidistance_with_synthetic_route(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            mix = random_mixture(rng, n=3, q=3)
            direct = mixture_to_dirac_sq(mix)
            mean, cov = synthetic_gaussian(mix)
            via_synth = gaussian_to_dirac(mean, cov) ** 2
            assert direct == pytest.approx(via_synth, rel=1e-12)

    def test_mean_scaling_monotone(self):
        rng = np.random.default_rng(67)
        mix = random_mixture(rng, n=2, q=4)
        base = mixture_to_dirac_sq(mix)
        for c in (1.0, 1.5, 3.0):
            scaled = GaussianMixture(
                weights=mix.weights, means=c * mix.means, covs=mix.covs
            )
            assert mixture_to_dirac_sq(scaled) >= base - 1e-12

    def test_invalid_mixture_rejected(self):
        mix = GaussianMixture(
            weights=[0.7, 0.7],
            means=np.zeros((2, 1)),
            covs=np.ones((2, 1, 1)),
        )
        with pytest.raises(ValueError, match="probability sum"):
            mixture_to_dirac_sq(mix)


class TestSyntheticGaussian:
    def test_symmetric_two_point(self):
        mix = GaussianMixture.from_components(
            [
                (0.5, [1.0], np.zeros((1, 1))),
                (0.5, [-1.0], np.zeros((1, 1))),
            ]
        )
        mean, cov = synthetic_gaussian(mix)
        assert_allclose(mean, [0.0], atol=1e-15)
        assert_allclose(cov, [[1.0]], atol=1e-15)

    def test_single_component_passthrough(self):
        mu = np.array([1.0, -1.0])
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        mix = GaussianMixture.from_components([(1.0, mu, sigma)])
        mean, cov = synthetic_gaussian(mix)
        assert_allclose(mean, mu)
        assert_allclose(cov, sigma)

    def test_against_sampling_oracle(self):
        rng = np.random.default_rng(71)
        mix = random_mixture(rng, n=2, q=4)
        exact_mean, exact_cov = synthetic_gaussian(mix)

        # oracle: 10^6 mixture draws, elementwise 4-standard-error bands
        n_draws = 1_000_000
        counts = rng.multinomial(n_draws, mix.weights)
        chunks = []
        for i, c in enumerate(counts):
            z = rng.standard_normal((c, 2))
            chol = np.linalg.cholesky(mix.covs[i])
            chunks.append(mix.means[i] + z @ chol.T)
        x = np.vstack(chunks)

        se_mean = x.std(axis=0, ddof=1) / np.sqrt(n_draws)
        assert np.all(np.abs(x.mean(axis=0) - exact_mean) <= 4 * se_mean)

        dev = x - x.mean(axis=0)
        prods = dev[:, :, None] * dev[:, None, :]
        sample_cov = prods.mean(axis=0)
        se_cov = prods.std(axis=0, ddof=1) / np.sqrt(n_draws)
        assert np.all(np.abs(sample_cov - exact_cov) <= 4 * se_cov)

    def test_cov_is_psd(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            mix = random_mixture(rng, n=3, q=5)
            _, cov = synthetic_gaussian(mix)
            assert_allclose(cov, cov.T, atol=1e-14)
            assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12
