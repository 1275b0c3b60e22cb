"""Closed-form order-2 Wasserstein distances.

Gaussian to Dirac-at-origin, mixture to Dirac (squared), and the
synthetic-Gaussian collapse of a mixture to its matched first and second
moments. The mixture and the synthetic Gaussian are equidistant from the
Dirac reference, which is what lets second-moment recursions track the
full mixture propagation.

Distance-returning functions give the unsquared metric; the mixture
routine returns the square (suffix ``_sq``) because the propagation
recursions work in squared distances and taking the root early loses
precision near zero.

The public readers check their input mixture and raise ``ValueError``
on a violation; ``w2_trajectory``, which checks its start once, reads
it through the unchecked bodies ``_matched`` and ``_dirac_sq``, and the
exact route reads the mixtures it derives through ``_dirac_sq``, which
needs only the weights, the means and the covariances' diagonals.
"""

from __future__ import annotations

import numpy as np

from .matkit import NumericalError, _as_floats, _sym_part, as_square
from .sysmodel import GaussianMixture, _reject, check_mixture

__all__ = [
    "gaussian_to_dirac",
    "mixture_to_dirac_sq",
    "synthetic_gaussian",
]


def gaussian_to_dirac(mean, cov) -> float:
    """Wasserstein distance from N(mean, cov) to the point mass at 0.

    Equals sqrt(||mean||^2 + tr cov), the root of
    :func:`mixture_to_dirac_sq` on the one-component mixture, whose rule
    judges ``cov``: rank-deficient covariances are fine; an asymmetric
    or indefinite one raises ``ValueError``.
    """
    mu = _as_floats(mean, "mean").reshape(-1)
    if not np.all(np.isfinite(mu)):
        raise ValueError("mean contains non-finite entries")
    c = as_square(cov, "cov")
    if c.shape[0] != mu.size:
        raise ValueError(
            f"cov shape {c.shape} does not match mean dimension {mu.size}"
        )
    return float(np.sqrt(mixture_to_dirac_sq(
        GaussianMixture(np.ones(1), mu[None], c[None]))))


def _dirac_sq(weights, means, diags) -> float:
    """sum_i w_i (||mu_i||^2 + tr Sigma_i) from the (q, n) diagonals of
    the covariances, w the weights normalized to sum 1. The sum is
    numpy's, not a BLAS dot, whose order depends on the thread count."""
    w = weights / np.sum(weights)
    sq_means = np.einsum("ij,ij->i", means, means)
    return float(np.sum(w * (sq_means + diags.sum(axis=1))))


def mixture_to_dirac_sq(mix: GaussianMixture) -> float:
    """Squared Wasserstein distance from a Gaussian mixture to the origin mass.

    Equals the weighted sum of per-component squared distances,
    sum_j alpha_j (||mu_j||^2 + tr Sigma_j), which is also the trace of
    the mixture's second-moment matrix.
    """
    _reject(check_mixture(mix))
    diags = np.diagonal(mix.covs, axis1=1, axis2=2)
    return _dirac_sq(mix.weights, mix.means, diags)


def synthetic_gaussian(mix: GaussianMixture) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched Gaussian of a mixture: exact mean and covariance.

    Returns (mean, cov) with mean = sum_j alpha_j mu_j and

        cov = sum_j alpha_j (Sigma_j + (mu_j - mean)(mu_j - mean)^T),

    the law-of-total-covariance spread term included. The covariance is
    symmetric PSD by construction (symmetrized against roundoff). If the
    mean or covariance overflows float64, ``NumericalError`` is raised.
    """
    _reject(check_mixture(mix))
    return _matched(mix)


def _matched(mix: GaussianMixture) -> tuple[np.ndarray, np.ndarray]:
    """``synthetic_gaussian``'s body, for a mixture already checked."""
    w = mix.weights / np.sum(mix.weights)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = w @ mix.means
        dev = mix.means - mean
        cov = np.einsum("i,ijk->jk", w, mix.covs) + np.einsum(
            "i,ij,ik->jk", w, dev, dev
        )
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise NumericalError(
            "the mixture's matched mean or covariance overflows float64"
        )
    return mean, _sym_part(cov)
