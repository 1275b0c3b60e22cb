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
"""

from __future__ import annotations

import numpy as np

from .matkit import psd_project, symmetrize
from .sysmodel import GaussianMixture, check_mixture

__all__ = [
    "gaussian_to_dirac",
    "mixture_to_dirac_sq",
    "synthetic_gaussian",
]


def _checked_mixture(mix: GaussianMixture) -> np.ndarray:
    violations = check_mixture(mix)
    if violations:
        raise ValueError("; ".join(violations))
    return mix.weights / np.sum(mix.weights)


def gaussian_to_dirac(mean, cov) -> float:
    """Wasserstein distance from N(mean, cov) to the point mass at 0.

    Equals sqrt(||mean||^2 + tr cov). Rank-deficient covariances are
    fine; an indefinite one raises ``ValueError``.
    """
    mu = np.asarray(mean, dtype=float).reshape(-1)
    if not np.all(np.isfinite(mu)):
        raise ValueError("mean contains non-finite entries")
    c = psd_project(cov)
    if c.shape[0] != mu.size:
        raise ValueError(
            f"cov shape {c.shape} does not match mean dimension {mu.size}"
        )
    return float(np.sqrt(mu @ mu + np.trace(c)))


def mixture_to_dirac_sq(mix: GaussianMixture) -> float:
    """Squared Wasserstein distance from a Gaussian mixture to the origin mass.

    Equals the weighted sum of per-component squared distances,
    sum_j alpha_j (||mu_j||^2 + tr Sigma_j), which is also the trace of
    the mixture's second-moment matrix.
    """
    w = _checked_mixture(mix)
    sq_means = np.einsum("ij,ij->i", mix.means, mix.means)
    traces = np.trace(mix.covs, axis1=1, axis2=2)
    return float(w @ (sq_means + traces))


def synthetic_gaussian(mix: GaussianMixture) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched Gaussian of a mixture: exact mean and covariance.

    Returns (mean, cov) with mean = sum_j alpha_j mu_j and

        cov = sum_j alpha_j (Sigma_j + (mu_j - mean)(mu_j - mean)^T),

    the law-of-total-covariance spread term included. The covariance is
    symmetric PSD by construction (symmetrized against roundoff).
    """
    w = _checked_mixture(mix)
    mean = w @ mix.means
    dev = mix.means - mean
    cov = np.einsum("i,ijk->jk", w, mix.covs) + np.einsum(
        "i,ij,ik->jk", w, dev, dev
    )
    return mean, symmetrize(cov)
