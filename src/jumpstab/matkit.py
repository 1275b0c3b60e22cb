"""Dense real linear-algebra kernel.

Spectral radii, matrix norms, and PSD hygiene (symmetric part,
projection, square root). Matrices are plain float64 ``numpy`` arrays;
:func:`as_matrix` is the single entry point that enforces the
construction invariants (2-D, nonempty, all entries finite).

All functions are pure and hold no shared state; they are safe to call
concurrently from any number of threads.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "NumericalError",
    "as_matrix",
    "as_square",
    "spectral_radius",
    "spectral_norm",
    "symmetrize",
    "psd_project",
    "sqrtm_psd",
]

#: Slack for positive-semidefiniteness checks; for matrices with entries
#: beyond 1 it is relative to the largest entry magnitude.
PSD_TOL = 1e-10


class NumericalError(RuntimeError):
    """A numerical routine failed (eigensolver breakdown, divergence, ...).

    Raised instead of returning garbage so callers can distinguish numeric
    failure from invalid input (which raises ``ValueError``).
    """


def _as_floats(a, name: str) -> np.ndarray:
    """``a`` as a float64 array if it holds ints and floats only. numpy
    reads a bool among numbers as a number, and keeps ints beyond int64,
    fractions and decimals as objects, so the entries of anything but an
    int or float ndarray are checked one by one. Anything else raises
    ``ValueError`` naming ``name``; a complex object ``TypeError``."""
    arr = np.asarray(a)
    kind = arr.dtype.kind
    if kind in "iuf" and isinstance(a, np.ndarray) or kind in "iufO" and all(
            isinstance(x, numbers.Number) and type(x) not in (bool, np.bool_)
            for x in np.asarray(a, dtype=object).flat):
        return arr.astype(float, copy=False)
    got = "a bool" if kind in "iuf" else f"dtype {arr.dtype}"
    raise ValueError(f"{name} must hold ints or floats, got {got}")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array and validate it.

    Rejects entries that are not ints or floats, empty matrices and any
    non-finite entry. ``name`` labels the offending argument in errors.
    """
    m = _as_floats(a, name)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError(f"{name} must be nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Like :func:`as_matrix` but additionally requires a square shape."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square matrix.

    Uses a dense general (real-to-complex) eigensolver, which needs no
    gap between the moduli of complex or tied eigenvalues. Accuracy is
    that of LAPACK's QR algorithm, better than 1e-9 relative for
    well-conditioned inputs. No other library code calls
    ``np.linalg.eigvals``. The spectral stability tests reach it only
    when their Arnoldi certificate fails (marginal band, no convergence,
    a singular Perron vector), and then pass the symmetric block of the
    second-moment lift: the lift keeps the PSD cone, so its spectral
    radius has a PSD, hence symmetric, eigenvector, and the block has
    the radius of the whole lift at about 1/8 of the cost.

    Raises
    ------
    ValueError
        If the input is not square.
    NumericalError
        If the eigenvalue iteration fails to converge.
    """
    a = as_square(m, "m")
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.max(np.abs(eigs)))


def spectral_norm(m) -> float:
    """Induced 2-norm (largest singular value)."""
    try:
        return float(np.linalg.norm(as_matrix(m, "m"), 2))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value computation failed: {exc}") from exc


def _sym_part(x: np.ndarray) -> np.ndarray:
    """Symmetric part of each trailing square matrix of ``x``, a new
    array: halved first, so two finite halves add up to a finite sum."""
    half = x * 0.5
    half += np.swapaxes(half, -1, -2)
    return half


def symmetrize(m) -> np.ndarray:
    """Symmetric part ``(m + m.T) / 2``."""
    return _sym_part(as_square(m, "m"))


def _psd_slack(m) -> np.ndarray:
    """PSD_TOL times max(1, largest |entry|) of each trailing matrix.

    Eigensolver roundoff grows with the matrix scale, so an absolute slack
    would reject valid large covariances; below scale 1 it stays absolute.
    """
    return PSD_TOL * np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))


def _psd_eigh(m):
    """(S, w, v): the symmetric part S of ``m``, repaired as psd_project
    says, and its eigenvalues w, clamped at 0, and eigenvectors v."""
    s = symmetrize(m)
    try:
        w, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigendecomposition failed: {exc}") from exc
    slack = _psd_slack(s)
    if np.min(w) < -slack:
        raise ValueError(
            f"matrix is not PSD: smallest eigenvalue {np.min(w):.3e} "
            f"< -{slack:.1e}"
        )
    if np.min(w) < 0.0:
        w = np.clip(w, 0.0, None)
        s = symmetrize((v * w) @ v.T)
    return s, w, v


def psd_project(m) -> np.ndarray:
    """Symmetrize and repair a nearly-PSD matrix.

    Eigenvalues in ``[-slack, 0)`` are clamped to zero, with slack
    ``PSD_TOL * max(1, largest |entry|)``; any eigenvalue below ``-slack``
    means the matrix is genuinely indefinite and raises.
    """
    return _psd_eigh(m)[0]


def sqrtm_psd(m) -> np.ndarray:
    """Unique symmetric PSD square root via spectral decomposition.

    Accepts symmetric PSD input up to the slack of :func:`psd_project`
    (asymmetry is averaged away, slightly negative eigenvalues are
    clamped).
    Rank-deficient input is fine; indefinite input raises ``ValueError``.
    """
    _, w, v = _psd_eigh(m)
    return symmetrize((v * np.sqrt(w)) @ v.T)
