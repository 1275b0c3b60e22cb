"""Dense real linear-algebra kernel.

Spectral radii, matrix norms, the symmetric part and the PSD slack.
Arrays are plain float64 ``numpy`` arrays. :func:`as_matrix` states the
one rule for the library's array arguments, matrices or not: int or
float entries, a given number of dimensions (2 unless told otherwise),
no empty axis, every entry finite; each rejection is a ``ValueError``
naming the argument. ``sysmodel``'s constructors, ``markov_test`` and
``gaussian_to_dirac`` read their arrays through it.

All functions are pure and hold no shared state; they are safe to call
concurrently from any number of threads.
"""

from __future__ import annotations

import numbers

import numpy as np

from .defaults import PSD_TOL, NumericalError

__all__ = [
    "NumericalError",
    "as_square",
    "spectral_radius",
    "spectral_norm",
]

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


def as_matrix(a, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """``a`` as a float64 array of ``ndim`` dimensions, no empty axis and
    finite entries, its entries checked by :func:`_as_floats`; ``name``
    labels the argument in the ``ValueError`` of a violation."""
    m = _as_floats(a, name)
    if m.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError(f"{name} must be nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_square(a, name: str = "matrix") -> np.ndarray:
    """:func:`as_matrix` of a 2-D array that must also be square."""
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


def _psd_slack(m) -> np.ndarray:
    """PSD_TOL times max(1, largest |entry|) of each trailing matrix.

    Factor and eigensolver roundoff grow with the matrix scale, so an
    absolute slack would reject valid large covariances; below scale 1 it
    stays absolute.
    """
    return PSD_TOL * np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
