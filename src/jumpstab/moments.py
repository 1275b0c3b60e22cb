"""The second-moment map of a switching chain, and its matrix.

A chain of s states over the m modes steps stacks of s symmetric n x n
matrices by

    T(Q)_r = sum_i weights[r, i] A_i (sum_j mix[j, i] Q_j) A_i^T,

with (mix, weights) step k's pair of the law's chain form (see
``sysmodel``), less its modes of weight 0 (``_live``). T maps stacks of
PSD matrices to stacks of PSD matrices; the verdicts read its spectral
radius and the W^2 routes iterate it. ``_moment_map`` applies T at n x n
cost per state; ``_map_matrix`` reads T's matrix off that map, on the
coordinates of the orthonormal basis E_ii, (E_pq + E_qp)/sqrt2
(``_basis_pairs``), in which ``_sym_coords`` gives a symmetric matrix's
n(n+1)/2 coordinates. ``DIVERGENCE_GUARD`` bounds the entries of the
products that ``gamma_product`` and the sequence test fold."""

from __future__ import annotations

import numpy as np

from .matkit import _sym_part

__all__ = ["DIVERGENCE_GUARD"]

#: Entry magnitudes past this count as divergence: of Gamma(k), whose
#: pushed unit matrices gamma_product reads after every step, and of the
#: mode products of the sequence stability test.
DIVERGENCE_GUARD = 1e150


def _basis_pairs(n: int):
    """Index pairs (p, q) of the basis elements: (i, i) for i < n, then
    p < q in triu order. The first n coordinates of a symmetric matrix
    are therefore its diagonal, and their sum is its trace."""
    p, q = np.triu_indices(n, 1)
    diag = np.arange(n)
    return np.concatenate([diag, p]), np.concatenate([diag, q])


def _basis_units(n: int) -> np.ndarray:
    """The entry of each symmetric basis element, in _basis_pairs order,
    at (p, q) and at (q, p): 1 for E_ii, 1/sqrt2 for (E_pq + E_qp)/sqrt2.
    """
    units = np.full(n * (n + 1) // 2, np.sqrt(0.5))
    units[:n] = 1.0
    return units


def _push(modes: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Symmetrised A_j X A_j^T, ``mats`` broadcast against (m, q, n, n)."""
    return _sym_part(
        modes[:, None] @ mats @ np.swapaxes(modes, 1, 2)[:, None])


def _live(mix: np.ndarray, weights: np.ndarray):
    """The indices of the modes of nonzero weight in step (mix, weights),
    and those columns of mix and weights in C order, or both as given
    when every mode is live. So no 0 * inf enters a sum, and a slice
    sums as its copy does."""
    live = np.flatnonzero(weights.any(0))
    if live.size < weights.shape[1]:
        mix, weights = (np.ascontiguousarray(x[:, live])
                        for x in (mix, weights))
    return live, mix, weights


def _moment_map(modes: np.ndarray, mix: np.ndarray, weights: np.ndarray):
    """The second-moment map on (s, n, n) stacks of symmetric matrices,

        T(Q)_r = sum_i weights[r, i] A_i (sum_j mix[j, i] Q_j) A_i^T,

    for a chain of s states over the m ``modes`` of a step as _live
    leaves it (mix and weights are s x m). Returns ``apply``, which judges
    nothing: an entry past float64 comes out as inf or nan, for its
    caller to stop on. ``apply`` also takes an (s, b, n, n) batch of b
    stacks, each mapped as it would be alone.
    """

    def apply(q: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            mixed = np.dot(mix.T, q.reshape(len(q), -1))
            pushed = _push(modes, mixed.reshape(len(modes), -1,
                                                *q.shape[-2:]))
            out = np.dot(weights, pushed.reshape(len(modes), -1))
        return out.reshape(-1, *q.shape[1:])

    return apply


def _map_matrix(apply, states: int, n: int) -> np.ndarray:
    """The matrix of ``apply``, a _moment_map of ``states`` chain states
    on n x n matrices, on the coordinates of _sym_coords: column (j, c)
    holds the image of basis element c in state j, every image from one
    batched call. Like the map, it judges nothing: an image past float64
    leaves an inf or nan entry, for its caller to stop on."""
    p, q = _basis_pairs(n)
    size, cols = p.size, np.arange(p.size)
    units = np.zeros((size, n, n))
    units[cols, p, q] = units[cols, q, p] = _basis_units(n)
    # basis[r, (j, c)] is element c in state j = r, 0 elsewhere
    basis = np.multiply.outer(np.eye(states), units)
    with np.errstate(over="ignore", invalid="ignore"):
        images = apply(basis.reshape(states, -1, n, n))
        coords = _sym_coords(images.reshape(-1, n, n))
    # coords[(r, j, c), d] is entry ((r, d), (j, c)) of the matrix
    coords = np.swapaxes(coords.reshape(states, states * size, size), 1, 2)
    return coords.reshape(states * size, states * size)


def _sym_coords(covs: np.ndarray) -> np.ndarray:
    """The (q, s) coordinates of the symmetric parts of (q, n, n) ``covs``
    in the basis of _basis_pairs: Sigma_ii, then sqrt2 Sigma_pq, p < q."""
    n = covs.shape[-1]
    p, q = _basis_pairs(n)
    units = _basis_units(n)
    coords = covs[:, p, q] * units
    coords[:, n:] += covs[:, q[n:], p[n:]] * units[n:]
    return coords
