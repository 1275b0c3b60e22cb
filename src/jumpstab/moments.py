"""The second-moment map of a switching chain, and its matrix.

A chain of s states over the m modes steps stacks of s symmetric n x n
matrices by

    T(Q)_r = sum_i weights[r, i] A_i (sum_j mix[j, i] Q_j) A_i^T,

with (mix, weights) step k's pair of the law's chain form (see
``sysmodel``). T maps stacks of PSD matrices to stacks of PSD matrices;
the verdicts read its spectral radius and the W^2 routes iterate it.
``_moment_map`` applies T at n x n cost per state; ``_chain_lift`` is its
matrix on the coordinates of ``_sym_lifts``, the blocks A_j kron A_j on
symmetric matrices in the orthonormal basis E_ii, (E_pq + E_qp)/sqrt2
(``_basis_pairs``). ``_sym_coords`` gives a symmetric matrix's
n(n+1)/2 coordinates in that basis.
``DIVERGENCE_GUARD`` bounds the entries of the products that
``gamma_product`` and the sequence test fold.
"""

from __future__ import annotations

import numpy as np

from .matkit import NumericalError, _sym_part

__all__ = ["DIVERGENCE_GUARD"]

#: Entry magnitudes past this count as divergence: of Gamma(k), whose
#: pushed unit matrices gamma_product reads after every step, and of the
#: mode products of the sequence stability test.
DIVERGENCE_GUARD = 1e150

_TINY = np.finfo(float).tiny


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


def _kron_entries(a: np.ndarray, p: np.ndarray, q: np.ndarray, out=None):
    """K[r, c], into ``out`` if given, and K[r, c'] of K = A kron A for
    the (n, n) ``a``: r, c over the pairs (p, q), c' the pair c reversed."""
    rows_p, rows_q = a[p], a[q]
    sym = np.multiply(rows_p[:, p], rows_q[:, q], out=out)
    crossed = rows_p[:, q]
    crossed *= rows_q[:, p]
    return sym, crossed


def _sym_lifts(modes: np.ndarray, e=0, transposed=False) -> np.ndarray:
    """B_j kron B_j on symmetric matrices, B_j = A_j / 2**e_j, for the
    (m, n, n) array ``modes``, ``e`` one exponent or one per mode: the
    (m, s, s) stack in the orthonormal basis E_ii, (E_pq + E_qp)/sqrt2
    of _basis_pairs, s = n(n+1)/2. Each lift maps symmetric matrices to
    symmetric ones, and this block has the whole lift's spectral radius.
    ``transposed`` builds each from B_j^T: (A kron A)^T = A^T kron A^T,
    each product's factors swapped. The modes are read as given, not
    checked again: a system's modes, or arrays derived from them.

    K = A kron A has K[(p,q), (r,s)] = A[p,r] A[q,s] = K[(q,p), (s,r)]
    exactly, so with c' the transposed position of column c every entry
    is 2 c_r c_c (K[r, c] + K[r, c']), gathered from A one mode at a time
    without forming K. Raises NumericalError if an entry overflows, or if
    the scaling leaves an entry of B_j, or a product of two, below the
    normal range where that of A_j is not: the lift would lose digits.
    """
    n, e = modes.shape[-1], np.broadcast_to(e, len(modes))
    p, q = _basis_pairs(n)
    out = np.empty((len(modes), p.size, p.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for lift, mode, ej in zip(out, modes, e):
            mode = mode.T if transposed else mode
            a = np.ldexp(mode, -ej)
            sym, crossed = _kron_entries(a, p, q, lift)
            if ej and any(np.any((np.abs(x) < _TINY) & (np.abs(y) >= _TINY))
                          for x, y in zip((a, sym, crossed),
                                          (mode, *_kron_entries(mode, p, q)))):
                raise NumericalError("A_j kron A_j overflows, and scaled it "
                                     "underflows: modes too large")
            sym += crossed
    if not np.all(np.isfinite(out)):
        raise NumericalError("A_j kron A_j overflows: modes too large")
    # 2 c_r c_c with c = 1/2 on E_ii and 1/sqrt2 on pairs: 1/2, 1/sqrt2, 1
    scale = np.where(np.arange(p.size) < n, np.sqrt(0.5), 1.0)
    weights = np.outer(scale, scale)
    weights[:n, :n] = 0.5
    out *= weights
    return out


def _chain_lift(blocks: np.ndarray, mix: np.ndarray, weights: np.ndarray):
    """The matrix of _moment_map(modes, mix, weights) on the coordinates
    of ``blocks``, an (m, b, b) stack such as _sym_lifts: block (r, j) of
    the (s b, s b) result is sum_i weights[r, i] mix[j, i] blocks[i]."""
    lift = np.tensordot(weights[:, None] * mix[None], blocks, 1)
    size = len(mix) * blocks.shape[1]
    return np.swapaxes(lift, 1, 2).reshape(size, size)


def _push(modes: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Symmetrised A_j X A_j^T, ``mats`` broadcast against (m, q, n, n)."""
    return _sym_part(
        modes[:, None] @ mats @ np.swapaxes(modes, 1, 2)[:, None])


def _moment_map(modes: np.ndarray, mix: np.ndarray, weights: np.ndarray):
    """The second-moment map on (s, n, n) stacks of symmetric matrices,

        T(Q)_r = sum_i weights[r, i] A_i (sum_j mix[j, i] Q_j) A_i^T,

    for a chain of s states over the m modes (mix and weights are s x m).
    A mode of weight 0 takes no part, so no 0 * inf enters the sum, and
    mix and weights are read in C order, so a slice sums as its copy does.
    Returns ``apply``, which judges nothing: an entry past float64 comes
    out as inf or nan, for its caller to stop on.
    """
    live = weights.any(0)
    if not live.all():
        modes, mix, weights = modes[live], mix[:, live], weights[:, live]
        mix, weights = np.ascontiguousarray(mix), np.ascontiguousarray(weights)

    def apply(q: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            mixed = np.dot(mix.T, q.reshape(len(q), -1))
            pushed = _push(modes, mixed.reshape(-1, 1, *q.shape[1:]))
            out = np.dot(weights, pushed.reshape(len(modes), -1))
        return out.reshape(-1, *q.shape[1:])

    return apply


def _sym_coords(covs: np.ndarray) -> np.ndarray:
    """The (q, s) coordinates of the symmetric parts of (q, n, n) ``covs``
    in the basis of _sym_lifts: Sigma_ii, then sqrt2 Sigma_pq for p < q."""
    n = covs.shape[-1]
    p, q = _basis_pairs(n)
    units = _basis_units(n)
    coords = covs[:, p, q] * units
    coords[:, n:] += covs[:, q[n:], p[n:]] * units[n:]
    return coords
