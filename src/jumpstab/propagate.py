"""State-PDF and second-moment propagation.

Three routes compute the squared Wasserstein-to-origin trajectory
W^2(k) of a jump linear system started from a Gaussian mixture:

``exact_mog``
    Pushes the full mixture through the mode maps. One step against
    marginals pi(k) turns q components into m*q with weights
    pi_j(k)*alpha_i, means A_j mu_i, and covariances A_j Sigma_i A_j^T,
    so counts grow geometrically and a hard cap applies. A covariance
    travels as its n(n+1)/2 coordinates in the orthonormal symmetric
    basis, which the symmetric block of A_j kron A_j maps exactly: one
    matrix product per mode and step pushes them all, a component costs
    n(n+1)/2 + n + 1 floats, and W^2 reads tr Sigma_i as the sum of its
    first n coordinates, the diagonal. W^2(k) needs only the weights,
    the means and those diagonals, so the route's last step pushes
    through the first n columns of each lift: the last mixture, the
    largest, is never formed, and the route's peak memory is that of
    the mixture one step before it. ``mog_propagate`` takes the same
    steps and returns the full last mixture.

``moment``
    Propagates only the n x n second moment,
    Phi(k) = sum_j pi_j(k) A_j Phi(k-1) A_j^T, whose trace equals
    W^2(k). Default method: same numbers as the lifted product at n x n
    cost.

``gamma``
    Reads W^2(k) = vec(I)^T Gamma(k) vec(Phi(0)) off the reverse-ordered
    product Gamma(k) = A(k) ... A(1) of the lifted step matrices
    A(i) = sum_j pi_j(i) (A_j kron A_j), evaluated right to left: each
    step applies A(i) to the coordinates of Gamma(i-1) vec(Phi(0)). Each
    lift maps symmetric matrices to symmetric ones, and I and Phi(0) are
    symmetric, so the route carries n(n+1)/2 coordinates and never forms
    Gamma(k) or an n^2 x n^2 matrix.

The three must agree to rounding; their agreement is a correctness check
of the whole chain and is asserted by the test suite. A route raises
NumericalError, naming k, exactly when a value it carries is not finite.
The lifts of modes whose largest entry reaches 2^510 are built from
the modes scaled by a power of two, which is exact; where the scaling
would lose digits, the route raises NumericalError instead of printing
them.
Each route has one path: ``moment`` iterates the second-moment map of
a chain (``_moment_map``, on the A X A^T kernel ``_push``); ``gamma``
pushes one row of coordinates per step through the symmetric lifts and
``exact_mog`` one per component (``_mog_fold``), both with
``_lifted_push``. ``gamma_product`` pushes the n^2 unit matrices through
X -> sum_j pi_j A_j X A_j^T and reads Gamma(k) off them. The map and its
matrix (``_chain_lift``) serve the stability tests as well.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .defaults import DEFAULT_COMPONENT_CAP
from .matkit import NumericalError, _sym_part
from .sysmodel import (
    GaussianMixture,
    JumpLinearSystem,
    SwitchingLaw,
    _as_int,
    _reject,
    check_law,
    validate_system,
)
from .wasserstein import _dirac_sq, mixture_to_dirac_sq, synthetic_gaussian

__all__ = [
    "GammaState",
    "TrajectoryRecord",
    "mog_propagate",
    "gamma_product",
    "w2_trajectory",
    "DEFAULT_COMPONENT_CAP",
    "DIVERGENCE_GUARD",
]

#: Entry magnitudes past this count as divergence: of Gamma(k), whose
#: pushed unit matrices gamma_product reads after every step, and of the
#: mode products of the sequence stability test.
DIVERGENCE_GUARD = 1e150

_TINY = np.finfo(float).tiny

#: A mode is scaled by a power of two in its lift only when its largest
#: magnitude reaches 2**_LIFT_LIMIT. Below it every product of two
#: entries, and every sum of two products, stays under 2**1021, so the
#: lifts of such modes are the unscaled ones, bit for bit.
_LIFT_LIMIT = 510


class GammaState(NamedTuple):
    """Reverse-ordered product Gamma(k) of lifted step matrices.

    Gamma(0) is the n^2 x n^2 identity. ``diverged`` marks a product
    whose next factor would push entries past DIVERGENCE_GUARD; in that
    case ``gamma`` holds the last product under it and ``k`` the number
    of factors actually applied.
    """

    gamma: np.ndarray
    k: int
    diverged: bool = False


class TrajectoryRecord(NamedTuple):
    """One time point of a W^2 trajectory.

    ``component_count`` is populated by exact-mixture runs only.
    """

    k: int
    w2: float
    component_count: int = None


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


def _kron_entries(a: np.ndarray, p: np.ndarray, q: np.ndarray):
    """K[r, c] and K[r, c'] of each K = A kron A of the (m, n, n) ``a``,
    r and c over the pairs (p, q), c' the transposed position of c."""
    rows_p, rows_q = a[:, p], a[:, q]
    return rows_p[:, :, p] * rows_q[:, :, q], rows_p[:, :, q] * rows_q[:, :, p]


def _sym_lifts(sys: JumpLinearSystem, e=0) -> np.ndarray:
    """B_j kron B_j on symmetric matrices, B_j = A_j / 2**e_j, ``e`` one
    exponent or one per mode: the (m, s, s) stack in the orthonormal
    basis E_ii, (E_pq + E_qp)/sqrt2 of _basis_pairs, s = n(n+1)/2. Each
    lift maps symmetric matrices to symmetric ones, and this block has
    the whole lift's spectral radius.

    K = A kron A has K[(p,q), (r,s)] = A[p,r] A[q,s] = K[(q,p), (s,r)]
    exactly, so with c' the transposed position of column c every entry
    is 2 c_r c_c (K[r, c] + K[r, c']), gathered from A without forming K.
    Raises NumericalError if an entry overflows, or if the scaling leaves
    an entry of B_j, or a product of two, below the normal range where
    that of A_j is not: the lift would lose its digits.
    """
    n, e = sys.n, np.broadcast_to(e, (sys.m,))[:, None, None]
    a = np.ldexp(sys.modes, -e)
    p, q = _basis_pairs(n)
    with np.errstate(over="ignore", invalid="ignore"):
        sym, crossed = _kron_entries(a, p, q)
        if np.any(e):
            pairs = zip((a, sym, crossed),
                        (sys.modes, *_kron_entries(sys.modes, p, q)))
            if any(np.any((np.abs(scaled) < _TINY) & (np.abs(exact) >= _TINY))
                   for scaled, exact in pairs):
                raise NumericalError(
                    "A_j kron A_j overflows, and scaled it underflows: "
                    "modes too large"
                )
        sym += crossed
    if not np.all(np.isfinite(sym)):
        raise NumericalError("A_j kron A_j overflows: modes too large")
    # 2 c_r c_c with c = 1/2 on E_ii and 1/sqrt2 on pairs: 1/2, 1/sqrt2, 1
    scale = np.where(np.arange(p.size) < n, np.sqrt(0.5), 1.0)
    weights = np.outer(scale, scale)
    weights[:n, :n] = 0.5
    sym *= weights
    return sym


def _scaled_lifts(sys: JumpLinearSystem):
    """The _sym_lifts of the modes over 2**e_j, each transposed and the
    stack in C order, as _lifted_push takes it, and 2 e_j per mode: each
    lift is its block times 2**(2 e_j). e_j is the least e >= 0 that
    brings the largest magnitude of A_j below 2**_LIFT_LIMIT. Modes that
    need no scaling keep their lifts bit for bit; larger ones scale
    exactly, powers of two being exact, or raise as _sym_lifts says."""
    tops = np.abs(sys.modes).max(axis=(1, 2))
    e = np.maximum(np.frexp(tops)[1] - _LIFT_LIMIT, 0)
    return np.swapaxes(_sym_lifts(sys, e), 1, 2).copy(), 2 * e


def _chain_lift(blocks: np.ndarray, mix: np.ndarray, weights: np.ndarray):
    """The matrix of _moment_map(modes, mix, weights) on the coordinates
    of ``blocks``, an (m, b, b) stack such as _sym_lifts: block (r, j) of
    the (s b, s b) result is sum_i weights[r, i] mix[j, i] blocks[i]."""
    lift = np.tensordot(weights[:, None] * mix[None], blocks, 1)
    size = len(mix) * blocks.shape[1]
    return np.swapaxes(lift, 1, 2).reshape(size, size)


def _push(modes: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Symmetrised A_j X A_j^T, ``mats`` broadcast against (m, q, n, n)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _sym_part(
            modes[:, None] @ mats @ np.swapaxes(modes, 1, 2)[:, None])


def _moment_map(modes: np.ndarray, mix: np.ndarray, weights: np.ndarray,
                what: str = "second moment diverged"):
    """The second-moment map on (s, n, n) stacks of symmetric matrices,

        T(Q)_r = sum_i weights[r, i] A_i (sum_j mix[j, i] Q_j) A_i^T,

    for a chain of s states over the m modes (mix and weights are s x m).
    Returns ``apply``; it raises NumericalError led by ``what`` on a
    non-finite entry.
    """
    def apply(q: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            mixed = np.dot(mix.T, q.reshape(len(q), -1))
            pushed = _push(modes, mixed.reshape(-1, 1, *q.shape[1:]))
            out = np.dot(weights, pushed.reshape(len(modes), -1))
        if not np.all(np.isfinite(out)):
            raise NumericalError(f"{what} (an entry is not finite)")
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


def _sym_matrices(coords: np.ndarray, n: int) -> np.ndarray:
    """The exactly symmetric (q, n, n) matrices of (q, s) coordinates, the
    inverse of _sym_coords."""
    p, q = _basis_pairs(n)
    entries = coords * _basis_units(n)
    out = np.empty((len(coords), n, n))
    out[:, p, q] = entries
    out[:, q, p] = entries
    return out


def _lifted_push(rows, lifts, exps, live):
    """The (q, b) ``rows`` of coordinates times ``lifts[j]``, the
    transposed lift of each mode j in ``live``, scaled back by 2**exps[j]:
    the (len(live), q, b) images, one matrix product per mode. ``lifts``
    and ``exps`` are as _scaled_lifts returns them; the stack is gathered
    only when a mode is not live. Entries past float64 come out as inf or
    nan, which the caller checks."""
    if live.size < len(lifts):
        lifts, exps = lifts[live], exps[live]
    with np.errstate(over="ignore", invalid="ignore"):
        pushed = np.matmul(rows, lifts)
        if np.any(exps):
            np.ldexp(pushed, exps[:, None, None], out=pushed)
    return pushed


def _mog_push(modes, lifts, exps, pi, weights, means, coords):
    """One exact-mixture step on components held as arrays.

    ``coords`` holds each covariance as its _sym_coords; ``lifts`` and
    ``exps`` are as _lifted_push takes them. Pair (j, i) gets weight pi_j
    alpha_i, mean A_j mu_i and the coordinates of A_j Sigma_i A_j^T,
    mode-major: one matrix product per mode of nonzero probability.
    Pairs of weight 0 are dropped and the rest renormalized to sum 1.
    Returns (weights, means, coords).
    """
    live = np.flatnonzero(pi)
    weights = np.outer(pi[live], weights).reshape(-1)
    keep = weights > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        means = means @ np.swapaxes(modes[live], 1, 2)
    pushed = _lifted_push(coords, lifts, exps, live)
    means = means.reshape(len(weights), -1)
    coords = pushed.reshape(len(weights), -1)
    if not np.all(keep):
        weights, means, coords = weights[keep], means[keep], coords[keep]
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(coords))):
        raise NumericalError("mixture diverged: an entry is not finite")
    return weights / weights.sum(), means, coords


def _count(x: int) -> str:
    """``x`` in digits below 10^30, else its order of magnitude.

    str() of an int with more than 4300 digits raises by default.
    """
    return str(x) if x < 10**30 else f"~10^{int(math.log10(x))}"


def _check_cap(cap) -> int:
    """The component cap as an int; rejects one that no mixture, of one
    component or more, can meet."""
    cap = _as_int(cap, "cap")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    return cap


def _mog_fold(sys: JumpLinearSystem, law, init, k: int, cap,
              last_diagonal=False):
    """Yield (weights, means, coords) after each of ``k`` steps, as
    _mog_push returns them, for a ``law`` checked against the system; each
    step reads the law's own row, and ``cap`` is as in mog_propagate. With
    ``last_diagonal`` the last step pushes through the first n columns of
    each lift only, so its coords are the n covariance diagonals that
    W^2 reads and the last mixture's other coordinates are never formed.
    """
    # modes of zero probability are pruned every step, so only the
    # support sizes multiply the count; one int per step, allocated first
    support = np.fromiter((np.count_nonzero(row)
                           for row in law._rows(k, sys.m)), np.intp, k)
    sizes, steps = np.unique(support, return_counts=True)
    reach = init.q * math.prod(
        int(size) ** int(count) for size, count in zip(sizes, steps)
    )
    if reach > cap:
        if np.all(support == sys.m):
            counted = f"m^k*q0 = {sys.m}^{k}*{init.q}"
        else:
            counted = (
                f"q0*prod_k nnz(pi(k)) = {init.q}*{_count(reach // init.q)}"
            )
        raise ValueError(
            f"exact propagation reaches {counted} = {_count(reach)} "
            f"components, beyond cap={cap}; raise the cap"
        )
    lifts, exps = _scaled_lifts(sys)
    state = init.weights, init.means, _sym_coords(init.covs)
    for step, pi in enumerate(law._rows(k, sys.m), 1):
        if last_diagonal and step == k:
            lifts = lifts[:, :, :sys.n].copy()
        try:
            state = _mog_push(sys.modes, lifts, exps, pi, *state)
        except NumericalError as exc:
            raise NumericalError(f"{exc} at k={step}") from None
        yield state


def mog_propagate(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    init: GaussianMixture,
    k: int,
    cap: int = DEFAULT_COMPONENT_CAP,
) -> GaussianMixture:
    """Exact mixture after ``k`` switching steps.

    The result has at most q0 times the product over the steps of the
    number of modes with nonzero probability (m^k * q0 for a law of full
    support), so that count is checked against ``cap``, which must be at
    least 1, up front and the run refuses to start if it cannot finish.
    The steps are those of the ``exact_mog`` route, on covariances in
    symmetric coordinates; only the final mixture is unpacked into
    exactly symmetric n x n covariances.
    """
    k = _as_int(k, "k")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    cap = _check_cap(cap)
    _reject(validate_system(sys, law, init).violations)
    if k == 0:
        return init
    for weights, means, coords in _mog_fold(sys, law, init, k, cap):
        pass
    return GaussianMixture(
        weights=weights, means=means, covs=_sym_matrices(coords, sys.n)
    )


def gamma_product(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    k: int,
) -> GammaState:
    """Reverse-ordered product Gamma(k) = A(k) A(k-1) ... A(1).

    A kron A maps vec(X) to vec(A X A^T), row- or column-major alike, so
    column c of Gamma(k) is vec of the unit matrix E_c pushed through
    X -> sum_j pi_j(i) A_j X A_j^T for i = 1 .. k. The stepping stops
    before a step that leaves an entry magnitude past DIVERGENCE_GUARD
    or not finite (see GammaState). Raises ValueError for a negative
    ``k`` or a law that does not fit the system.
    """
    k = _as_int(k, "k")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    _reject(check_law(law, sys.m))
    n, size = sys.n, sys.n * sys.n
    # x[p, c, q] is entry (p, q) of the pushed E_c, so that A X and X A^T
    # are each one product over all c: (n, n) by (n, n^3), (n^3, n) by (n, n)
    x, done = np.eye(size).reshape(n, n, size).transpose(0, 2, 1), 0
    for pi in law._rows(k, sys.m):
        live = np.flatnonzero(pi)
        modes = sys.modes[live]
        with np.errstate(over="ignore", invalid="ignore"):
            left = (modes @ x.reshape(n, -1)).reshape(len(live), -1, n)
            pushed = np.tensordot(pi[live], left @ np.swapaxes(modes, 1, 2), 1)
            # a nan compares false, so it stops the stepping too
            if not np.abs(pushed).max() <= DIVERGENCE_GUARD:
                break
        x, done = pushed.reshape(n, size, n), done + 1
    gamma = x.transpose(0, 2, 1).reshape(size, size)
    return GammaState(gamma=gamma, k=done, diverged=done < k)


def _checked(k: int, w2) -> float:
    """W^2(k) as a float; NumericalError if it is not finite."""
    w2 = float(w2)
    if not math.isfinite(w2):
        raise NumericalError(f"W^2 diverged at k={k} (not finite)")
    return w2


def w2_trajectory(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    init: GaussianMixture,
    k_max: int,
    method: str = "moment",
    cap: int = DEFAULT_COMPONENT_CAP,
) -> list:
    """Squared Wasserstein-to-origin trajectory W^2(k) for k = 0 .. k_max.

    W^2(0) comes from the initial mixture's matched moments; later points
    from the chosen method ("moment", "gamma", or "exact_mog"). The
    exact-mixture method reads ``w2`` as the weighted sum of component
    distances and records component counts; the mixtures it derives from
    the checked input are not checked again, and are never formed as
    n x n covariances. Its last step forms only the weights, the means
    and the covariance diagonals: W^2(k_max) and the count are those of
    ``mog_propagate(k_max)``'s mixture, without forming it.

    Raises
    ------
    ValueError
        On invalid inputs, unknown method, an exact-mixture cap below 1,
        or exact-mixture cap overflow.
    NumericalError
        If W^2(k) or a value the route carries is not finite for some
        k <= k_max (unstable growth; the message names the failing step).
    MemoryError
        Before the first step, if the k_max + 1 values do not fit.
    """
    k_max = _as_int(k_max, "k_max")
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if method not in ("moment", "gamma", "exact_mog"):
        raise ValueError(
            f"unknown method {method!r}: expected moment, gamma, or "
            f"exact_mog"
        )
    if method == "exact_mog":
        cap = _check_cap(cap)
    _reject(validate_system(sys, law, init).violations)

    # the K+1 values first, so an impossible horizon fails before a step
    w2, counts = np.empty(k_max + 1), [init.q]
    mean, cov = synthetic_gaussian(init)
    phi0 = np.outer(mean, mean) + cov
    # every W^2(k) is checked by _checked, so no overflow needs a warning
    with np.errstate(over="ignore", invalid="ignore"):
        w2[0] = _checked(0, mixture_to_dirac_sq(init) if method == "exact_mog"
                         else np.trace(phi0))
        if k_max == 0:
            pass  # no step, so neither the lifts nor the cap count
        elif method == "moment":
            # the one-state map of each row, built per step so that its
            # error names the step
            phi, one = phi0[None], np.ones((1, sys.m))
            for k, pi in enumerate(law._rows(k_max, sys.m), 1):
                phi = _moment_map(sys.modes, one, pi[None],
                                  f"second moment diverged at k={k}")(phi)
                w2[k] = _checked(k, np.trace(phi[0]))
        elif method == "gamma":
            # Gamma(k) svec(Phi(0)), one symmetric lift step at a time
            lifts, exps = _scaled_lifts(sys)
            row = _sym_coords(phi0[None])
            for k, pi in enumerate(law._rows(k_max, sys.m), 1):
                live = np.flatnonzero(pi)
                row = np.tensordot(pi[live],
                                   _lifted_push(row, lifts, exps, live), 1)
                if not np.all(np.isfinite(row)):
                    raise NumericalError(f"Gamma(k) svec(Phi(0)) diverged at "
                                         f"k={k} (an entry is not finite)")
                # svec(I) . row: the first n coordinates are the diagonal
                w2[k] = _checked(k, row[0, :sys.n].sum())
        else:
            states = _mog_fold(sys, law, init, k_max, cap, last_diagonal=True)
            for k, (weights, means, coords) in enumerate(states, 1):
                # the first n coordinates are the diagonal (_basis_pairs),
                # and the last step's coords hold only those
                w2[k] = _checked(k, _dirac_sq(weights, means,
                                              coords[:, :sys.n]))
                counts.append(len(weights))
    return [TrajectoryRecord(k, v, counts[k] if method == "exact_mog"
                             else None) for k, v in enumerate(w2.tolist())]
