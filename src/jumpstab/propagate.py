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
    first n coordinates.

``moment``
    Propagates only the n x n second moment,
    Phi(k) = sum_j pi_j(k) A_j Phi(k-1) A_j^T, whose trace equals
    W^2(k). Default method: same numbers as the lifted product at n x n
    cost.

``gamma``
    Folds the lifted step matrices A(i) = sum_j pi_j(i) (A_j kron A_j)
    into the reverse-ordered product Gamma(k) and reads off
    W^2(k) = vec(I)^T Gamma(k) vec(Phi(0)). Each lift maps symmetric
    matrices to symmetric ones and skew to skew, so the fold runs on
    those two blocks (the symmetric one alone for W^2, which pairs two
    symmetric matrices), never on the n^2 x n^2 matrix.

The three must agree to rounding; their agreement is a correctness check
of the whole chain and is asserted by the test suite. A route raises
NumericalError, naming k, exactly when a value it carries is not finite.
The lifts of modes whose largest entry reaches 2^510 are built from
the modes scaled by a power of two, which is exact; where the scaling,
or the gamma fold of such lifts, would lose digits, the route raises
NumericalError instead of printing them.
The second-moment map of a chain (``_moment_map``, on the A X A^T kernel
``_push``) and its matrix (``_chain_lift``) live here, for these routes
and for the stability tests alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_COMPONENT_CAP
from .matkit import NumericalError, vec
from .sysmodel import (
    GaussianMixture,
    JumpLinearSystem,
    SecondMomentState,
    SwitchingLaw,
    _marginals,
    _normalized,
    _reject,
    as_probability_vector,
    marginal_schedule,
    validate_system,
)
from .wasserstein import _dirac_sq, mixture_to_dirac_sq, synthetic_gaussian

__all__ = [
    "GammaState",
    "TrajectoryRecord",
    "lifted_step_matrix",
    "mog_step",
    "mog_propagate",
    "moment_step",
    "gamma_product",
    "w2_trajectory",
    "DEFAULT_COMPONENT_CAP",
    "DIVERGENCE_GUARD",
]

#: Entry magnitudes past this count as divergence of the products folded
#: by gamma_product and the sequence stability test.
DIVERGENCE_GUARD = 1e150

_TINY = np.finfo(float).tiny

#: A mode is scaled by a power of two in its lift only when its largest
#: magnitude reaches 2**_LIFT_LIMIT. Below it every product of two
#: entries, and every sum of two products, stays under 2**1021, so the
#: lifts of such modes are the unscaled ones, bit for bit.
_LIFT_LIMIT = 510


@dataclass(frozen=True, eq=False)
class GammaState:
    """Reverse-ordered product Gamma(k) of lifted step matrices.

    Gamma(0) is the n^2 x n^2 identity. ``diverged`` marks a product
    whose next factor would push entries past DIVERGENCE_GUARD; in that
    case ``gamma`` holds the last product under it and ``k`` the number
    of steps actually folded.
    """

    gamma: np.ndarray
    k: int
    diverged: bool = False


@dataclass(frozen=True)
class TrajectoryRecord:
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


def _bases(n: int):
    """Orthonormal bases U (n^2 x s) and V (n^2 x t) of vec'd symmetric and
    skew matrices: E_ii, (E_pq + E_qp)/sqrt2 and (E_pq - E_qp)/sqrt2, p < q.
    """
    p, q = _basis_pairs(n)
    cols, units = np.arange(p.size), _basis_units(n)
    u, v = np.zeros((n * n, p.size)), np.zeros((n * n, p.size - n))
    u[p * n + q, cols] = u[q * n + p, cols] = units
    v[p[n:] * n + q[n:], cols[:-n]] = units[n:]
    v[q[n:] * n + p[n:], cols[:-n]] = -units[n:]
    return u, v


def _kron_entries(a: np.ndarray, p: np.ndarray, q: np.ndarray):
    """K[r, c] and K[r, c'] of each K = A kron A of the (m, n, n) ``a``,
    r and c over the pairs (p, q), c' the transposed position of c."""
    rows_p, rows_q = a[:, p], a[:, q]
    return rows_p[:, :, p] * rows_q[:, :, q], rows_p[:, :, q] * rows_q[:, :, p]


def _sym_skew_lifts(sys: JumpLinearSystem, e=0):
    """B_j kron B_j in the bases of _bases, B_j = A_j / 2**e_j, ``e`` one
    exponent or one per mode: the (m, s, s) symmetric and the (m, t, t)
    skew stacks, s = n(n+1)/2, t = n(n-1)/2.

    K = A kron A has K[(p,q), (r,s)] = A[p,r] A[q,s] = K[(q,p), (s,r)]
    exactly, so with c' the transposed position of column c every entry
    is 2 c_r c_c (K[r, c] +- K[r, c']), gathered from A without forming K,
    and the blocks coupling symmetric and skew matrices are exactly zero.
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
        skew = sym[:, n:, n:] - crossed[:, n:, n:]
        sym += crossed
    if not (np.all(np.isfinite(sym)) and np.all(np.isfinite(skew))):
        raise NumericalError("A_j kron A_j overflows: modes too large")
    # 2 c_r c_c with c = 1/2 on E_ii and 1/sqrt2 on pairs: 1/2, 1/sqrt2, 1
    scale = np.where(np.arange(p.size) < n, np.sqrt(0.5), 1.0)
    weights = np.outer(scale, scale)
    weights[:n, :n] = 0.5
    sym *= weights
    return sym, skew


def _scaled_lifts(sys: JumpLinearSystem, per_mode: bool = False):
    """_sym_skew_lifts of the modes over 2**e_j, and 2 e_j: each lift is
    its block times 2**(2 e_j). e_j is the least e >= 0 that brings the
    largest magnitude of A_j below 2**_LIFT_LIMIT, one per mode under
    ``per_mode``, else their largest for all. Modes that need no scaling
    keep their lifts bit for bit; larger ones scale exactly, powers of
    two being exact, or raise as _sym_skew_lifts says."""
    tops = np.abs(sys.modes).max(axis=(1, 2))
    e = np.maximum(np.frexp(tops)[1] - _LIFT_LIMIT, 0)
    if not per_mode:
        e = int(e.max())
    return (*_sym_skew_lifts(sys, e), 2 * e)


def _chain_lift(blocks: np.ndarray, mix: np.ndarray, weights: np.ndarray):
    """The matrix of _moment_map(modes, mix, weights) on the coordinates
    of ``blocks``, one (m, b, b) stack of _sym_skew_lifts: block (r, j) of
    the (s b, s b) result is sum_i weights[r, i] mix[j, i] blocks[i]."""
    lift = np.tensordot(weights[:, None] * mix[None], blocks, 1)
    size = len(mix) * blocks.shape[1]
    return np.swapaxes(lift, 1, 2).reshape(size, size)


def _step_weights(sys: JumpLinearSystem, pi_k) -> np.ndarray:
    """The checked, renormalized mode weights of one step."""
    pi = as_probability_vector(pi_k, "pi_k")
    if pi.size != sys.m:
        raise ValueError(f"pi_k has length {pi.size} for {sys.m} modes")
    return pi


def _push(modes: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Symmetrised A_j X A_j^T, ``mats`` broadcast against (m, q, n, n)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = modes[:, None] @ mats @ np.swapaxes(modes, 1, 2)[:, None]
        out *= 0.5  # halved first, two finite halves add up to a finite sum
        out += np.swapaxes(out, 2, 3)
    return out


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


class _Folded:
    """Gamma(k) as its symmetric and skew blocks, each stored as
    ``block * 2**exp`` with the largest magnitude in [0.5, 1); ``skew``
    is None when only the symmetric block was folded."""

    __slots__ = ("sym", "sym_exp", "skew", "skew_exp")

    def __init__(self, sym, sym_exp, skew=None, skew_exp=0):
        self.sym, self.sym_exp = sym, sym_exp
        self.skew, self.skew_exp = skew, skew_exp

    def full(self) -> np.ndarray:
        """The n^2 x n^2 matrix Gamma in the standard basis."""
        u, v = _bases(self.sym.shape[0] - self.skew.shape[0])
        return (np.ldexp(u @ self.sym @ u.T, self.sym_exp)
                + np.ldexp(v @ self.skew @ v.T, self.skew_exp))


def _peak(sym: np.ndarray, exp: int, n: int) -> float:
    """Largest entry magnitude of Gamma in the standard basis, from its
    scaled symmetric block; inf if an entry is not finite.

    Gamma maps X to a nonnegative combination of B X B^T over products B
    of modes, so by Cauchy-Schwarz |Gamma[(p,q),(r,s)]| <=
    sqrt(Gamma[(p,p),(r,r)] Gamma[(q,q),(s,s)]): the largest entry is one
    of the n x n entries Gamma[(p,p),(r,r)], the leading block of ``sym``.
    """
    if not np.isfinite(sym).all():
        return math.inf
    # that block's largest entry is at least 1/4 here, so an exponent
    # capped at 1000 still reads as past any guard below 2^998
    return math.ldexp(float(np.abs(sym[:n, :n]).max()), min(exp, 1000))


def _rescaled(block: np.ndarray, exp: int, lost: str = None):
    """``block`` over 2**e in place, e the binary exponent of its largest
    magnitude, and exp + e; entries left below the normal range are
    flushed to 0. If ``lost`` is given, flushing a nonzero entry raises
    NumericalError(lost) instead."""
    e = math.frexp(float(np.abs(block).max(initial=0.0)))[1]
    np.ldexp(block, -e, out=block)
    small = np.abs(block) < _TINY
    if lost is not None and np.any(block[small]):
        raise NumericalError(lost)
    block[small] = 0.0
    return block, exp + e


def _lifted_fold(sys: JumpLinearSystem, schedule, skew: bool = True):
    """Yield Gamma(1), Gamma(2), ... as _Folded, one per schedule row.

    The lift maps symmetric matrices to symmetric ones and skew to skew,
    so each block folds on its own, and the skew block only when ``skew``
    is set; the power-of-two rescaling keeps entries out of the subnormal
    range, where products slow down and lose digits, and away from
    overflow. The lifts are those of _scaled_lifts, so each step also
    adds their exponent to each block's. Scaled lifts are those of modes
    whose unscaled lifts could overflow; their fold flushes no nonzero
    entry but raises NumericalError, naming k, where it would.
    """
    sym_lifts, skew_lifts, lift_exp = _scaled_lifts(sys)
    sym, sym_exp = np.eye(sym_lifts.shape[1]), 0
    rest = (np.eye(skew_lifts.shape[1]), 0) if skew else (None, 0)
    one, row, lost = np.ones((1, sys.m)), None, None
    for k, w in enumerate(schedule[:, None], 1):  # one-state chain weights
        if w.tobytes() != row:  # schedules repeat rows: rebuild on change
            row = w.tobytes()
            sym_step = _chain_lift(sym_lifts, one, w)
            skew_step = _chain_lift(skew_lifts, one, w) if skew else None
        if lift_exp:
            lost = (f"Gamma spans more than float64 holds at k={k}: "
                    f"modes too large")
        sym, sym_exp = _rescaled(sym_step @ sym, sym_exp + lift_exp, lost)
        if skew:
            rest = _rescaled(skew_step @ rest[0], rest[1] + lift_exp, lost)
        yield _Folded(sym, sym_exp, *rest)


def _guarded_fold(sys: JumpLinearSystem, schedule):
    """_lifted_fold up to the first Gamma(k) with an entry past
    DIVERGENCE_GUARD or not finite: the divergence criterion of
    gamma_product."""
    return itertools.takewhile(
        lambda g: _peak(g.sym, g.sym_exp, sys.n) <= DIVERGENCE_GUARD,
        _lifted_fold(sys, schedule),
    )


def lifted_step_matrix(sys: JumpLinearSystem, pi_k) -> np.ndarray:
    """The n^2 reference lift sum_j pi_j (A_j kron A_j), acting on vec(Phi)."""
    pi, a, n2 = _step_weights(sys, pi_k), sys.modes, sys.n * sys.n
    with np.errstate(over="ignore"):
        lifts = a[:, :, None, :, None] * a[:, None, :, None, :]
    if not np.all(np.isfinite(lifts)):
        raise NumericalError("A_j kron A_j overflows: modes too large")
    return np.tensordot(pi, lifts.reshape(sys.m, n2, n2), axes=1)


def _sym_coords(covs: np.ndarray) -> np.ndarray:
    """The (q, s) coordinates of the symmetric parts of (q, n, n) ``covs``
    in the basis of _bases: Sigma_ii, then sqrt2 Sigma_pq for p < q."""
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


def _mog_push(modes, lifts, exps, pi, weights, means, coords):
    """One exact-mixture step on components held as arrays.

    ``coords`` holds each covariance as its _sym_coords, ``lifts`` and
    ``exps`` are the symmetric blocks of _scaled_lifts per mode,
    transposed, and their exponents. Pair (j, i) gets weight pi_j
    alpha_i, mean A_j mu_i and the coordinates of A_j Sigma_i A_j^T,
    mode-major: one matrix product per mode of nonzero probability.
    Pairs of weight 0 are dropped and the rest renormalized to sum 1.
    Returns (weights, means, coords).
    """
    live = np.flatnonzero(pi)
    weights = np.outer(pi[live], weights).reshape(-1)
    keep = weights > 0.0
    if not np.any(keep):
        raise ValueError("every mixture component has zero weight")
    with np.errstate(over="ignore", invalid="ignore"):
        means = means @ np.swapaxes(modes[live], 1, 2)
        pushed = np.matmul(coords, lifts[live])
        if np.any(exps[live]):
            np.ldexp(pushed, exps[live, None, None], out=pushed)
    means = means.reshape(len(weights), -1)
    coords = pushed.reshape(len(weights), -1)
    if not np.all(keep):
        weights, means, coords = weights[keep], means[keep], coords[keep]
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(coords))):
        raise NumericalError("mixture diverged: an entry is not finite")
    return weights / weights.sum(), means, coords


def mog_step(
    sys: JumpLinearSystem,
    pi_k,
    mix: GaussianMixture,
) -> GaussianMixture:
    """Push a Gaussian mixture through one switching step.

    Every (mode j, component i) pair yields an output component with
    weight pi_j * alpha_i, mean A_j mu_i, covariance A_j Sigma_i A_j^T,
    ordered mode-major (all of mode 1's images first). The zero-weight
    pairs produced by modes with pi_j = 0 are dropped; surviving weights
    are renormalized to sum 1. This is one step of the exact route: the
    covariances are pushed as their n(n+1)/2 symmetric coordinates and
    returned exactly symmetric.

    Raises
    ------
    ValueError
        On dimension mismatch or if every pair has zero weight.
    NumericalError
        If a surviving mean or covariance entry is not finite.
    """
    pi = _step_weights(sys, pi_k)
    if mix.n != sys.n:
        raise ValueError(
            f"mixture has dimension {mix.n}, system has n={sys.n}"
        )
    sym, _, exps = _scaled_lifts(sys, per_mode=True)
    weights, means, coords = _mog_push(
        sys.modes, np.swapaxes(sym, 1, 2), exps, pi,
        mix.weights, mix.means, _sym_coords(mix.covs),
    )
    return GaussianMixture(
        weights=weights, means=means, covs=_sym_matrices(coords, sys.n)
    )


def _count(x: int) -> str:
    """``x`` in digits below 10^30, else its order of magnitude.

    str() of an int with more than 4300 digits raises by default.
    """
    return str(x) if x < 10**30 else f"~10^{int(math.log10(x))}"


def _check_cap(cap: int) -> None:
    """Reject a component cap that no mixture, of one component or more,
    can meet."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")


def _mog_fold(sys: JumpLinearSystem, schedule, init, cap):
    """Yield (weights, means, coords) after each step, as _mog_push
    returns them; ``cap`` as in mog_propagate."""
    # modes of zero probability are pruned every step, so only the
    # support sizes multiply the count
    support = np.count_nonzero(schedule, axis=1)
    sizes, steps = np.unique(support, return_counts=True)
    reach = init.q * math.prod(
        int(size) ** int(count) for size, count in zip(sizes, steps)
    )
    if reach > cap:
        if np.all(support == sys.m):
            counted = f"m^k*q0 = {sys.m}^{len(schedule)}*{init.q}"
        else:
            counted = (
                f"q0*prod_k nnz(pi(k)) = {init.q}*{_count(reach // init.q)}"
            )
        raise ValueError(
            f"exact propagation reaches {counted} = {_count(reach)} "
            f"components, beyond cap={cap}; raise the cap"
        )
    sym, _, exps = _scaled_lifts(sys, per_mode=True)
    lifts = np.swapaxes(sym, 1, 2)
    state = init.weights, init.means, _sym_coords(init.covs)
    for k, pi in enumerate(_normalized(schedule), 1):
        try:
            state = _mog_push(sys.modes, lifts, exps, pi, *state)
        except NumericalError as exc:
            raise NumericalError(f"{exc} at k={k}") from None
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
    """
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    _check_cap(cap)
    _reject(validate_system(sys, law, init).violations)
    if k == 0:
        return init
    schedule = _marginals(law, k, sys.m)
    for weights, means, coords in _mog_fold(sys, schedule, init, cap):
        pass
    return GaussianMixture(
        weights=weights, means=means, covs=_sym_matrices(coords, sys.n)
    )


def moment_step(
    sys: JumpLinearSystem, pi_k, state: SecondMomentState
) -> SecondMomentState:
    """One second-moment update Phi(k) = sum_j pi_j(k) A_j Phi(k-1) A_j^T,
    the map that iid_test certifies, of the one-state chain with pi(k).

    Raises ``NumericalError`` if an entry is not finite.
    """
    pi = _step_weights(sys, pi_k)
    if state.phi.shape != (sys.n, sys.n):
        raise ValueError(
            f"phi has shape {state.phi.shape}, system has n={sys.n}"
        )
    step = _moment_map(sys.modes, np.ones((1, sys.m)), pi[None],
                       f"second moment diverged at k={state.k + 1}")
    return SecondMomentState(phi=step(state.phi[None])[0], k=state.k + 1)


def gamma_product(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    k: int,
) -> GammaState:
    """Reverse-ordered product Gamma(k) = A(k) A(k-1) ... A(1).

    Gamma(0) is the identity. If a multiplication would push any entry
    magnitude past DIVERGENCE_GUARD, the fold stops and returns the last
    product under it with ``diverged=True`` (the ``k`` field then reports
    how many factors were folded).
    """
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    gamma, done = np.eye(sys.n * sys.n), 0
    if k > 0:
        schedule = marginal_schedule(law, k, m=sys.m)
        for done, folded in enumerate(_guarded_fold(sys, schedule), 1):
            pass
        if done:
            gamma = folded.full()
    return GammaState(gamma=gamma, k=done, diverged=done < k)


def _record(k: int, w2, count: int = None) -> TrajectoryRecord:
    """W^2(k) as a record; NumericalError if it is not finite."""
    w2 = float(w2)
    if not math.isfinite(w2):
        raise NumericalError(f"W^2 diverged at k={k} (not finite)")
    return TrajectoryRecord(k=k, w2=w2, component_count=count)


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
    n x n covariances.

    Raises
    ------
    ValueError
        On invalid inputs, unknown method, an exact-mixture cap below 1,
        or exact-mixture cap overflow.
    NumericalError
        If W^2(k) or a value the route carries is not finite for some
        k <= k_max (unstable growth; the message names the failing step).
    """
    k_max = int(k_max)
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if method not in ("moment", "gamma", "exact_mog"):
        raise ValueError(
            f"unknown method {method!r}: expected moment, gamma, or "
            f"exact_mog"
        )
    if method == "exact_mog":
        _check_cap(cap)
    _reject(validate_system(sys, law, init).violations)

    mean, cov = synthetic_gaussian(init)
    phi0 = np.outer(mean, mean) + cov
    # every W^2(k) is checked by _record, so no overflow needs a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "exact_mog":
            records = [_record(0, mixture_to_dirac_sq(init), init.q)]
        else:
            records = [_record(0, np.trace(phi0))]
        if k_max == 0:
            return records
        schedule = _marginals(law, k_max, sys.m)
        if method == "moment":
            # moment_step's checks of pi and Phi ran on entry: apply the
            # map directly (a closure, built per step to name the step)
            phi, one = phi0[None], np.ones((1, sys.m))
            for k, w in enumerate(_normalized(schedule)[:, None], 1):
                phi = _moment_map(sys.modes, one, w,
                                  f"second moment diverged at k={k}")(phi)
                records.append(_record(k, np.trace(phi[0])))
        elif method == "gamma":
            # I and Phi(0) are symmetric: only the symmetric block of
            # Gamma(k) pairs them
            basis = _bases(sys.n)[0].T
            left, right = basis @ vec(np.eye(sys.n)), basis @ vec(phi0)
            folds = _lifted_fold(sys, schedule, False)
            for step, g in enumerate(folds, 1):
                w2 = np.ldexp(left @ g.sym @ right, g.sym_exp)
                records.append(_record(step, w2))
        else:
            states = _mog_fold(sys, schedule, init, cap)
            for step, (weights, means, coords) in enumerate(states, 1):
                # the first n coordinates are the diagonal (_basis_pairs)
                w2 = _dirac_sq(weights, means, coords[:, :sys.n])
                records.append(_record(step, w2, len(weights)))
    return records
