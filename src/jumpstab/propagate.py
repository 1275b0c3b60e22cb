"""State-PDF and second-moment propagation.

Three routes compute the squared Wasserstein-to-origin trajectory
W^2(k) of a jump linear system started from a Gaussian mixture:

``exact_mog``
    Pushes the full mixture through the mode maps. One step against
    marginals pi(k) turns q components into m*q with weights
    pi_j(k)*alpha_i, means A_j mu_i, and covariances A_j Sigma_i A_j^T,
    so counts grow geometrically and a hard cap applies.

``moment``
    Propagates only the n x n second moment,
    Phi(k) = sum_j pi_j(k) A_j Phi(k-1) A_j^T, whose trace equals
    W^2(k). Default method: same numbers as the lifted product at n x n
    cost.

``gamma``
    Folds the n^2 x n^2 lifted step matrices
    A(i) = sum_j pi_j(i) (A_j kron A_j) into the reverse-ordered product
    Gamma(k) and reads off W^2(k) = vec(I)^T Gamma(k) vec(Phi(0)).

The three must agree to rounding; their agreement is a correctness check
of the whole chain and is asserted by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matkit import NumericalError, vec
from .sysmodel import (
    GaussianMixture,
    JumpLinearSystem,
    SecondMomentState,
    SwitchingLaw,
    as_probability_vector,
    marginal_schedule,
    validate_system,
)
from .wasserstein import mixture_to_dirac_sq, synthetic_gaussian

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

#: Hard ceiling on exact-mixture component counts.
DEFAULT_COMPONENT_CAP = 100_000

#: Entry magnitudes beyond this flag divergence instead of risking overflow.
DIVERGENCE_GUARD = 1e150


@dataclass(frozen=True, eq=False)
class GammaState:
    """Reverse-ordered product Gamma(k) of lifted step matrices.

    Gamma(0) is the n^2 x n^2 identity. ``diverged`` marks a product
    whose next factor would push entries past the overflow guard; in
    that case ``gamma`` holds the last finite product and ``k`` the
    number of steps actually folded.
    """

    gamma: np.ndarray
    k: int
    diverged: bool = False


@dataclass(frozen=True)
class TrajectoryRecord:
    """One time point of a W^2 trajectory.

    ``w2`` and ``phi_trace`` are the same quantity through different
    readings (vec(I)^T vec(Phi) = tr Phi); the exact-mixture method
    computes them independently, the moment methods by construction.
    ``component_count`` is populated by exact-mixture runs only.
    """

    k: int
    w2: float
    phi_trace: float
    component_count: int = None


def _kron_squares(sys: JumpLinearSystem) -> np.ndarray:
    """The (m, n^2, n^2) stack of A_j kron A_j; NumericalError on overflow."""
    a, n2 = sys.modes, sys.n * sys.n
    with np.errstate(over="ignore"):
        lifts = a[:, :, None, :, None] * a[:, None, :, None, :]
    if not np.all(np.isfinite(lifts)):
        raise NumericalError("A_j kron A_j overflows: modes too large")
    return lifts.reshape(sys.m, n2, n2)


def _push(modes: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Symmetrised A_j X_i A_j^T for each mode j and matrix i: (m, q, n, n)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = modes[:, None] @ mats[None] @ np.swapaxes(modes, 1, 2)[:, None]
        out += np.swapaxes(out, 2, 3)
    out *= 0.5
    return out


def _past_guard(x: np.ndarray) -> bool:
    return not np.all(np.abs(x) <= DIVERGENCE_GUARD)  # NaN counts as past


def _lifted_fold(sys: JumpLinearSystem, schedule):
    """Yield Gamma(1), Gamma(2), ... until a product passes the guard."""
    lifts = _kron_squares(sys)
    gamma = np.eye(sys.n * sys.n)
    for pi in schedule:
        gamma = np.tensordot(pi, lifts, axes=1) @ gamma
        if _past_guard(gamma):
            return
        yield gamma


def lifted_step_matrix(sys: JumpLinearSystem, pi_k) -> np.ndarray:
    """One-step lift sum_j pi_j (A_j kron A_j), acting on vec(Phi)."""
    pi = as_probability_vector(pi_k, "pi_k")
    if pi.size != sys.m:
        raise ValueError(f"pi_k has length {pi.size} for {sys.m} modes")
    return np.tensordot(pi, _kron_squares(sys), axes=1)


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
    are renormalized to sum 1.

    Raises
    ------
    ValueError
        On dimension mismatch or if every pair has zero weight.
    NumericalError
        If a surviving mean or covariance entry passes the overflow guard.
    """
    pi = as_probability_vector(pi_k, "pi_k")
    if pi.size != sys.m:
        raise ValueError(f"pi_k has length {pi.size} for {sys.m} modes")
    if mix.n != sys.n:
        raise ValueError(
            f"mixture has dimension {mix.n}, system has n={sys.n}"
        )
    weights = np.outer(pi, mix.weights).reshape(-1)
    means = (mix.means @ np.swapaxes(sys.modes, 1, 2)).reshape(-1, sys.n)
    covs = _push(sys.modes, mix.covs).reshape(-1, sys.n, sys.n)

    keep = weights > 0.0
    if not np.any(keep):
        raise ValueError("every mixture component has zero weight")
    weights, means, covs = weights[keep], means[keep], covs[keep]
    if _past_guard(means) or _past_guard(covs):
        raise NumericalError(
            f"mixture diverged (entry magnitude exceeds {DIVERGENCE_GUARD:g})"
        )
    return GaussianMixture(
        weights=weights / weights.sum(), means=means, covs=covs
    )


def _count(x: int) -> str:
    """``x`` in digits below 10^30, else its order of magnitude.

    str() of an int with more than 4300 digits raises by default.
    """
    return str(x) if x < 10**30 else f"~10^{int(math.log10(x))}"


def _mog_fold(sys: JumpLinearSystem, schedule, init, cap):
    """Yield the mixture after each step; ``cap`` as in mog_propagate."""
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
    mix = init
    for pi in schedule:
        mix = mog_step(sys, pi, mix)
        yield mix


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
    support), so that count is checked against ``cap`` up front and the
    run refuses to start if it cannot finish.
    """
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    report = validate_system(sys, law, init)
    if not report.ok:
        raise ValueError("; ".join(report.violations))
    mix = init
    if k > 0:
        schedule = marginal_schedule(law, k, m=sys.m)
        for mix in _mog_fold(sys, schedule, init, cap):
            pass
    return mix


def moment_step(
    sys: JumpLinearSystem, pi_k, state: SecondMomentState
) -> SecondMomentState:
    """One second-moment update Phi(k) = sum_j pi_j(k) A_j Phi(k-1) A_j^T.

    Raises ``NumericalError`` once an entry passes the overflow guard.
    """
    pi = as_probability_vector(pi_k, "pi_k")
    if pi.size != sys.m:
        raise ValueError(f"pi_k has length {pi.size} for {sys.m} modes")
    if state.phi.shape != (sys.n, sys.n):
        raise ValueError(
            f"phi has shape {state.phi.shape}, system has n={sys.n}"
        )
    phi = np.tensordot(pi, _push(sys.modes, state.phi[None])[:, 0], 1)
    if _past_guard(phi):
        raise NumericalError(
            f"second moment diverged at k={state.k + 1} "
            f"(entry magnitude exceeds {DIVERGENCE_GUARD:g})"
        )
    return SecondMomentState(phi=phi, k=state.k + 1)


def gamma_product(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    k: int,
) -> GammaState:
    """Reverse-ordered product Gamma(k) = A(k) A(k-1) ... A(1).

    Gamma(0) is the identity. If a multiplication would push any entry
    magnitude past DIVERGENCE_GUARD, the fold stops and returns the last finite
    product with ``diverged=True`` (the ``k`` field then reports how many
    factors were folded).
    """
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    gamma, done = np.eye(sys.n * sys.n), 0
    if k > 0:
        schedule = marginal_schedule(law, k, m=sys.m)
        for done, gamma in enumerate(_lifted_fold(sys, schedule), 1):
            pass
    return GammaState(gamma=gamma, k=done, diverged=done < k)


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
    exact-mixture method records component counts and computes ``w2``
    (weighted component distances) and ``phi_trace`` (matched-moment
    trace) independently; the other two produce one number read two ways.

    Raises
    ------
    ValueError
        On invalid inputs, unknown method, or exact-mixture cap overflow.
    NumericalError
        If the second moment diverges past the overflow guard before
        k_max (unstable growth; the message names the failing step).
    """
    k_max = int(k_max)
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if method not in ("moment", "gamma", "exact_mog"):
        raise ValueError(
            f"unknown method {method!r}: expected moment, gamma, or "
            f"exact_mog"
        )
    report = validate_system(sys, law, init)
    if not report.ok:
        raise ValueError("; ".join(report.violations))

    mean, cov = synthetic_gaussian(init)
    phi0 = np.outer(mean, mean) + cov
    w2_0 = float(np.trace(phi0))
    if method == "exact_mog":
        records = [
            TrajectoryRecord(
                k=0, w2=mixture_to_dirac_sq(init), phi_trace=w2_0,
                component_count=init.q,
            )
        ]
    else:
        records = [TrajectoryRecord(k=0, w2=w2_0, phi_trace=w2_0)]
    if k_max == 0:
        return records

    schedule = marginal_schedule(law, k_max, m=sys.m)

    if method == "moment":
        state = SecondMomentState(phi=phi0, k=0)
        for pi in schedule:
            state = moment_step(sys, pi, state)
            w2 = float(np.trace(state.phi))
            records.append(TrajectoryRecord(k=state.k, w2=w2, phi_trace=w2))
    elif method == "gamma":
        vec_id, vec_phi0 = vec(np.eye(sys.n)), vec(phi0)
        for step, gamma in enumerate(_lifted_fold(sys, schedule), 1):
            w2 = float(vec_id @ gamma @ vec_phi0)
            records.append(TrajectoryRecord(k=step, w2=w2, phi_trace=w2))
        if len(records) <= k_max:
            raise NumericalError(
                f"lifted product diverged at k={len(records)} "
                f"(entry magnitude exceeds {DIVERGENCE_GUARD:g})"
            )
    else:
        mixes = _mog_fold(sys, schedule, init, cap)
        for step, mix in enumerate(mixes, 1):
            mean, cov = synthetic_gaussian(mix)
            records.append(
                TrajectoryRecord(
                    k=step,
                    w2=mixture_to_dirac_sq(mix),
                    phi_trace=float(mean @ mean + np.trace(cov)),
                    component_count=mix.q,
                )
            )
    return records
