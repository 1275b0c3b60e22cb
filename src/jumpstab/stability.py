"""Mean-square stability verdicts for jump linear systems.

Four tests cover the four switching laws:

- ``iid_test``: spectral radius of sum_j pi_j (A_j kron A_j) against 1.
- ``markov_test``: spectral radius of the chain-lifted matrix
  diag(A_1 kron A_1, ..., A_m kron A_m) (P^T kron I) against 1.
- ``general_test``: for a schedule, the IID test of its last row, which
  repeats forever, read against the transient its earlier rows fold.
- ``contraction_test``: scan of deterministic-sequence prefix products
  for a first norm strictly below 1.

The spectral tests share one second-moment map,
T(Q)_i = A_i (sum_j P_ji Q_j) A_i^T on stacks of symmetric matrices
(the IID law is the one-state chain with weights pi), applied
matrix-free. T maps the PSD cone into itself, so rho(T) is an eigenvalue
with a PSD eigenvector X, and a PSD X > 0 with T(X) < c X (or > c X)
proves rho(T) < c (or > c). Restarted Arnoldi finds X; one Cholesky
checks the inequality, without the eigensolver that found X. Where no
such certificate holds (the marginal band, no convergence, a singular
Perron vector) the test falls back to a dense eigensolve of the lift's
symmetric block, n(n+1)/2 rows per chain state instead of n^2, which
has the spectral radius of the whole lift. The map (the one the
``moment`` route steps) and its matrix live in ``propagate``: this
module reads their spectra and certificates and builds neither.

Spectral verdicts use a symmetric margin around 1: evidence below
1 - margin is stable, above 1 + margin unstable, in between marginal.
The schedule and sequence tests can also return "inconclusive", and the
sequence test's positive verdict is "stable-per-corollary": a
contractive prefix certifies decay for the scanned pattern repeated, and
no claim is made beyond that.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .defaults import DEFAULT_HORIZON, DEFAULT_MARGIN
from .matkit import _as_floats, _sym_part, spectral_norm, spectral_radius
from .propagate import (
    DIVERGENCE_GUARD,
    _chain_lift,
    _moment_map,
    _sym_lifts,
)
from .sysmodel import (
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    SwitchingLaw,
    _as_int,
    _normalized,
    _reject,
    as_probability_vector,
    check_law,
    stationary_distribution,
)

__all__ = [
    "StabilityReport",
    "DEFAULT_MARGIN",
    "DEFAULT_HORIZON",
    "iid_test",
    "markov_test",
    "general_test",
    "contraction_test",
    "analyze",
]

#: Krylov dimension of one Arnoldi cycle (capped by the dimension of the
#: space of symmetric stacks).
_KRYLOV_DIM = 60

#: Arnoldi cycles before the spectral tests fall back to the dense block.
_RESTARTS = 30

#: Relative Ritz residual ||T(X) - theta X|| / theta of a converged pair.
_RITZ_TOL = 1e-13

#: Relative size of an Arnoldi residual that marks an invariant subspace.
_BREAKDOWN = 1e-14

#: Certificates must be definite by this times n times their largest
#: entry: a few units of the rounding of one n x n matrix product.
_CERT_SLACK = 16 * np.finfo(float).eps


class StabilityReport(NamedTuple):
    """Outcome of one stability test.

    ``evidence`` is the number the verdict was read from: a spectral
    radius for the spectral tests, a prefix-product norm for the
    sequence test. ``horizon_used`` is the number of stored schedule
    rows, or of sequence steps scanned. ``notes`` carry
    auxiliary findings (stationary-distribution status, period norms,
    divergence warnings). The spectral tests set ``certificate``, the
    kind checked by Cholesky ("stable" or "unstable") or
    "dense fallback: <reason>", and ``applications``, the number of
    second-moment map applications spent.
    """

    verdict: str
    test_name: str
    evidence: float
    horizon_used: int = None
    notes: tuple = ()
    certificate: str = None
    applications: int = None


def _spectral_verdict(evidence: float, margin: float) -> str:
    if evidence < 1.0 - margin:
        return "stable"
    if evidence > 1.0 + margin:
        return "unstable"
    return "marginal"


def _check_margin(margin) -> float:
    """The margin as a float in [0, 1); the certificates assume that range.
    Ints, floats and numpy reals pass; bools, strings and other values
    raise ``ValueError``, as sysmodel._as_int does for integers."""
    if isinstance(margin, bool) or not isinstance(
            margin, (int, float, np.integer, np.floating)):
        raise ValueError(f"margin must be a real number, got {margin!r}")
    value = float(margin)
    _reject(
        [] if 0.0 <= value < 1.0
        else [f"margin must be finite and in [0, 1), got {value!r}"]
    )
    return value


def _arnoldi(apply, start: np.ndarray, dim: int):
    """``dim`` Arnoldi steps from ``start`` with twice-applied Gram-Schmidt.

    Returns the orthonormal basis (k, N), the Hessenberg matrix (k, k) and
    the residual norm h[k, k-1]: 0 when the Krylov space turned out
    invariant after k < dim steps.
    """
    basis = np.zeros((dim + 1, start.size))
    hess = np.zeros((dim + 1, dim))
    basis[0] = start.ravel() / np.linalg.norm(start)
    for k in range(dim):
        w = apply(basis[k].reshape(start.shape)).ravel()
        scale = np.linalg.norm(w)
        for _ in range(2):
            h = basis[:k + 1] @ w
            w -= h @ basis[:k + 1]
            hess[:k + 1, k] += h
        beta = np.linalg.norm(w)
        if beta <= _BREAKDOWN * scale:
            return basis[:k + 1], hess[:k + 1, :k + 1], 0.0
        hess[k + 1, k] = beta
        basis[k + 1] = w / beta
    return basis[:dim], hess[:dim, :dim], hess[dim, dim - 1]


def _definite(mats: np.ndarray, scale: float) -> bool:
    """Whether one Cholesky passes on every n x n matrix of ``mats``
    shifted down by _CERT_SLACK * n * ``scale``: definite by more than the
    rounding of a product with entries up to ``scale``, so that a matrix
    singular in exact arithmetic does not pass on roundoff."""
    n = mats.shape[-1]
    try:
        np.linalg.cholesky(mats - _CERT_SLACK * n * scale * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def _certified_radius(apply, states: int, n: int, margin: float):
    """rho(T) with a verdict certified by Cholesky, if one holds.

    Restarted Arnoldi from the identity stack: it lies inside the PSD
    cone, so its Krylov spaces hold the Perron direction of T. Each cycle
    restarts from the Ritz vector of the largest real Ritz value. A
    converged pair (theta, X) certifies "stable" when X > 0 and
    (1 - margin) X - T(X) > 0 (then rho(T) < 1 - margin), "unstable" when
    X > 0 and T(X) - (1 + margin) X > 0 (then rho(T) > 1 + margin); one
    batched Cholesky checks both matrices, without the eigensolver, each
    shifted down by a slack above the rounding of T(X).

    Returns (certificate, evidence, X, applications). On a certificate,
    the evidence is theta. Otherwise the certificate reads
    "dense fallback: <reason>" and evidence and X are None; the reasons
    are theta in the marginal band, no convergence within the restart
    budget (where peripheral spectra end up, unless the next reason
    catches them), and a certificate that is not positive definite (a
    singular Perron vector: reducible chains, zero or rank-deficient
    modes).
    """
    dim = min(_KRYLOV_DIM, states * n * (n + 1) // 2)
    x = np.broadcast_to(np.eye(n), (states, n, n))
    used = 0
    for _ in range(_RESTARTS):
        basis, hess, beta = _arnoldi(apply, x, dim)
        used += basis.shape[0]
        theta, vecs = np.linalg.eig(hess)
        real = np.flatnonzero(theta.imag == 0)
        if real.size == 0:
            return "dense fallback: no real Ritz value", None, None, used
        j = real[np.argmax(theta.real[real])]
        y = vecs[:, j].real
        x = (y @ basis).reshape(x.shape)
        if abs(beta * y[-1]) <= _RITZ_TOL * abs(theta[j]):
            break
    else:
        return (f"dense fallback: no convergence in {_RESTARTS} Arnoldi "
                f"cycles", None, None, used)
    x = _sym_part(x)
    if np.trace(x, axis1=1, axis2=2).sum() < 0.0:
        x = -x
    tx = apply(x)
    used += 1
    # theta as <X, T(X)> / <X, X>: free of the Gram-Schmidt rounding
    evidence = abs(float(np.vdot(x, tx) / np.vdot(x, x)))
    verdict = _spectral_verdict(evidence, margin)
    if verdict == "marginal":
        return "dense fallback: marginal band", None, None, used
    gap = (1.0 - margin) * x - tx if verdict == "stable" \
        else tx - (1.0 + margin) * x
    if not _definite(np.concatenate([x, gap]),
                     max(np.max(np.abs(x)), np.max(np.abs(tx)))):
        return ("dense fallback: certificate not positive definite", None,
                None, used)
    return verdict, evidence, x, used


def _spectral_report(sys, mix, weights, margin, test_name,
                     notes=()) -> StabilityReport:
    """Certified verdict on the map ``_moment_map(modes, mix, weights)``,
    else the dense eigensolve of its matrix on symmetric matrices."""
    margin = _check_margin(margin)
    certificate, evidence, _, used = _certified_radius(
        _moment_map(sys.modes, mix, weights), mix.shape[0], sys.n, margin
    )
    if evidence is None:
        lift = _chain_lift(_sym_lifts(sys), mix, weights)
        evidence = spectral_radius(lift)
        verdict = _spectral_verdict(evidence, margin)
    else:
        verdict = certificate
    return StabilityReport(
        verdict=verdict,
        test_name=test_name,
        evidence=evidence,
        notes=notes,
        certificate=certificate,
        applications=used,
    )


def iid_test(
    sys: JumpLinearSystem, pi, margin: float = DEFAULT_MARGIN
) -> StabilityReport:
    """Spectral test for modes drawn independently from a fixed pi.

    The second moment evolves by T(X) = sum_j pi_j A_j X A_j^T, the lift
    sum_j pi_j (A_j kron A_j); mean-square stability is equivalent to
    rho(T) < 1. This is the one-state chain of the Markov test.
    """
    pi = as_probability_vector(pi, "pi")
    if pi.size != sys.m:
        raise ValueError(f"pi has length {pi.size} for {sys.m} modes")
    return _spectral_report(sys, np.ones((1, sys.m)), pi[None], margin, "iid")


def markov_test(
    sys: JumpLinearSystem, P, margin: float = DEFAULT_MARGIN
) -> StabilityReport:
    """Spectral test for a time-homogeneous Markov switching chain.

    Compares to 1 the spectral radius of
    T(Q)_i = A_i (sum_j P_ji Q_j) A_i^T on stacks of m symmetric
    matrices: the lift diag(A_1 kron A_1, ..., A_m kron A_m)
    (P^T kron I), whose block (i, j) is P_ji A_i kron A_i, restricted to
    symmetric matrices. The underlying stability condition presumes the
    chain admits a stationary distribution; the report notes the status
    found (unique, non-unique, or none) rather than silently assuming it.

    Raises
    ------
    ValueError
        If P is not row-stochastic of size m.
    """
    p = _as_floats(P, "P")
    if p.shape != (sys.m, sys.m):
        raise ValueError(
            f"P has shape {p.shape}, expected ({sys.m}, {sys.m})"
        )
    stationary = stationary_distribution(p)  # checks P is row-stochastic
    notes = (f"stationary distribution: {stationary.status}",)
    if stationary.status != "unique":
        notes += (
            "the spectral condition presumes a stationary distribution; "
            "treat the verdict with care",
        )
    return _spectral_report(sys, _normalized(p), np.eye(sys.m), margin,
                            "markov", notes)


def general_test(
    sys: JumpLinearSystem,
    law: ScheduleSwitching,
    margin: float = DEFAULT_MARGIN,
) -> StabilityReport:
    """Exact test for a schedule law pi(1), ..., pi(K), pi(K), ...

    Mean-square stability is Gamma(k) -> 0. Past row K the one-state map
    T_K(X) = sum_j pi_j(K) A_j X A_j^T repeats forever, so the verdict,
    evidence and certificate are those of the spectral test on T_K under
    ``margin``. The rows before it fold the transient
    Y = T_{K-1} ... T_1(I), of which only the range is read, so the fold
    restarts from I wherever it is positive definite: each T_k maps PSD
    matrices of one range to PSD matrices of one range. Two exact
    exceptions: Y = 0 maps every second moment to 0, so the verdict is
    stable; an unstable tail behind a Y that is not positive definite
    (the transient may remove the growing direction) is inconclusive.
    ``horizon_used`` is K.

    Raises
    ------
    ValueError
        If the law is not a schedule or does not fit the system.
    """
    if not isinstance(law, ScheduleSwitching):
        serving = {IIDSwitching: "iid_test", MarkovSwitching: "markov_test",
                   SequenceSwitching: "contraction_test"}.get(type(law))
        raise ValueError(
            f"general test needs a schedule, got {type(law).__name__}"
            + (f"; {serving} serves it" if serving else "")
        )
    _reject(check_law(law, sys.m))
    rows = _normalized(law.vectors)
    one = np.ones((1, sys.m))
    report = _spectral_report(sys, one, rows[-1:], margin, "general")
    y, definite = np.eye(sys.n)[None], True
    for w in rows[:-1]:
        if definite:  # I has the range of y and no ill conditioning
            y = np.eye(sys.n)[None]
        y = _moment_map(sys.modes, one, w[None])(y)
        y /= np.max(np.abs(y)) or 1.0  # Y = 0 stays 0
        definite = _definite(y, np.max(np.abs(y)))
    verdict, notes = report.verdict, ()
    if not y.any():
        verdict = "stable"
        notes = ("the rows before the last map every second moment to 0; "
                 "the evidence and certificate are the last row's",)
    elif verdict == "unstable" and not definite:
        verdict = "inconclusive"
        notes = ("the last row is unstable, but the rows before it map I to "
                 "a second moment that is not positive definite, which may "
                 "miss its growing direction",)
    return report._replace(verdict=verdict, horizon_used=len(rows),
                           notes=notes)


def contraction_test(
    sys: JumpLinearSystem,
    seq: SequenceSwitching,
    k_max: int = DEFAULT_HORIZON,
) -> StabilityReport:
    """Scan deterministic-sequence prefix products for a contraction.

    Folds A_{i_k} ... A_{i_1} for k = 1 .. k_max, cycling through the
    stored sequence, and reports the first k whose spectral norm drops
    strictly below 1 as "stable-per-corollary" (the certificate is that
    prefix; nothing is claimed about sequences that stop repeating it).
    If no prefix contracts, the verdict is inconclusive with the
    smallest norm seen as evidence. For the periodic reading of the
    sequence, the one-period product norm is recorded in the notes.
    """
    if not isinstance(seq, SequenceSwitching):
        raise ValueError(
            f"contraction test needs a deterministic sequence, got "
            f"{type(seq).__name__}"
        )
    _reject(check_law(seq, sys.m))
    k_max = _as_int(k_max, "k_max")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")

    period = len(seq.indices)
    notes = ()
    prod = np.eye(sys.n)
    best = np.inf
    hit = None
    for k in range(1, k_max + 1):
        prod = sys.modes[seq.indices[(k - 1) % period] - 1] @ prod
        if np.max(np.abs(prod)) > DIVERGENCE_GUARD:
            notes += (
                f"prefix products exceeded the overflow guard at k={k}",
            )
            break
        value = spectral_norm(prod)
        if k == period:
            notes += (f"one-period product norm: {value:.6g}",)
        best = min(best, value)
        if value < 1.0:
            hit = (k, value)
            break

    if hit is not None:
        k, value = hit
        return StabilityReport(
            verdict="stable-per-corollary",
            test_name="contraction",
            evidence=value,
            horizon_used=k,
            notes=notes,
        )
    return StabilityReport(
        verdict="inconclusive",
        test_name="contraction",
        evidence=best if np.isfinite(best) else np.inf,
        horizon_used=k_max,
        notes=notes + (
            f"no contractive prefix within {k_max} steps",
        ),
    )


def analyze(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    margin: float = DEFAULT_MARGIN,
    horizon: int = DEFAULT_HORIZON,
) -> StabilityReport:
    """Dispatch to the stability test matching the switching law.

    IID laws get the fixed spectral test, Markov laws the chain-lifted
    spectral test, schedules the spectral test of their last row, and
    deterministic sequences the contraction scan over ``horizon`` steps.

    Raises
    ------
    ValueError
        If margin is not a finite number in [0, 1) or horizon is below 1.
    """
    margin = _check_margin(margin)
    horizon = _as_int(horizon, "horizon")
    _reject([] if horizon >= 1 else [f"horizon must be >= 1, got {horizon}"])
    if isinstance(law, IIDSwitching):
        return iid_test(sys, law.pi, margin)
    if isinstance(law, MarkovSwitching):
        return markov_test(sys, law.P, margin)
    if isinstance(law, ScheduleSwitching):
        return general_test(sys, law, margin)
    if isinstance(law, SequenceSwitching):
        return contraction_test(sys, law, horizon)
    raise ValueError(f"unknown switching law {type(law).__name__}")
