"""Mean-square stability verdicts for jump linear systems.

Four tests cover the four switching laws:

- ``iid_test``: spectral radius of sum_j pi_j (A_j kron A_j) against 1.
- ``markov_test``: spectral radius of the chain-lifted matrix
  diag(A_1 kron A_1, ..., A_m kron A_m) (P^T kron I) against 1.
- ``general_test``: decay of the reverse-ordered product Gamma(k) over a
  finite horizon, for laws given only through their per-step marginals,
  folded as its symmetric and skew blocks.
- ``contraction_test``: scan of deterministic-sequence prefix products
  for a first norm strictly below 1.

The two spectral tests diagonalise only the symmetric block of their
lift, n(n+1)/2 rows per mode instead of n^2. The lift maps PSD matrices
(one per chain state) to PSD matrices, so its spectral radius is an
eigenvalue with a PSD, hence symmetric, eigenvector: rho(symmetric
block) = rho(full lift).

Spectral verdicts use a symmetric margin around 1: evidence below
1 - margin is stable, above 1 + margin unstable, in between marginal.
The finite-horizon tests can also return "inconclusive", and the
sequence test's positive verdict is "stable-per-corollary": a
contractive prefix certifies decay for the scanned pattern repeated, and
no claim is made beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkit import spectral_norm, spectral_radius
from .propagate import (
    DIVERGENCE_GUARD,
    _lifted_fold,
    _step_weights,
    _sym_skew_lifts,
)
from .sysmodel import (
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    SwitchingLaw,
    _reject,
    check_law,
    marginal_schedule,
    stationary_distribution,
)

__all__ = [
    "StabilityReport",
    "DEFAULT_MARGIN",
    "DEFAULT_HORIZON",
    "DEFAULT_DECAY_TOL",
    "iid_test",
    "markov_test",
    "general_test",
    "contraction_test",
    "analyze",
]

#: Half-width of the "marginal" band around evidence 1.
DEFAULT_MARGIN = 1e-9

#: Steps scanned by the finite-horizon tests.
DEFAULT_HORIZON = 500

#: Gamma(k) Frobenius decay threshold (relative to Gamma(0)).
DEFAULT_DECAY_TOL = 1e-12

#: Sustained-growth threshold for the unstable verdict of general_test.
GROWTH_THRESHOLD = 1e6


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one stability test.

    ``evidence`` is the number the verdict was read from: a spectral
    radius for the spectral tests, the final decay ratio for the
    horizon test, a prefix-product norm for the sequence test.
    ``horizon_used`` is set by the finite-horizon tests. ``notes`` carry
    auxiliary findings (stationary-distribution status, period norms,
    divergence warnings).
    """

    verdict: str
    test_name: str
    evidence: float
    horizon_used: int = None
    notes: tuple = ()


def _spectral_verdict(evidence: float, margin: float) -> str:
    if evidence < 1.0 - margin:
        return "stable"
    if evidence > 1.0 + margin:
        return "unstable"
    return "marginal"


def iid_test(
    sys: JumpLinearSystem, pi, margin: float = DEFAULT_MARGIN
) -> StabilityReport:
    """Spectral test for modes drawn independently from a fixed pi.

    The second moment evolves by the fixed lift
    A = sum_j pi_j (A_j kron A_j); mean-square stability is equivalent
    to A being Schur stable, so the evidence is its spectral radius,
    read from A's symmetric block.
    """
    pi = _step_weights(sys, pi)
    evidence = spectral_radius(np.tensordot(pi, _sym_skew_lifts(sys)[0], 1))
    return StabilityReport(
        verdict=_spectral_verdict(evidence, margin),
        test_name="iid",
        evidence=evidence,
    )


def markov_test(
    sys: JumpLinearSystem, P, margin: float = DEFAULT_MARGIN
) -> StabilityReport:
    """Spectral test for a time-homogeneous Markov switching chain.

    Compares to 1 the spectral radius of the lift
    diag(A_1 kron A_1, ..., A_m kron A_m) (P^T kron I), restricted to
    symmetric matrices (m n(n+1)/2 rows, not m n^2). The underlying
    stability condition presumes the chain admits a stationary
    distribution; the report notes the status found (unique, non-unique,
    or none) rather than silently assuming it.

    Raises
    ------
    ValueError
        If P is not row-stochastic of size m.
    """
    p = np.asarray(P, dtype=float)
    if p.shape != (sys.m, sys.m):
        raise ValueError(
            f"P has shape {p.shape}, expected ({sys.m}, {sys.m})"
        )
    stationary = stationary_distribution(p)  # checks P is row-stochastic
    sym = _sym_skew_lifts(sys)[0]
    size = sys.m * sym.shape[1]
    # block (i, j) of diag(A_i kron A_i) (P^T kron I) is P_ji (A_i kron A_i)
    lift = np.einsum("ji,iab->iajb", p, sym).reshape(size, size)
    evidence = spectral_radius(lift)
    notes = (f"stationary distribution: {stationary.status}",)
    if stationary.status != "unique":
        notes += (
            "the spectral condition presumes a stationary distribution; "
            "treat the verdict with care",
        )
    return StabilityReport(
        verdict=_spectral_verdict(evidence, margin),
        test_name="markov",
        evidence=evidence,
        notes=notes,
    )


def general_test(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    k_max: int = DEFAULT_HORIZON,
) -> StabilityReport:
    """Finite-horizon decay test on the lifted product Gamma(k).

    Mean-square stability is equivalent to Gamma(k) converging to the
    zero matrix; over a finite horizon the test reads the Frobenius
    ratio ||Gamma(k)||_F / ||Gamma(0)||_F:

    - stable: final ratio below DEFAULT_DECAY_TOL and the running envelope
      over the last 10% of steps not increasing (guards against
      declaring stability on a transient dip);
    - unstable: the product diverged past the overflow guard, or the
      final ratio exceeds 1e6 with a non-decreasing tail envelope;
    - inconclusive otherwise, with the final ratio as evidence.
    """
    k_max = int(k_max)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    schedule = marginal_schedule(law, k_max, m=sys.m)
    base = float(sys.n)  # ||Gamma(0)||_F, the n^2 x n^2 identity
    ratios = [g.fro() / base for g in _lifted_fold(sys, schedule)]
    if len(ratios) < k_max:
        return StabilityReport(
            verdict="unstable",
            test_name="general",
            evidence=np.inf,
            horizon_used=len(ratios),
            notes=(
                f"lifted product exceeded the overflow guard at k="
                f"{len(ratios) + 1}",
            ),
        )

    final = float(ratios[-1])
    tail = ratios[-max(2, k_max // 10):]
    half = len(tail) // 2
    early_env = float(np.max(tail[:half])) if half else float(tail[0])
    late_env = float(np.max(tail[half:]))
    envelope_decreasing = late_env <= early_env * (1.0 + 1e-9)

    if final < DEFAULT_DECAY_TOL and envelope_decreasing:
        verdict = "stable"
    elif final > GROWTH_THRESHOLD and not late_env < early_env:
        verdict = "unstable"
    else:
        verdict = "inconclusive"
    return StabilityReport(
        verdict=verdict,
        test_name="general",
        evidence=final,
        horizon_used=k_max,
        notes=(
            f"decay ratio {final:.3e} against tolerance {DEFAULT_DECAY_TOL:g} "
            f"after {k_max} steps",
        ),
    )


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
    k_max = int(k_max)
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
    spectral test, schedules the finite-horizon decay test, and
    deterministic sequences the contraction scan.
    """
    if isinstance(law, IIDSwitching):
        return iid_test(sys, law.pi, margin)
    if isinstance(law, MarkovSwitching):
        return markov_test(sys, law.P, margin)
    if isinstance(law, ScheduleSwitching):
        return general_test(sys, law, horizon)
    if isinstance(law, SequenceSwitching):
        return contraction_test(sys, law, horizon)
    raise ValueError(f"unknown switching law {type(law).__name__}")
