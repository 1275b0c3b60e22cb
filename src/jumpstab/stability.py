"""Mean-square stability verdicts for jump linear systems.

``analyze`` is the verdict entry point. It judges IID, Markov and
schedule laws by one rule, and deterministic sequences by
``contraction_test``, a scan of prefix products for a first norm
strictly below 1. ``markov_test`` is the whole-chain check: the spectral
radius of the chain-lifted matrix diag(A_1 kron A_1, ..., A_m kron A_m)
(P^T kron I), the verdict from every initial law. A law's chain form
settles at step K0 = ``law._settle`` (1 for IID, 2 for Markov, K for K
rows), from which the map pair(K0) repeats. Each step's map is monotone
on the PSD cone and x0 x0^T <= |x0|^2 I, so the process is stable from
every start exactly when that map contracts on the smallest invariant
face holding the image of I under steps 1 .. K0-1 (Vandergraft 1968).
The rule folds each chain state's range through those steps, closes the
ranges under the map, and runs the spectral test on that face.

The spectral tests share one second-moment map,
T(Q)_i = A_i (sum_j P_ji Q_j) A_i^T on stacks of symmetric matrices
(the IID law is the one-state chain with weights pi), applied
matrix-free. T maps the PSD cone into itself, so rho(T) is an eigenvalue
with a PSD eigenvector X, and a PSD X > 0 with T(X) < c X (or > c X)
proves rho(T) < c (or > c). Restarted Arnoldi finds X; one Cholesky
checks the inequality, without the eigensolver that found X, and
``_judge`` hands X back with the map it checked. Where no such
certificate holds (the marginal band, no convergence, a singular Perron
vector) the test falls back to a dense eigensolve of the lift's
symmetric block, n(n+1)/2 rows per chain state instead of n^2, which has
the spectral radius of the whole lift. The map, its matrix and
``_live``, the rule that leaves a step's modes of weight 0 out, live in
``moments``, and its (mix, weights) in the law's chain form, the pair
the W^2 routes step: this module builds none of them.

Spectral verdicts use a symmetric margin around 1: evidence below
1 - margin is stable, above 1 + margin unstable, in between marginal.
The rule reads "inconclusive" where a range has no clear rank and the
whole map is unstable. So can the sequence test, whose positive verdict
is "stable-per-corollary": a contractive prefix certifies decay for the
scanned pattern repeated, and no claim is made beyond that.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .defaults import DEFAULT_HORIZON, DEFAULT_MARGIN, NumericalError
from .matkit import _sym_part, as_square, spectral_norm, spectral_radius
from .moments import (DIVERGENCE_GUARD, _chain_lift, _live, _moment_map,
                      _sym_lifts)
from .sysmodel import (
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    SequenceSwitching,
    SwitchingLaw,
    _as_int,
    _reject,
    check_law,
)

__all__ = [
    "StabilityReport",
    "DEFAULT_MARGIN",
    "DEFAULT_HORIZON",
    "markov_test",
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

#: Singular values at most _RANGE_CUT of the largest leave a range; a cut
#: with a kept one below _RANGE_GAP times the first one left shows no gap.
_RANGE_CUT = 1e-12
_RANGE_GAP = 1e8


class StabilityReport(NamedTuple):
    """Outcome of one stability test.

    ``evidence`` is the number the verdict was read from: a spectral
    radius for the spectral tests (that of the map that repeats where
    every second moment reaches 0), a prefix-product norm for the
    sequence test. ``horizon_used`` is the number of stored schedule
    rows, or of sequence steps scanned. ``notes`` carry auxiliary
    findings (the face judged, period norms, divergence warnings). The
    spectral tests set ``certificate``, the kind checked by Cholesky
    ("stable" or "unstable") or "dense fallback: <reason>", and
    ``applications``, the number of second-moment map applications spent.
    """

    verdict: str
    test_name: str
    evidence: float
    horizon_used: int = None
    notes: tuple = ()
    certificate: str = None
    applications: int = None


class _Proof(NamedTuple):
    """What a certified verdict checked, kept out of ``StabilityReport``,
    whose reports compare by ``==``. ``_moment_map(modes, mix, weights)``
    rebuilds the judged map T; ``bases`` are the per-state face bases, or
    None where T acts on the whole space. X > 0 with (1 - margin) X - T(X)
    > 0 proves ``kind`` "stable", T(X) - (1 + margin) X > 0 "unstable"."""

    kind: str
    modes: np.ndarray
    mix: np.ndarray
    weights: np.ndarray
    bases: list
    x: np.ndarray


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


def _arnoldi(apply, start: np.ndarray, basis: np.ndarray, hess: np.ndarray):
    """``dim`` Arnoldi steps from ``start`` with twice-applied Gram-Schmidt,
    refilling the caller's (dim + 1, N) ``basis`` and (dim + 1, dim)
    ``hess``, so a restart allocates neither.

    Returns views of the orthonormal basis (k, N) and the Hessenberg
    matrix (k, k), and the residual norm h[k, k-1]: 0 when the Krylov
    space turned out invariant after k < dim steps.
    """
    dim = hess.shape[1]
    hess.fill(0.0)
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
    modes). Raises NumericalError where T(Q) is not finite.
    """
    def step(q):  # the spectral test's one stop: Arnoldi reads no nan
        out = apply(q)
        if np.all(np.isfinite(out)):
            return out
        raise NumericalError("second moment diverged (an entry is not finite)")

    dim = min(_KRYLOV_DIM, states * n * (n + 1) // 2)
    x = np.broadcast_to(np.eye(n), (states, n, n))
    space = np.empty((dim + 1, x.size)), np.empty((dim + 1, dim))
    used = 0
    for _ in range(_RESTARTS):
        basis, hess, beta = _arnoldi(step, x, *space)
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
    tx = step(x)
    used += 1
    # theta as <X, T(X)> / <X, X>: free of the Gram-Schmidt rounding
    evidence = abs(float(np.vdot(x, tx) / np.vdot(x, x)))
    verdict = _spectral_verdict(evidence, margin)
    if verdict == "marginal":
        return "dense fallback: marginal band", None, None, used
    gap = (1.0 - margin) * x - tx if verdict == "stable" \
        else tx - (1.0 + margin) * x
    # definite by more than the rounding of T(X), so that a matrix singular
    # in exact arithmetic does not pass on roundoff
    slack = _CERT_SLACK * n * max(np.max(np.abs(x)), np.max(np.abs(tx)))
    try:
        np.linalg.cholesky(np.concatenate([x, gap]) - slack * np.eye(n))
    except np.linalg.LinAlgError:
        return ("dense fallback: certificate not positive definite", None,
                None, used)
    return verdict, evidence, x, used


def _spectral_report(modes, mix, weights, margin, name, bases=None):
    """The report and proof (None without a certificate) on the map
    ``_moment_map(modes, mix, weights)`` of the step's live modes (_live)
    and, given the one state's face ``bases`` (U,), each mode restricted
    to U^T A U: a certified verdict, else the dense eigensolve of the
    map's matrix on symmetric matrices. The caller has checked margin."""
    live, mix, weights = _live(mix, weights)
    modes = modes[live]
    if bases is not None:
        modes = bases[0].T @ modes @ bases[0]
    certificate, evidence, x, used = _certified_radius(
        _moment_map(modes, mix, weights), len(mix), modes.shape[-1], margin)
    if evidence is None:
        evidence = spectral_radius(_chain_lift(_sym_lifts(modes), mix,
                                               weights))
    return (StabilityReport(_spectral_verdict(evidence, margin), name,
                            evidence, certificate=certificate,
                            applications=used),
            None if x is None else _Proof(certificate, modes, mix, weights,
                                          bases, x))


def _whole(sys: JumpLinearSystem, law: SwitchingLaw, margin: float):
    """The chain form of an IID, Markov or schedule law, checked against
    ``sys`` by ``check_law``, and the report and proof of its map at
    step ``law._settle`` on the whole space."""
    _reject(check_law(law, sys.m))
    name = ("iid" if isinstance(law, IIDSwitching) else
            "markov" if isinstance(law, MarkovSwitching) else "general")
    pair = law._chain(sys.m)
    report, proof = _spectral_report(sys.modes, *pair(law._settle), margin,
                                     name)
    rows = law._settle if name == "general" else None
    return pair, report._replace(horizon_used=rows), proof


def markov_test(
    sys: JumpLinearSystem, P, margin: float = DEFAULT_MARGIN
) -> StabilityReport:
    """Spectral test for a time-homogeneous Markov switching chain.

    Compares to 1 the spectral radius of
    T(Q)_i = A_i (sum_j P_ji Q_j) A_i^T on stacks of m symmetric
    matrices: the lift diag(A_1 kron A_1, ..., A_m kron A_m)
    (P^T kron I), whose block (i, j) is P_ji A_i kron A_i, restricted to
    symmetric matrices. For any finite chain, rho(T) < 1 is equivalent to
    mean-square stability from every initial law (Costa, Fragoso &
    Marques, *Discrete-Time Markov Jump Linear Systems*, 2005, Thm 3.9):
    the test reads no pi0, only the chain's pair (P, I) of step 2 on.

    Raises
    ------
    ValueError
        If P is not row-stochastic of size m, as ``check_law`` words it.
    """
    # the whole-chain map reads no pi0; P's size fixes the placeholder's
    p = as_square(P, "P")
    law = MarkovSwitching(p, np.eye(len(p))[0])
    return _whole(sys, law, _check_margin(margin))[1]


def _reach(modes: np.ndarray, pair, settle: int):
    """Orthonormal bases of the chain states' ranges, folded from the start
    state's I through steps 1 .. settle-1 and closed under pair(settle),
    and whether a cut showed no clear gap. State r's range sums A_i V_j
    over the modes i leading to r and the states j whose row mixes i in,
    each block scaled to largest entry 1 (ranges are scale-free). Closing
    stops once no basis grows or all are full: IID laws need no SVD."""
    n = modes.shape[-1]
    # modes of largest entry 1 keep every A_i V_j finite
    modes = modes / np.abs(modes).max(axis=(1, 2), keepdims=True).clip(1e-300)
    bases, dims, k, gaps = [np.eye(n)], None, 1, []

    def span(basis, w, mix):
        for i in np.flatnonzero(w):
            for j in np.flatnonzero(mix[:, i]):
                block = modes[i] @ bases[j]
                top = np.abs(block).max(initial=0.0)
                if basis.shape[1] < n and top > 0.0:
                    u, s, _ = np.linalg.svd(np.hstack([basis, block / top]),
                                            full_matrices=False)
                    d = int(np.count_nonzero(s > _RANGE_CUT * s[0]))
                    gaps.append(d < s.size and s[d - 1] < _RANGE_GAP * s[d])
                    basis = u[:, :d]
        return basis

    while k < settle or (dims != (dims := [b.shape[1] for b in bases])
                         and min(dims) < n):
        mix, weights = pair(min(k, settle))
        bases = [span(bases[r] if k >= settle else np.zeros((n, 0)), w, mix)
                 for r, w in enumerate(weights)]
        k += 1
    return bases, any(gaps)


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
    smallest norm seen as evidence. ``horizon_used`` counts the prefixes
    whose norm was checked: k_max, or fewer if the products passed
    DIVERGENCE_GUARD first. For the periodic reading of the sequence, the
    one-period product norm is recorded in the notes.
    """
    if not isinstance(seq, SequenceSwitching):
        raise ValueError(
            f"contraction test needs a deterministic sequence, got "
            f"{type(seq).__name__}"
        )
    _reject(check_law(seq, sys.m))
    k_max = _as_int(k_max, "k_max", 1)

    period = len(seq.indices)
    notes = ()
    prod = np.eye(sys.n)
    best = np.inf
    scanned = 0  # prefixes whose norm was checked
    for k in range(1, k_max + 1):
        # a product past float64 is caught by the guard: no warning
        with np.errstate(over="ignore", invalid="ignore"):
            prod = sys.modes[seq.indices[(k - 1) % period] - 1] @ prod
        if np.max(np.abs(prod)) > DIVERGENCE_GUARD:
            notes += (
                f"prefix products exceeded the overflow guard at k={k}",
            )
            break
        value, scanned = spectral_norm(prod), k
        if k == period:
            notes += (f"one-period product norm: {value:.6g}",)
        if value < 1.0:
            return StabilityReport("stable-per-corollary", "contraction",
                                   value, horizon_used=k, notes=notes)
        best = min(best, value)
    return StabilityReport("inconclusive", "contraction", best,
                           horizon_used=scanned, notes=notes + (
                               f"no contractive prefix within {scanned} "
                               f"steps",))


def analyze(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    margin: float = DEFAULT_MARGIN,
    horizon: int = DEFAULT_HORIZON,
) -> StabilityReport:
    """Judge the process that the system and its switching law describe.

    IID, Markov and schedule laws, whose chain forms settle at step 1, 2
    and K, get the rule of the module notes, with a note where the face
    is less than the whole chain (the whole chain's radius, where chain
    states are left out: the verdict from every initial law).
    Deterministic sequences get the contraction scan over ``horizon``.

    Raises
    ------
    ValueError
        If margin is not a finite number in [0, 1) or horizon is below 1.
    """
    return _judge(sys, law, margin, horizon)[0]


def _judge(sys: JumpLinearSystem, law: SwitchingLaw, margin, horizon):
    """``analyze``'s report and the proof of its verdict: None where no
    Cholesky certificate backs the verdict returned (dense fallbacks,
    the zero face, inconclusive answers and sequences)."""
    margin = _check_margin(margin)
    horizon = _as_int(horizon, "horizon", 1)
    if isinstance(law, SequenceSwitching):
        return contraction_test(sys, law, horizon), None
    pair, whole, proof = _whole(sys, law, margin)
    before = f"the steps before step {law._settle}"
    bases, unclear = _reach(sys.modes, pair, law._settle)
    dims = [b.shape[1] for b in bases]
    keep = np.flatnonzero(dims)
    # the whole map bounds every face's radius from above
    if (min(dims) == sys.n or keep.size == len(bases) > 1
            or unclear and whole.verdict != "unstable"):
        return whole, proof
    if unclear:
        return whole._replace(verdict="inconclusive", notes=(
            f"{before} leave second moments of unclear rank; the map that "
            f"repeats is unstable, perhaps only off their ranges",)), None
    if not keep.size:  # the whole map's certificate may read unstable
        return whole._replace(verdict="stable", notes=(
            f"{before} map every second moment to 0; the evidence and "
            f"certificate are those of the map that repeats",)), None
    mix, weights = pair(law._settle)
    if len(bases) > 1:  # the charged chain states
        note = (f"pi0 reaches {keep.size} of {len(bases)} chain states; from "
                f"every initial law the spectral radius is ")
        mix, weights, bases = mix[keep], weights[keep], None
    else:  # the one state's range
        note = (f"{before} keep the second moment in a {dims[0]}-dimensional "
                f"subspace; on the whole space the spectral radius is ")
    report, proof = _spectral_report(sys.modes, mix, weights, margin,
                                     whole.test_name, bases)
    return report._replace(horizon_used=whole.horizon_used,
                           notes=(f"{note}{whole.evidence:.12g}",)), proof
