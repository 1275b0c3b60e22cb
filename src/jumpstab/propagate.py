"""State-PDF and second-moment propagation.

Three routes compute the squared Wasserstein-to-origin trajectory
W^2(k) of a jump linear system started from a Gaussian mixture. Each
steps the chain form of the law (see ``sysmodel``), so W^2(k) is the
second moment of the chain whose map ``analyze`` judges:

``exact_mog``
    Pushes the full mixture through the mode maps. A component in chain
    state s gives, per mode i, weight weights[r, i] mix[s, i] alpha,
    mean A_i mu, covariance A_i Sigma A_i^T and the state r that mode i
    leads to; the initial components are in the one start state. Counts
    grow geometrically, so a hard cap applies. A covariance
    travels as its n(n+1)/2 coordinates in the orthonormal symmetric
    basis, which the symmetric block of A_j kron A_j maps exactly; the
    first n are the diagonal. The route walks the mixture tree depth
    first in chunks of about 512 KiB (``_mog_walk``) and its last step
    pushes the diagonals only, so the cap bounds its time, not its
    memory.

``moment``
    Propagates one n x n second moment per chain state by the chain's
    map (``_moment_map``), from the start state's Q(0) = Phi(0); W^2(k)
    = sum_r tr Q_r(k). Default method: the lifted product's numbers at n x n
    cost per state.

``gamma``
    Reads W^2(k) = vec(I)^T Gamma(k) vec(Phi(0)) off the reverse-ordered
    product of the chain's lifted step matrices, A(i) = sum_j pi_j(i)
    (A_j kron A_j) for a one-state law, evaluated right to left on one
    row of n(n+1)/2 symmetric coordinates per state: it never forms
    Gamma(k) or an n^2 x n^2 matrix.

The three must agree to rounding, as the test suite asserts. One check,
``_checked``, stops a step on every route: it raises NumericalError
naming the first k whose W^2(k) is not finite or is negative, which only
rounding can make it. The map and the kernels judge nothing, and a value
past float64 comes out of them as inf or nan. No other stop is needed:
|Q_pq| <= (Q_pp + Q_qq) / 2 on a PSD Q, so a value a route carries
passes float64 only with W^2, up to rounding. ``gamma`` and
``exact_mog`` build the lifts in ``_scaled_lifts``, the library's one
lift builder, and multiply coordinates by them in ``_lifted_push``. The
lifts of modes whose largest entry reaches 2^510 are built from the
modes scaled by a power of two, which is exact; where the scaling would
lose digits, the route raises NumericalError instead of printing them.
``gamma_product`` pushes the n^2 unit matrices through
X -> sum_j pi_j A_j X A_j^T of the marginals pi(k). The map, the
symmetric basis and ``_live``, the rule that leaves a step's modes of
weight 0 out, live in ``moments``, which the stability tests read too.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .defaults import DEFAULT_COMPONENT_CAP
from .matkit import NumericalError
from .moments import (DIVERGENCE_GUARD, _basis_pairs, _live, _moment_map,
                      _sym_coords)
from .sysmodel import (
    GaussianMixture,
    JumpLinearSystem,
    SwitchingLaw,
    _as_int,
    _marginals,
    _reject,
    check_law,
    validate_system,
)
from .wasserstein import _dirac_sq, _matched

__all__ = [
    "GammaState",
    "TrajectoryRecord",
    "gamma_product",
    "w2_trajectory",
    "DEFAULT_COMPONENT_CAP",
    "DIVERGENCE_GUARD",
]

#: A mode is scaled by a power of two in its lift only when its largest
#: magnitude reaches 2**_LIFT_LIMIT. Below it every product of two
#: entries, and every sum of two products, stays under 2**1021, so the
#: lifts of such modes are the unscaled ones, bit for bit.
_LIFT_LIMIT = 510

#: Bytes of children that one push of the exact route may form.
_MOG_BUDGET = 1 << 19


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


def _scaled_lifts(modes: np.ndarray):
    """The lifts of the (m, n, n) ``modes`` as _lifted_push takes them:
    the C-order stack of (B_j kron B_j)^T, B_j = A_j / 2**e_j, on
    symmetric matrices in the basis of _sym_coords, and 2 e_j per mode.
    e_j is the least e >= 0 that brings the largest magnitude of A_j
    below 2**_LIFT_LIMIT, so modes that need no scaling keep their lifts
    bit for bit and larger ones scale exactly. K = A kron A has
    K[(p,q), (r,s)] = A[p,r] A[q,s] = K[(q,p), (s,r)] exactly, so with c'
    the transposed position of column c every entry is
    2 c_r c_c (K[r, c] + K[r, c']), gathered from A without forming K;
    built from A^T, each is the entry of A's lift at the transposed
    position, its factors swapped. Raises NumericalError if the scaling
    leaves an entry of B_j, or a product of two, below the normal range
    where that of A_j is not: the lift would lose digits."""
    tops = np.abs(modes).max(axis=(1, 2))
    e = np.maximum(np.frexp(tops)[1] - _LIFT_LIMIT, 0)
    n, tiny = modes.shape[-1], np.finfo(float).tiny
    p, q = _basis_pairs(n)

    def entries(a, out=None):  # K[r, c] and K[r, c'] of K = a kron a
        rows_p, rows_q = a[p], a[q]
        sym = np.multiply(rows_p[:, p], rows_q[:, q], out=out)
        crossed = rows_p[:, q]
        crossed *= rows_q[:, p]
        return sym, crossed

    out = np.empty((len(modes), p.size, p.size))
    # only the unscaled products of the underflow probe can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for lift, mode, ej in zip(out, np.swapaxes(modes, 1, 2), e):
            a = np.ldexp(mode, -ej)
            sym, crossed = entries(a, lift)
            if ej and any(np.any((np.abs(x) < tiny) & (np.abs(y) >= tiny))
                          for x, y in zip((a, sym, crossed),
                                          (mode, *entries(mode)))):
                raise NumericalError("A_j kron A_j overflows, and scaled it "
                                     "underflows: modes too large")
            sym += crossed
    # 2 c_r c_c with c = 1/2 on E_ii and 1/sqrt2 on pairs: 1/2, 1/sqrt2, 1
    scale = np.where(np.arange(p.size) < n, np.sqrt(0.5), 1.0)
    weights = np.outer(scale, scale)
    weights[:n, :n] = 0.5
    out *= weights
    return out, 2 * e


def _lifted_push(rows, lifts, exps, live):
    """The (q, b) ``rows`` of coordinates times ``lifts[j]``, the
    transposed lift of each mode j in ``live``, scaled back by 2**exps[j]:
    the (len(live), q, b) images, one matrix product per mode. ``lifts``
    and ``exps`` are as _scaled_lifts returns them; the stack is gathered
    only when a mode is not live. Entries past float64 come out as inf or
    nan, which the caller checks."""
    if live.size < len(lifts):
        lifts, exps = lifts[live], exps[live]
    pushed = np.matmul(rows, lifts)
    if np.any(exps):
        np.ldexp(pushed, exps[:, None, None], out=pushed)
    return pushed


def _mog_push(modes, lifts, exps, step, alpha, means, coords, states, mass):
    """One exact-mixture step on components held as arrays: weights,
    means, covariances as _sym_coords and chain states, with ``lifts`` and
    ``exps`` as _lifted_push takes them and ``step`` as _live gives it.
    Pair (i, c) is mode i of component c (see the module docstring),
    mode-major: one matrix product per live mode. Pairs whose weight times
    ``mass`` (their share of the mixture) is 0 are dropped, the rest
    scaled to sum 1. Returns (alpha, means, coords, states); entries
    past float64 come out as inf or nan, which the walk's W^2 shows."""
    live, mix, weights = step
    alpha = (np.outer(weights.max(0), alpha) * mix.T[:, states]).reshape(-1)
    keep = mass * alpha > 0.0
    means = (means @ np.swapaxes(modes[live], 1, 2)).reshape(len(alpha), -1)
    coords = _lifted_push(coords, lifts, exps, live).reshape(len(alpha), -1)
    states = np.repeat(weights.argmax(0), len(states))
    if not np.all(keep):
        alpha, means, coords, states = (x[keep] for x in
                                        (alpha, means, coords, states))
    return alpha / alpha.sum(), means, coords, states


def _count(x: int) -> str:
    """``x`` in digits below 10^30, else its order of magnitude.

    str() of an int with more than 4300 digits raises by default.
    """
    return str(x) if x < 10**30 else f"~10^{int(math.log10(x))}"


def _mog_walk(sys: JumpLinearSystem, law, init, k: int, cap):
    """Walk the mixture tree of ``k`` steps of a ``law`` checked against
    the system, depth first in chunks, and return the (k+1, 3) sums of
    w (||mu||^2 + tr Sigma), of w (weights in the whole mixture) and of 1
    per step. Step k has q0 components per mode path of nonzero
    probability (m^k * q0 for a law of full support); where that count
    passes ``cap``, the walk raises ValueError before its first step.
    A chunk whose next push would form over _MOG_BUDGET bytes is split by
    parents, each piece finishing its subtree first: the peak is about
    _MOG_BUDGET per split level. The last step pushes only the diagonals.
    The walk stops at the first step whose sum is not finite and leaves
    the steps after it nan, so that the caller's check of W^2 names it.
    """
    totals = np.zeros((k + 1, 3))  # allocated first; exact counts below 2**53
    pair = law._chain(sys.m)
    # components per state, in Python ints: a state's components reach
    # state r by table[r][state] modes each, from the step's 0/1 links
    counts = [init.q]
    for step in range(1, k + 1):
        mix, weights = (x > 0 for x in pair(step))
        table = (mix @ weights.T.astype(int)).T.tolist()
        counts = [sum(c * link for c, link in zip(counts, row))
                  for row in table]
    reach = sum(counts)
    if reach > cap:
        full = reach == init.q * sys.m**k
        counted = (f"m^k*q0 = {sys.m}^{k}*{init.q}" if full else
                   f"q0*paths(k) = {init.q}*{_count(reach // init.q)}")
        raise ValueError(f"exact propagation reaches {counted} = "
                         f"{_count(reach)} components, beyond cap={cap}; "
                         f"raise the cap")
    n, (lifts, exps) = sys.n, _scaled_lifts(sys.modes)
    limit = k  # the last step a chunk still needs
    chunks = [(0, 1.0, init.weights, init.means, _sym_coords(init.covs),
               np.zeros(init.q, np.intp))]
    while chunks:
        depth, mass, *state = chunks.pop()
        for step in range(depth + 1, limit + 1):
            kept = _live(*pair(step))
            used = lifts[:, :, :n] if step == k else lifts
            # 8 bytes for a child's weight, state, mean entries, coordinates
            size = max(1, _MOG_BUDGET // (8 * (2 + n + used.shape[2])
                                          * len(kept[0])))
            if len(state[0]) > size:
                for i in reversed(range(0, len(state[0]), size)):
                    w, *rest = (x[i:i + size].copy() for x in state)
                    chunks.append((step - 1, mass * w.sum(), w / w.sum(),
                                   *rest))
                break
            state = _mog_push(sys.modes, used, exps, kept, *state, mass)
            part = mass * _dirac_sq(state[0], state[1], state[2][:, :n])
            totals[step] += part, mass, len(state[0])
            if not math.isfinite(part):
                limit = step
                break
    totals[limit + 1:] = np.nan
    return totals


def gamma_product(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    k: int,
) -> GammaState:
    """Reverse-ordered product Gamma(k) = A(k) A(k-1) ... A(1).

    A kron A maps vec(X) to vec(A X A^T), row- or column-major alike, so
    column c of Gamma(k) is vec of the unit matrix E_c pushed through
    X -> sum_j pi_j(i) A_j X A_j^T for i = 1 .. k, pi(i) the marginals:
    for a Markov law, not the chain that ``w2_trajectory`` steps. The
    stepping stops before a step that leaves an entry magnitude past
    DIVERGENCE_GUARD or not finite (see GammaState). Raises ValueError
    for a negative ``k`` or a law that does not fit the system.
    """
    k = _as_int(k, "k", 0)
    _reject(check_law(law, sys.m))
    n, size = sys.n, sys.n * sys.n
    # x[p, c, q] is entry (p, q) of the pushed E_c, so that A X and X A^T
    # are each one product over all c: (n, n) by (n, n^3), (n^3, n) by (n, n)
    x, done = np.eye(size).reshape(n, n, size).transpose(0, 2, 1), 0
    for pi in _marginals(law, k, sys.m):
        live, _, (weights,) = _live(np.ones((1, sys.m)), pi[None])
        modes = sys.modes[live]
        with np.errstate(over="ignore", invalid="ignore"):
            left = (modes @ x.reshape(n, -1)).reshape(len(live), -1, n)
            pushed = np.tensordot(weights, left @ np.swapaxes(modes, 1, 2), 1)
            # a nan compares false, so it stops the stepping too
            if not np.abs(pushed).max() <= DIVERGENCE_GUARD:
                break
        x, done = pushed.reshape(n, size, n), done + 1
    gamma = x.transpose(0, 2, 1).reshape(size, size)
    return GammaState(gamma=gamma, k=done, diverged=done < k)


def _checked(k: int, w2) -> float:
    """W^2(k) as a float; NumericalError if it is not finite, or if it
    is negative, which only rounding can make it."""
    w2 = float(w2)
    if not math.isfinite(w2):
        raise NumericalError(f"W^2 diverged at k={k} (not finite)")
    if w2 < 0.0:
        raise NumericalError(f"W^2 is negative at k={k} ({w2:.3e}): "
                             f"rounding error exceeds its value")
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
    distances and records component counts. The input is checked once,
    by ``validate_system``: neither W^2(0) nor the mixtures the exact
    route derives check it again, and those mixtures are never formed
    as n x n covariances nor, past about 512 KiB, whole: the route
    walks the mixture tree in chunks, and its last step forms only the
    weights, the means and the covariance diagonals. W^2(k) and the count are
    those of the whole mixture after k steps, to rounding.

    Raises
    ------
    ValueError
        On invalid inputs, unknown method, an exact-mixture cap below 1,
        or exact-mixture cap overflow.
    NumericalError
        If W^2(k) is not finite or is negative for some k <= k_max, on
        every route by the one check (the message names the first such
        k), or if a lift or the start's matched moments overflow.
    MemoryError
        Before the first step, if the k_max + 1 values do not fit.
    """
    k_max = _as_int(k_max, "k_max", 0)
    if method not in ("moment", "gamma", "exact_mog"):
        raise ValueError(
            f"unknown method {method!r}: expected moment, gamma, or "
            f"exact_mog"
        )
    if method == "exact_mog":
        cap = _as_int(cap, "cap", 1)
    _reject(validate_system(sys, law, init).violations)

    # the K+1 values first, so an impossible horizon fails before a step
    w2, counts = np.empty(k_max + 1), [init.q]
    mean, cov = _matched(init)
    phi0 = np.outer(mean, mean) + cov
    pair = law._chain(sys.m)
    # every W^2(k) is checked by _checked, so no overflow needs a warning
    with np.errstate(over="ignore", invalid="ignore"):
        w2[0] = _checked(0, np.trace(phi0) if method != "exact_mog" else
                         _dirac_sq(init.weights, init.means,
                                   init.covs.diagonal(0, 1, 2)))
        if k_max == 0:
            pass  # no step, so neither the lifts nor the cap count
        elif method == "moment":
            # one n x n second moment per state
            q = phi0[None]
            for k in range(1, k_max + 1):
                live, mix, weights = _live(*pair(k))
                q = _moment_map(sys.modes[live], mix, weights)(q)
                w2[k] = _checked(k, np.trace(q, axis1=1, axis2=2).sum())
        elif method == "gamma":
            # one row per state: modes push their mix, weights combine
            lifts, exps = _scaled_lifts(sys.modes)
            rows = _sym_coords(phi0[None])
            for k in range(1, k_max + 1):
                live, mix, weights = _live(*pair(k))
                pushed = _lifted_push((mix.T @ rows)[:, None],
                                      lifts, exps, live)
                rows = weights @ pushed[:, 0]
                # svec(I) . rows: the first n coordinates are the diagonal
                w2[k] = _checked(k, rows[:, :sys.n].sum())
        else:
            totals = _mog_walk(sys, law, init, k_max, cap)
            for k in range(1, k_max + 1):
                w2[k] = _checked(k, totals[k, 0] / totals[k, 1])
            counts += totals[1:, 2].astype(int).tolist()
    return [TrajectoryRecord(k, v, counts[k] if method == "exact_mog"
                             else None) for k, v in enumerate(w2.tolist())]
