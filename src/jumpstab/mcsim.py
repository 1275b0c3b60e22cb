"""Seeded Monte Carlo ensemble simulator.

Serves as an independent empirical oracle for the analytic W^2(k)
trajectory: the mean of ||x(k)||^2 across trajectories estimates the
squared Wasserstein distance to the origin mass.

Reproducibility contract
------------------------
Every draw is a pure function of (seed, slot d, trajectory t), from
SplitMix64 (Steele, Lea & Flood 2014) in uint64 arithmetic mod 2^64.
With ``mix`` its output function and G = 0x9E3779B97F4A7C15, output d
from state ``seed`` is ``key(d) = mix(seed + G*(d+1))``, output t from
state ``key(d)`` is ``word(d, t) = mix(key(d) + G*(t+1))``, and the draw
is ``u(d, t) = (word(d, t) >> 11) * 2^-53`` in [0, 1), as numpy maps
``random()``. Slot 0 picks trajectory t's initial component. Slots 1 ..
2*ceil(n/2) give its standard normals by Box-Muller: coordinates 2p and
2p+1 are ``r cos(theta)`` and ``r sin(theta)``, with ``r = sqrt(-2
log1p(-u(1+2p, t)))`` and ``theta = 2 pi u(2+2p, t)``; an odd n drops the
last sine. Slot 1 + 2*ceil(n/2) + k picks the mode of step k+1, under
every law. So a trajectory's draws depend on neither the
ensemble size, nor the chunking, nor ``k_max``; ``threads`` is ignored.

Kernel
------
Initial states are drawn, and states advanced in place, in blocks of
``_CHUNK`` = 4096 trajectories; each block forms its counters G*(t+1)
and draws its own slots. A step writes each block's squared norms into
one row, reduced to the step's mean, standard error and kurtosis
(summed pairwise by numpy, in one scratch row) before the next step
starts. So the ensemble holds 8*(n+2) bytes per trajectory, plus one
byte of chain state under a Markov law, and one block's temporaries,
whatever ``k_max``. A block's start is gathered into the states in
place, and every block's squares go into one reused (4096, n) buffer.
No start factor needs an eigensolver: a point-mass component's is
exact zeros, a definite one's numpy's Cholesky factor and a singular
one's a diagonal-pivoted Cholesky factor (``_psd_factor``). When every
component is a point mass, the start draws no normals and x(0) is the
picked means, the value the draws would add 0 to.

For n >= 2 and at most ``_ALL_MODES_MAX`` = 8 modes, a block's states
are multiplied by every transposed mode at once, an (m, count, n)
product, keeping each trajectory's row of its picked mode; past 8
modes that m-fold product costs more than it saves, and at n = 1 a
product is one multiplication, so the block is instead multiplied by
a gathered (count, n, n) stack.

Each law has one process, its chain form ``law._chain(m)``, which the
analytic routes and the verdicts step and the ensemble samples: each
step's mode from the row of the trajectory's chain state, step 1's from
the one row of the start state. So a Markov law's trajectories follow
the chain. Independent draws from its marginals are another
law's process, ``ScheduleSwitching(marginal_schedule(law, k_max))``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .matkit import NumericalError, _psd_slack, _sym_part
from .sysmodel import (
    GaussianMixture,
    JumpLinearSystem,
    MarkovSwitching,
    SwitchingLaw,
    _ReadOnly,
    _as_int,
    _freeze,
    _reject,
    check_mixture,
    validate_system,
)

__all__ = [
    "SimConfig",
    "EnsembleStats",
    "simulate_ensemble",
    "KURTOSIS_THRESHOLD",
]

#: Plain kurtosis (Gaussian = 3) beyond which standard errors are flagged
#: as unreliable.
KURTOSIS_THRESHOLD = 100.0

_CHUNK = 4096

#: SplitMix64's increment G and the mask of arithmetic mod 2^64
_GAMMA, _MASK = 0x9E3779B97F4A7C15, 2**64 - 1

#: Largest mode count of the all-modes product (see the module docstring)
_ALL_MODES_MAX = 8

_TINY = np.finfo(float).tiny


class SimConfig(_ReadOnly):
    """Ensemble run parameters.

    ``seed`` is a 64-bit nonnegative integer. ``sampling`` may name
    only the law's own process, which None, the default, takes: "path"
    (the chain's transitions) for a Markov law, "marginal" (independent
    draws from the per-step marginals) for any other.
    """

    def __init__(self, trajectories, k_max, seed=0, sampling=None):
        t = _as_int(trajectories, "trajectories")
        if t < 1:
            raise ValueError(f"trajectories must be >= 1, got {t}")
        k = _as_int(k_max, "k_max")
        if k < 0:
            raise ValueError(f"k_max must be nonnegative, got {k}")
        s = _as_int(seed, "seed")
        if not 0 <= s < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {s}")
        if sampling not in (None, "marginal", "path"):
            raise ValueError(
                f"sampling must be marginal or path, got {sampling!r}"
            )
        _freeze(self, trajectories=t, k_max=k, seed=s, sampling=sampling)


class EnsembleStats(NamedTuple):
    """Per-step ensemble statistics, index k = 0 .. k_max.

    ``mean_sq[k]`` is the empirical mean of ||x(k)||^2, ``stderr[k]`` its
    standard error (sample standard deviation over sqrt(count); zero for
    single-trajectory runs), ``samples[k]`` the trajectory count, and
    ``heavy_tail[k]`` flags steps whose plain kurtosis exceeds
    KURTOSIS_THRESHOLD, where the standard error should not be trusted.
    """

    mean_sq: np.ndarray
    stderr: np.ndarray
    samples: np.ndarray
    heavy_tail: np.ndarray

    @property
    def k_max(self) -> int:
        return self.mean_sq.size - 1


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Matrix F with F F^T = cov, for a covariance check_mixture accepts,
    found without an eigensolver: exact zeros for a zero cov, a point
    mass; numpy's Cholesky factor when that exists; else the
    diagonal-pivoted Cholesky factor of the symmetric part S (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, sec. 10.3),
    stopped at the first pivot at or below slack = PSD_TOL max(1, max|S|).
    On a PSD S the residual S - F F^T is PSD with diagonal at most slack,
    so no entry of it exceeds slack. An eigenvalue of S in [-slack, 0)
    can leave a residual diagonal below -slack; check_mixture then
    decides, and raises ValueError on a cov that is not PSD."""
    if not cov.any():
        return np.zeros_like(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    rest = _sym_part(cov)  # S minus the outer products taken so far
    slack = _psd_slack(rest)
    factor = np.zeros_like(rest)
    for j in range(len(rest)):
        p = np.argmax(np.diagonal(rest))
        if rest[p, p] <= slack:
            break
        factor[:, j] = rest[:, p] / np.sqrt(rest[p, p])
        rest -= np.outer(factor[:, j], factor[:, j])
    if np.diagonal(rest).min() < -slack:
        _reject(check_mixture(
            GaussianMixture(np.ones(1), np.zeros((1, len(cov))), cov[None])))
    return factor


def _pick(uniforms: np.ndarray, cuts) -> np.ndarray:
    """Index of the weight bucket each uniform falls into.

    ``cuts`` are the first m-1 cumulative weights, each a scalar or one
    value per uniform; bucket j covers [cut_{j-1}, cut_j).
    """
    idx = np.zeros(uniforms.shape, dtype=np.intp)
    for cut in cuts:
        idx += uniforms >= cut
    return idx


def _step_moments(row: np.ndarray, scratch: np.ndarray):
    """Mean, standard error and plain kurtosis of one step's finite
    squared norms, a row of T values; overwrites it and ``scratch``.

    A row whose plain sum overflows is averaged after scaling to
    magnitude <= 1. The deviations are formed in the row, their squares
    in ``scratch``. The standard error, sample standard deviation (ddof
    1) over sqrt(T), is zero for T = 1 and, where the plain sum of
    squares overflows, taken from the deviations scaled to magnitude
    <= 1. The biased kurtosis m4 / m2^2 (Gaussian = 3) squares those
    scaled deviations in place; it is nan where the spread is at
    rounding level, the samples numerically identical and their
    kurtosis cancellation noise.
    """
    big_t = row.size
    with np.errstate(over="ignore"):
        mean = row.mean()
    if not np.isfinite(mean):
        top = np.abs(row, out=scratch).max()
        mean = top * np.divide(row, top, out=scratch).mean()
    if big_t < 2:
        return mean, 0.0, np.nan
    # x - mean rounds monotonically in x: the extreme deviations
    top = max(row.max() - mean, mean - row.min())
    dev = np.subtract(row, mean, out=row)
    with np.errstate(over="ignore"):
        sumsq = np.sum(np.square(dev, out=scratch))
    std = np.sqrt(sumsq / (big_t - 1))
    if top == 0.0:
        top = 1.0
    dev /= top
    m2 = np.sum(np.square(dev, out=dev))
    if not np.isfinite(std):
        std = top * np.sqrt(m2 / (big_t - 1))
    m2 /= big_t
    stderr = std / np.sqrt(big_t)
    if stderr <= 1e-12 * max(abs(mean), _TINY):
        return mean, stderr, np.nan
    with np.errstate(invalid="ignore", divide="ignore"):
        kurtosis = np.mean(np.square(dev, out=dev)) / (m2 * m2)
    return mean, stderr, kurtosis


def _mix(z):
    """SplitMix64's mix: on an int, or in place on a wrapping uint64 array."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= mult
        if isinstance(z, int):
            z &= _MASK
    z ^= z >> 31
    return z


def _uniforms(seed: int, d: int, weyl: np.ndarray) -> np.ndarray:
    """u(d, t) for the trajectories t whose G*(t+1) mod 2^64 are ``weyl``;
    key(d) is a Python int, as numpy's uint64 scalars warn on overflow."""
    key = _mix((seed + _GAMMA * (d + 1)) & _MASK)
    return (_mix(weyl + key) >> 11) * 2.0**-53


def _normals(seed: int, n: int, weyl: np.ndarray) -> np.ndarray:
    """(n, count) standard normals of the trajectories of ``weyl``."""
    u = np.array([_uniforms(seed, d, weyl) for d in range(1, n + n % 2 + 1)])
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    z = np.empty((n, weyl.size))
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius[:n // 2] * np.sin(angle[:n // 2])
    return z


def simulate_ensemble(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    init: GaussianMixture,
    cfg: SimConfig,
    threads: int = 1,
) -> EnsembleStats:
    """Estimate E||x(k)||^2 for k = 0 .. cfg.k_max over an ensemble.

    Samples the law's own process, its chain form, deterministically
    per seed whatever the ensemble size or ``k_max``, in memory that
    does not grow with ``k_max`` (see the module docstring). ``threads``
    is accepted and ignored: the ensemble runs on the calling thread.

    Raises
    ------
    ValueError
        On invalid inputs, or a ``cfg.sampling`` other than the law's
        own: path sampling of a non-Markov law, or marginal sampling of
        a Markov law.
    NumericalError
        If squared norms overflow float64 (the message names the step).
    """
    _reject(validate_system(sys, law, init).violations)
    markov = isinstance(law, MarkovSwitching)
    if cfg.sampling not in (None, "path" if markov else "marginal"):
        raise ValueError(
            f"marginal sampling drops a Markov law's mode correlation: "
            f"sample ScheduleSwitching(marginal_schedule(law, {cfg.k_max}))"
            f" for that process" if markov else
            f"path sampling requires a Markov switching law, got "
            f"{type(law).__name__}")

    big_t, k_max = cfg.trajectories, cfg.k_max
    n, m = sys.n, sys.m
    # first, so an impossible size fails before any draw
    mean_sq, stderr, kurtosis = np.empty((3, k_max + 1))
    samples = np.full(k_max + 1, big_t, dtype=np.int64)
    x = np.empty((big_t, n))
    normsq, scratch = np.empty((2, big_t))
    # one block's gathered start images, then its squared states
    squares = np.empty((min(big_t, _CHUNK), n))

    cum_init = np.cumsum(init.weights / np.sum(init.weights))[:-1]
    factors = np.stack([_psd_factor(c) for c in init.covs])
    spread = factors.any()  # else every start is a point mass
    mode_t = np.transpose(sys.modes, (0, 2, 1)).copy()
    all_modes = n > 1 and m <= _ALL_MODES_MAX
    ones = np.ones(n)
    offsets = np.arange(min(big_t, _CHUNK))
    base = (offsets + 1).astype(np.uint64) * _GAMMA

    def blocks():  # each block's rows, size and counters G*(t+1)
        for lo in range(0, big_t, _CHUNK):
            c = min(_CHUNK, big_t - lo)
            yield slice(lo, lo + c), c, base[:c] + (_GAMMA * lo & _MASK)

    def square(rows, count) -> None:
        # a matrix-vector product: faster than einsum's row dots
        np.matmul(np.square(x[rows], out=squares[:count]), ones,
                  out=normsq[rows])

    def reduce(k: int) -> None:
        if not np.isfinite(normsq.max()):
            raise NumericalError(
                f"squared state norms overflow float64 at k={k}"
            )
        mean_sq[k], stderr[k], kurtosis[k] = _step_moments(normsq, scratch)

    # overflow is caught on each step's complete row
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, count, weyl in blocks():
            idx0 = _pick(_uniforms(cfg.seed, 0, weyl), cum_init)
            # take: a faster gather than [idx0]
            init.means.take(idx0, axis=0, out=x[rows])
            if spread:
                # each component's image of the normals, (q, count, n)
                images = np.einsum("cab,bt->cta", factors,
                                   _normals(cfg.seed, n, weyl))
                x[rows] += images.reshape(-1, n).take(
                    idx0 * count + offsets[:count], axis=0,
                    out=squares[:count])
            square(rows, count)
        reduce(0)
        pair = law._chain(m)
        states = len(pair(1)[1])  # the chain states a step leads to
        if states > 1:  # each trajectory's chain state, read by its pick
            state = np.empty(big_t, np.min_scalar_type(states - 1))
        for k in range(1, k_max + 1):
            mix, weights = pair(k)
            # step k's mode law from state s: mode i with probability
            # mix[s, i] times the weight i carries
            rows_of = mix * weights.sum(axis=0)
            cuts = np.cumsum(rows_of.T[:-1], axis=0)  # [j][s]
            to = weights.argmax(axis=0)  # the state each mode leads to
            for rows, count, weyl in blocks():
                # slot 1 + 2*ceil(n/2) + k-1 picks step k's mode; lazily,
                # one block's row of state cuts is held at a time
                picks = _pick(_uniforms(cfg.seed, n + n % 2 + k, weyl),
                              cuts[:, 0] if len(rows_of) == 1 else
                              (cut.take(state[rows]) for cut in cuts))
                if states > 1:
                    state[rows] = to.take(picks)
                if all_modes:
                    # take each row of the (m, count, n) product by its
                    # flat index: a faster gather than [picks, offsets]
                    np.take(np.matmul(x[rows], mode_t).reshape(-1, n),
                            picks * count + offsets[:count], axis=0,
                            out=x[rows], mode="clip")
                else:
                    x[rows] = (x[rows, None] @ mode_t.take(picks, 0))[:, 0]
                square(rows, count)
            reduce(k)

    return EnsembleStats(mean_sq, stderr, samples,
                         kurtosis > KURTOSIS_THRESHOLD)
