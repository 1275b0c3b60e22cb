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
``_CHUNK`` = 4096 trajectories. Each block draws its own slots, a step's
picks as 53-bit words in two reused block buffers (``_bits``). A step
writes each block's squared norms into one block buffer and, while they
are in cache, folds them into the step's merged moments (``_fold``),
which give its mean, standard error and kurtosis before the next step
starts. So the ensemble holds 8*n bytes per trajectory, plus one byte of
chain state under a Markov law, and one block's temporaries, whatever
``k_max``. A block's start is gathered into the states in place, and
every block's squares go into one reused (4096, n) buffer. No start
factor needs an eigensolver: a point-mass component's is exact zeros, a
definite one's numpy's Cholesky factor and a singular one's a
diagonal-pivoted Cholesky factor (``_psd_factor``). When every component
is a point mass, the start draws no normals and x(0) is the picked
means, the value the draws would add 0 to.

For n >= 2 and at most ``_ALL_MODES_MAX`` = 8 modes, a block's states
are multiplied by every transposed mode at once, one (count, m*n)
product x [A_1^T ... A_m^T] into a reused buffer, keeping each
trajectory's row of its picked mode; else, and at n = 1 where a product
is one multiplication, by a gathered (count, n, n) stack. At n = 4, with
40,960 x 20 on one BLAS thread of a 2-core Xeon, the all-modes product is
faster up to m = 12 and slower from m = 16. No workload has m > 8
(ROADMAP 2d), so the bound stays at 8.

Each law has one process, its chain form ``law._chain(m)``, which the
analytic routes and the verdicts step and the ensemble samples: each
step's mode from the row of the trajectory's chain state, step 1's from
the one row of the start state. So a Markov law's trajectories follow
the chain. Independent draws from its marginals are another
law's process, ``ScheduleSwitching(marginal_schedule(law, k_max))``.
"""

from __future__ import annotations

import math
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
        t = _as_int(trajectories, "trajectories", 1)
        k = _as_int(k_max, "k_max", 0)
        s = _as_int(seed, "seed")
        if not 0 <= s < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {s}")
        if sampling not in (None, "marginal", "path"):
            raise ValueError(
                f"sampling must be marginal or path, got {sampling!r}"
            )
        _freeze(self, trajectories=t, k_max=k, seed=s, sampling=sampling)


class EnsembleStats(NamedTuple):
    """Per-step ensemble statistics, index k = 0 .. k_max, over all
    ``SimConfig.trajectories`` trajectories at every step.

    ``mean_sq[k]`` is the empirical mean of ||x(k)||^2, ``stderr[k]`` its
    standard error (sample standard deviation over sqrt(count); zero for
    single-trajectory runs), and ``heavy_tail[k]`` flags steps whose
    plain kurtosis exceeds KURTOSIS_THRESHOLD, where the standard error
    should not be trusted.
    """

    mean_sq: np.ndarray
    stderr: np.ndarray
    heavy_tail: np.ndarray


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


def _pick(bits: np.ndarray, cuts) -> np.ndarray:
    """Index of the weight bucket each draw's u = bits 2^-53 falls into;
    ``cuts`` are the first m-1 cumulative weights, each a scalar or one
    per draw, and bucket j covers [cut_{j-1}, cut_j). Float cuts compare
    the contract's u; integer ones would save only its scaling."""
    u = bits * 2.0**-53
    idx = np.zeros(bits.shape, dtype=np.intp)
    for cut in cuts:
        idx += u >= cut
    return idx


def _fold(record, row: np.ndarray, sq: np.ndarray):
    """``record`` merged with the moments of ``row``, one block's squared
    norms (None before a step's first block); overwrites ``row``, ``sq``.
    A record is (count, e, mean, M2, M3, M4) of norms scaled by 2^-e, M_p
    the sum of their deviations' p-th powers, 2^e the power of two above
    a block's largest norm (and 2^-1022). No scaled moment overflows, and
    scaling rounds nothing: one block's mean and M2 are numpy's two-pass
    bits, scaled. Records merge by the pairwise update of Chan, Golub &
    LeVeque (Am. Stat. 37, 1983) and Pebay (SAND2008-6212, 2008) in the
    larger frame, the smaller one rescaled by an exact power of two."""
    e = math.frexp(max(row.max(), _TINY))[1]
    row *= math.ldexp(1.0, -e)
    mean = float(np.add.reduce(row)) / row.size  # row.mean(), called faster
    dev = np.subtract(row, mean, out=row)
    np.square(dev, out=sq)
    block = (float(row.size), e, mean, float(np.add.reduce(sq)),
             float(sq @ dev), float(sq @ sq))
    if record is None:
        return block
    e = max(e, record[1])
    (na, ma, m2a, m3a, m4a), (nb, mb, m2b, m3b, m4b) = (
        (r[0], r[2] * s, r[3] * s * s, r[4] * s**3, r[5] * s**4)
        for r, s in ((r, math.ldexp(1.0, r[1] - e)) for r in (record, block)))
    n, d = na + nb, mb - ma
    dn = d / n
    return (n, e, ma + nb * dn, m2a + m2b + na * nb * d * dn,
            m3a + m3b + na * nb * (na - nb) * d * dn * dn
            + 3 * dn * (na * m2b - nb * m2a),
            m4a + m4b + na * nb * (na * na - na * nb + nb * nb) * d * dn**3
            + 6 * dn * dn * (na * na * m2b + nb * nb * m2a)
            + 4 * dn * (na * m3b - nb * m3a))


def _finish(record, k: int):
    """Step k's mean, standard error (ddof 1, over sqrt(T); 0 for T = 1)
    and plain kurtosis m4 / m2^2 from its record; the kurtosis is nan where
    the standard error is at most 1e-12 of the mean, at rounding level."""
    count, e, mean, m2, _, m4 = record
    if not math.isfinite(mean):
        raise NumericalError(f"squared state norms overflow float64 at k={k}")
    stderr = math.sqrt(m2 / max(count - 1, 1)) / math.sqrt(count)
    kurtosis = (m4 / count / (m2 / count) ** 2
                if stderr > 1e-12 * max(mean, _TINY) else np.nan)
    return math.ldexp(mean, e), math.ldexp(stderr, e), kurtosis


def _mix(z, tmp=None):
    """SplitMix64's mix: on an int, or in place on a wrapping uint64
    array, its shifts written to ``tmp`` if given."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift if tmp is None else np.right_shift(z, shift, out=tmp)
        z *= mult
        if isinstance(z, int):
            z &= _MASK
    z ^= z >> 31 if tmp is None else np.right_shift(z, 31, out=tmp)
    return z


def _bits(seed: int, d: int, lo: int, base, out, tmp) -> np.ndarray:
    """word(d, t) >> 11, the bits u(d, t) scales by 2^-53, for t = lo ..
    lo + out.size - 1, in place in ``out``; ``base`` holds G*(i+1) for a
    block's offsets i, G*lo is folded into the key (a Python int, as
    numpy's uint64 scalars warn on overflow), and ``tmp`` takes shifts."""
    key = _mix((seed + _GAMMA * (d + 1)) & _MASK) + _GAMMA * lo & _MASK
    _mix(np.add(base[:out.size], key, out=out), tmp)
    return np.right_shift(out, 11, out=out)


def _normals(seed: int, n: int, lo: int, base: np.ndarray) -> np.ndarray:
    """(n, count) standard normals of trajectories lo .. lo + count - 1,
    ``base`` their counters G*(i+1) from the block's start."""
    u = np.empty((n + n % 2 + 1, base.size), np.uint64)  # last row: scratch
    for d, row in enumerate(u[:-1], 1):
        _bits(seed, d, lo, base, row, u[-1])
    u = u[:-1] * 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    z = np.empty((n, base.size))
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
    x = np.empty((big_t, n))
    block = min(big_t, _CHUNK)
    normsq, sq = np.empty((2, block))  # a block's norms, squared deviations
    # one block's gathered start images, then its squared states
    squares = np.empty((block, n))

    cum_init = np.cumsum(init.weights / np.sum(init.weights))[:-1]
    factors = np.stack([_psd_factor(c) for c in init.covs])
    spread = factors.any()  # else every start is a point mass
    mode_t = np.transpose(sys.modes, (0, 2, 1)).copy()
    all_modes = n > 1 and m <= _ALL_MODES_MAX
    ones = np.ones(n)
    offsets = np.arange(block)
    base = (offsets + 1).astype(np.uint64) * _GAMMA

    def blocks():  # each block's rows, size and first trajectory
        for lo in range(0, big_t, _CHUNK):
            c = min(_CHUNK, big_t - lo)
            yield slice(lo, lo + c), c, lo

    def fold(rows, count, record):
        # a matrix-vector product: faster than einsum's row dots
        np.matmul(np.square(x[rows], out=squares[:count]), ones,
                  out=normsq[:count])
        return _fold(record, normsq[:count], sq[:count])

    # overflow is caught on each step's merged mean
    with np.errstate(over="ignore", invalid="ignore"):
        record = None
        for rows, count, lo in blocks():
            idx0 = _pick(_bits(cfg.seed, 0, lo, base,
                               *np.empty((2, count), np.uint64)), cum_init)
            # take: a faster gather than [idx0]
            init.means.take(idx0, axis=0, out=x[rows])
            if spread:
                # each component's image of the normals, (q, count, n)
                images = np.einsum("cab,bt->cta", factors,
                                   _normals(cfg.seed, n, lo, base[:count]))
                x[rows] += images.reshape(-1, n).take(
                    idx0 * count + offsets[:count], axis=0,
                    out=squares[:count])
            record = fold(rows, count, record)
        mean_sq[0], stderr[0], kurtosis[0] = _finish(record, 0)
        pair = law._chain(m)
        states = len(pair(1)[1])  # the chain states a step leads to
        if states > 1:  # each trajectory's chain state, read by its pick
            state = np.empty(big_t, np.min_scalar_type(states - 1))
        # made after the start, so they add nothing to its peak
        words = np.empty((2, block), np.uint64)
        if all_modes:  # [A_1^T ... A_m^T], its product, each row's base
            stacked = np.concatenate(mode_t, axis=1)
            products, spots = np.empty((block, m * n)), offsets * m
        for k in range(1, k_max + 1):
            mix, weights = pair(k)
            # step k's mode law from state s: mode i with probability
            # mix[s, i] times the weight i carries
            rows_of = mix * weights.sum(axis=0)
            cuts = np.cumsum(rows_of.T[:-1], axis=0)  # [j][s]
            to = weights.argmax(axis=0)  # the state each mode leads to
            record = None
            for rows, count, lo in blocks():
                # slot 1 + 2*ceil(n/2) + k-1 picks step k's mode; lazily,
                # one block's row of state cuts is held at a time
                picks = _pick(_bits(cfg.seed, n + n % 2 + k, lo, base,
                                    *words[:, :count]),
                              cuts[:, 0] if len(rows_of) == 1 else
                              (cut.take(state[rows]) for cut in cuts))
                if states > 1:
                    state[rows] = to.take(picks)
                if all_modes:  # row picks[i] + m*i of the (count*m, n) product
                    picks += spots[:count]
                    np.take(np.matmul(x[rows], stacked,
                                      out=products[:count]).reshape(-1, n),
                            picks, axis=0, out=x[rows], mode="clip")
                else:
                    x[rows] = (x[rows, None] @ mode_t.take(picks, 0))[:, 0]
                record = fold(rows, count, record)
            mean_sq[k], stderr[k], kurtosis[k] = _finish(record, k)

    return EnsembleStats(mean_sq, stderr, kurtosis > KURTOSIS_THRESHOLD)
