"""Seeded Monte Carlo ensemble simulator.

Serves as an independent empirical oracle for the analytic W^2(k)
trajectory: the mean of ||x(k)||^2 across trajectories estimates the
squared Wasserstein distance to the origin mass.

Reproducibility contract
------------------------
Trajectories are cut into fixed blocks of ``_CHUNK`` = 4096 (the last
block may be shorter). Block ``b`` draws from its own generator,
``PCG64(SeedSequence(entropy=seed, spawn_key=(b,)))``, in bulk and in a
fixed order: ``random(count)`` for the initial components,
``standard_normal((count, n))`` for the initial states, then one
``random(count)`` per step for the mode picks (drawn under every law,
even deterministic ones, so streams stay aligned across sampling
semantics). Blocks depend on ``_CHUNK`` only, never on the thread count;
each block writes its own columns of the result array and the final
reduction runs once over the full array, so the output is bit-identical
for any thread count.

Kernel
------
Squared norms are stored step-major, one row of ``trajectories`` values
per step: a step writes one contiguous row, and the mean, standard error
and kurtosis reduce contiguous rows, summed pairwise by numpy. For
n >= 2 and at most ``_ALL_MODES_MAX`` = 8 modes, a step multiplies the
block's states by every transposed mode at once, an (m, count, n)
product, and keeps each trajectory's row of its picked mode; past 8
modes that m-fold product costs more than it saves, and at n = 1 a
product is one multiplication, so the block is instead multiplied by a
gathered (count, n, n) stack of the picked modes.

Two sampling semantics are exposed. ``marginal`` draws every step's mode
independently from the per-step occupation vector; this is the joint law
whose second moments the analytic recursions track, for every switching
law. ``path`` (Markov laws only) follows the chain's conditional rows
instead; it shares the per-step marginals but correlates consecutive
modes, so its ensemble moments may deviate from the marginal recursion.
The two coincide when consecutive modes are in fact independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkit import NumericalError, sqrtm_psd
from .sysmodel import (
    GaussianMixture,
    JumpLinearSystem,
    MarkovSwitching,
    SwitchingLaw,
    _marginals,
    _normalized,
    _reject,
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

#: Largest mode count of the all-modes product (see the module docstring)
_ALL_MODES_MAX = 8

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SimConfig:
    """Ensemble run parameters.

    ``seed`` is a 64-bit nonnegative integer; ``sampling`` is "marginal"
    (independent per-step marginals, valid for every law) or "path"
    (Markov chain transitions, Markov laws only).
    """

    trajectories: int
    k_max: int
    seed: int = 0
    sampling: str = "marginal"

    def __post_init__(self):
        t = int(self.trajectories)
        if t < 1:
            raise ValueError(f"trajectories must be >= 1, got {t}")
        object.__setattr__(self, "trajectories", t)
        k = int(self.k_max)
        if k < 0:
            raise ValueError(f"k_max must be nonnegative, got {k}")
        object.__setattr__(self, "k_max", k)
        s = int(self.seed)
        if not 0 <= s < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {s}")
        object.__setattr__(self, "seed", s)
        if self.sampling not in ("marginal", "path"):
            raise ValueError(
                f"sampling must be marginal or path, got {self.sampling!r}"
            )


@dataclass(frozen=True, eq=False)
class EnsembleStats:
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
    """Matrix F with F F^T = cov, for PSD cov: Cholesky when positive
    definite, else the spectral square root, which raises ValueError on
    indefinite input."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return sqrtm_psd(cov)


def _pick(uniforms: np.ndarray, cuts) -> np.ndarray:
    """Index of the weight bucket each uniform falls into.

    ``cuts`` are the first m-1 cumulative weights, each a scalar or one
    value per uniform; bucket j covers [cut_{j-1}, cut_j).
    """
    idx = np.zeros(uniforms.shape, dtype=np.intp)
    for cut in cuts:
        idx += uniforms >= cut
    return idx


def _mean(samples: np.ndarray) -> np.ndarray:
    """Column means of finite samples; a column whose plain sum overflows
    is averaged after scaling to magnitude <= 1."""
    with np.errstate(over="ignore"):
        mean = samples.mean(axis=0)
    lost = ~np.isfinite(mean)
    if np.any(lost):
        top = np.max(np.abs(samples[:, lost]), axis=0)
        mean[lost] = top * np.mean(samples[:, lost] / top, axis=0)
    return mean


def _std(samples: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Sample standard deviations (ddof 1) of finite samples; a column
    whose plain sum of squares overflows is recomputed with deviations
    scaled to magnitude <= 1 first. The result is finite: it is at most
    the largest sample magnitude."""
    with np.errstate(over="ignore", invalid="ignore"):
        std = samples.std(axis=0, ddof=1)
    lost = ~np.isfinite(std)
    if np.any(lost):
        dev = samples[:, lost] - mean[lost]
        scale = np.max(np.abs(dev), axis=0)
        scale[scale == 0.0] = 1.0
        std[lost] = scale * np.sqrt(
            np.sum(np.square(dev / scale), axis=0) / (len(dev) - 1)
        )
    return std


def _kurtosis(samples: np.ndarray) -> np.ndarray:
    """Plain biased kurtosis m4 / m2^2 of each column (Gaussian = 3).

    Deviations are scaled to magnitude <= 1 first, so no power overflows;
    they are squared in place, the one temporary the size of ``samples``.
    """
    dev = samples - _mean(samples)
    with np.errstate(invalid="ignore", divide="ignore"):
        dev /= np.maximum(dev.max(axis=0), -dev.min(axis=0))
        m2 = np.mean(np.square(dev, out=dev), axis=0)
        return np.mean(np.square(dev, out=dev), axis=0) / m2**2


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    )


def simulate_ensemble(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    init: GaussianMixture,
    cfg: SimConfig,
    threads: int = 1,
) -> EnsembleStats:
    """Estimate E||x(k)||^2 for k = 0 .. cfg.k_max over an ensemble.

    Deterministic per seed: results are bit-identical across runs and
    thread counts (see the module docstring for the stream layout).
    ``threads`` only controls execution; it is not part of the
    statistical configuration.

    Raises
    ------
    ValueError
        On invalid inputs, or path sampling with a non-Markov law.
    NumericalError
        If squared norms overflow float64 (the message names the step).
    """
    _reject(validate_system(sys, law, init).violations)
    if cfg.sampling == "path" and not isinstance(law, MarkovSwitching):
        raise ValueError(
            f"path sampling requires a Markov switching law, got "
            f"{type(law).__name__}"
        )
    threads = max(int(threads), 1)

    big_t, k_max = cfg.trajectories, cfg.k_max
    n, m = sys.n, sys.m
    # first, so an impossible size fails before any other allocation
    normsq = np.empty((k_max + 1, big_t))
    weights = init.weights / np.sum(init.weights)
    cum_init = np.cumsum(weights)[:-1]
    factors = np.stack([_psd_factor(c) for c in init.covs])
    mode_t = np.transpose(sys.modes, (0, 2, 1)).copy()
    all_modes = n > 1 and m <= _ALL_MODES_MAX

    schedule = _marginals(law, k_max, m)
    cum_sched = np.cumsum(schedule, axis=1)[:, :-1]
    if cfg.sampling == "path":
        # cum_cols[j][i]: cut j of the chain row of mode i
        cum_cols = np.cumsum(_normalized(law.P), axis=1)[:, :-1].T.copy()

    def run_block(block: int) -> None:
        lo = block * _CHUNK
        hi = min(lo + _CHUNK, big_t)
        count = hi - lo
        rows = np.arange(count)
        gen = _block_rng(cfg.seed, block)
        idx0 = _pick(gen.random(count), cum_init)
        z = gen.standard_normal((count, n))
        # overflow is caught on the whole array once the blocks are done
        with np.errstate(over="ignore", invalid="ignore"):
            x = init.means[idx0] + np.einsum("tab,tb->ta", factors[idx0], z)
            normsq[0, lo:hi] = np.einsum("ti,ti->t", x, x)
            for k in range(k_max):
                if cfg.sampling == "path" and k > 0:
                    cuts = [cut[modes] for cut in cum_cols]
                else:
                    cuts = cum_sched[k]
                modes = _pick(gen.random(count), cuts)
                if all_modes:
                    # take each row of the (m, count, n) product by its
                    # flat index: a faster gather than [modes, rows]
                    x = np.matmul(x, mode_t).reshape(-1, n).take(
                        modes * count + rows, axis=0)
                else:
                    x = np.matmul(x[:, None], mode_t[modes])[:, 0]
                normsq[k + 1, lo:hi] = np.einsum("ti,ti->t", x, x)

    blocks = range(-(-big_t // _CHUNK))
    if threads == 1 or len(blocks) == 1:
        for block in blocks:
            run_block(block)
    else:
        import concurrent.futures  # pulls in logging: only where used

        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            list(pool.map(run_block, blocks))

    finite = np.all(np.isfinite(normsq), axis=1)
    if not np.all(finite):
        raise NumericalError(
            f"squared state norms overflow float64 at k={np.argmin(finite)}"
        )
    samples = normsq.T  # columns are steps, each contiguous in memory
    mean_sq = _mean(samples)
    if big_t >= 2:
        stderr = _std(samples, mean_sq) / np.sqrt(big_t)
    else:
        stderr = np.zeros(k_max + 1)
    heavy = np.zeros(k_max + 1, dtype=bool)
    # a spread at rounding level means the samples are numerically
    # identical; kurtosis there is pure cancellation noise
    spread = stderr > 1e-12 * np.maximum(np.abs(mean_sq), _TINY)
    if np.any(spread):
        heavy[spread] = _kurtosis(normsq[spread].T) > KURTOSIS_THRESHOLD
    return EnsembleStats(
        mean_sq=mean_sq,
        stderr=stderr,
        samples=np.full(k_max + 1, big_t, dtype=np.int64),
        heavy_tail=heavy,
    )
