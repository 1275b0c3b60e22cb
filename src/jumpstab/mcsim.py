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
semantics). Each generator, state and last mode pick lives for the whole
run; steps run outermost and blocks innermost, but a block's draws
depend only on its own generator, so the streams are those of running
each block to the end in turn. The output depends on ``_CHUNK`` only and
is bit-identical for any ``threads`` argument, which is ignored.

Kernel
------
One step advances every block, writing its squared norms into one
contiguous row of ``trajectories`` values; the row is then reduced to
the step's mean, standard error and kurtosis, summed pairwise by numpy,
before the next step starts. Only the (trajectories, n) states, one row
of squared norms and one row of mode picks are held, so memory does not
grow with ``k_max`` beyond its few per-step outputs. For n >= 2 and at
most ``_ALL_MODES_MAX`` = 8 modes, a step multiplies a block's states by
every transposed mode at once, an (m, count, n) product, and keeps each
trajectory's row of its picked mode; past 8 modes that m-fold product
costs more than it saves, and at n = 1 a product is one multiplication,
so the block is instead multiplied by a gathered (count, n, n) stack of
the picked modes.

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


def _step_moments(row: np.ndarray):
    """Mean, standard error and plain kurtosis of one step's finite
    squared norms, a row of T values.

    A row whose plain sum overflows is averaged after scaling to
    magnitude <= 1. One array of deviations serves both spreads. The
    standard error, sample standard deviation (ddof 1) over sqrt(T), is
    zero for T = 1 and, where the plain sum of squares overflows, taken
    from the deviations scaled to magnitude <= 1. The biased kurtosis
    m4 / m2^2 (Gaussian = 3) squares those scaled deviations in place;
    it is nan where the spread is at rounding level, the samples
    numerically identical and their kurtosis cancellation noise.
    """
    big_t = row.size
    with np.errstate(over="ignore"):
        mean = row.mean()
    if not np.isfinite(mean):
        top = np.max(np.abs(row))
        mean = top * np.mean(row / top)
    if big_t < 2:
        return mean, 0.0, np.nan
    dev = row - mean
    with np.errstate(over="ignore"):
        sumsq = np.sum(np.square(dev))
    std = np.sqrt(sumsq / (big_t - 1))
    top = max(dev.max(), -dev.min())
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

    Deterministic per seed: results are bit-identical across runs (see
    the module docstring for the stream layout). All blocks advance one
    step together and each step's squared norms are reduced before the
    next step starts, so memory is O(trajectories * n) whatever
    ``k_max``. ``threads`` is accepted and ignored: the ensemble runs on
    the calling thread.

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

    big_t, k_max = cfg.trajectories, cfg.k_max
    n, m = sys.n, sys.m
    # first, so an impossible size fails before any generator is built
    mean_sq, stderr, kurtosis = np.empty((3, k_max + 1))
    samples = np.full(k_max + 1, big_t, dtype=np.int64)
    x = np.empty((big_t, n))
    normsq = np.empty(big_t)
    modes = np.empty(big_t, dtype=np.intp)

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

    offsets = np.arange(min(big_t, _CHUNK))
    blocks = []
    for block in range(-(-big_t // _CHUNK)):
        lo = block * _CHUNK
        hi = min(lo + _CHUNK, big_t)
        blocks.append((_block_rng(cfg.seed, block), slice(lo, hi), hi - lo))

    def reduce(k: int) -> None:
        if not np.all(np.isfinite(normsq)):
            raise NumericalError(
                f"squared state norms overflow float64 at k={k}"
            )
        mean_sq[k], stderr[k], kurtosis[k] = _step_moments(normsq)

    # overflow is caught on each step's complete row
    with np.errstate(over="ignore", invalid="ignore"):
        for gen, rows, count in blocks:
            idx0 = _pick(gen.random(count), cum_init)
            z = gen.standard_normal((count, n))
            x[rows] = init.means[idx0] + np.einsum(
                "tab,tb->ta", factors[idx0], z)
            np.einsum("ti,ti->t", x[rows], x[rows], out=normsq[rows])
        reduce(0)
        for k in range(k_max):
            for gen, rows, count in blocks:
                if cfg.sampling == "path" and k > 0:
                    cuts = [cut[modes[rows]] for cut in cum_cols]
                else:
                    cuts = cum_sched[k]
                picked = modes[rows] = _pick(gen.random(count), cuts)
                if all_modes:
                    # take each row of the (m, count, n) product by its
                    # flat index: a faster gather than [picked, offsets]
                    x[rows] = np.matmul(x[rows], mode_t).reshape(-1, n).take(
                        picked * count + offsets[:count], axis=0)
                else:
                    x[rows] = np.matmul(x[rows, None], mode_t[picked])[:, 0]
                np.einsum("ti,ti->t", x[rows], x[rows], out=normsq[rows])
            reduce(k + 1)

    return EnsembleStats(
        mean_sq=mean_sq,
        stderr=stderr,
        samples=samples,
        heavy_tail=kurtosis > KURTOSIS_THRESHOLD,
    )
