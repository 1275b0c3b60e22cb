"""Plain constructions that the tests compare the library against.

Not a test module: pytest collects only ``test_*.py``. The n^2 lift is
the textbook form of what the library computes in symmetric
coordinates, and ``bases`` spans those coordinates and the skew ones
in vec form; ``sym_lifts`` folds np.kron's lift onto those coordinates,
and ``chain_lift`` builds from it the matrix of the second-moment map
that the spectral tests read off the map itself; ``markov_w2`` is the
mode-conditioned second-moment recursion of a Markov jump linear
system in plain loops; the Monte Carlo draws come from a sequential
SplitMix64 in Python ints, where the library jumps ahead in numpy
uint64 arrays, and ``ensemble_mean_sq`` steps each trajectory of an
ensemble in a plain loop, reading each law's own fields.
``structured_family`` is a seeded set of laws over rank-one,
triangular and generic modes for the verdict tests.
``eigvalsh_violations`` words a mixture's violations by eigvalsh alone,
the rule that ``check_mixture``'s Cholesky proof must reproduce.
``traced_peak`` measures the peak memory of one call, and
``needs_refused_allocation`` marks a test that needs an impossible
allocation refused.
"""

import bisect
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from jumpstab.matkit import NumericalError, _psd_slack, _sym_part
from jumpstab.moments import _basis_pairs, _basis_units
from jumpstab.sysmodel import (
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
)
from jumpstab.systemfile import _weight_violations


def lifted_step_matrix(sys: JumpLinearSystem, pi_k) -> np.ndarray:
    """The n^2 reference lift sum_j pi_j (A_j kron A_j), acting on vec(Phi),
    with pi the probability vector pi_k, roundoff negatives clamped to 0
    and renormalized."""
    pi = np.clip(np.asarray(pi_k, dtype=float), 0.0, None)
    pi = pi / pi.sum()
    if pi.size != sys.m:
        raise ValueError(f"pi_k has length {pi.size} for {sys.m} modes")
    a, n2 = sys.modes, sys.n * sys.n
    with np.errstate(over="ignore"):
        lifts = a[:, :, None, :, None] * a[:, None, :, None, :]
    if not np.all(np.isfinite(lifts)):
        raise NumericalError("A_j kron A_j overflows: modes too large")
    return np.tensordot(pi, lifts.reshape(sys.m, n2, n2), axes=1)


def sym_lifts(modes) -> np.ndarray:
    """A_j kron A_j on symmetric matrices, in the basis of ``bases``, from
    K = np.kron(A_j, A_j): entry (r, c) is u_r^T K u_c, which the symmetry
    K[(p,q), (r,s)] = K[(q,p), (s,r)] folds to 2^(-d/2) (K[r, c] + K[r, c'])
    with c' the transposed position of column c and d the number of
    diagonal elements among r and c."""
    n = modes.shape[-1]
    p, q = _basis_pairs(n)
    rows = p * n + q
    k = np.array([np.kron(a, a) for a in modes])[:, rows]
    d = np.add.outer(p == q, p == q, dtype=int)
    return (k[:, :, rows] + k[:, :, q * n + p]) * 0.5 ** (d / 2)


def chain_lift(modes, mix, weights) -> np.ndarray:
    """The matrix of _moment_map(modes, mix, weights) built from the
    Kronecker lifts: block (r, j) of the (s b, s b) result is
    sum_i weights[r, i] mix[j, i] sym_lifts(modes)[i], b = n(n+1)/2."""
    blocks = sym_lifts(modes)
    lift = np.tensordot(weights[:, None] * mix[None], blocks, 1)
    size = len(mix) * blocks.shape[1]
    return np.swapaxes(lift, 1, 2).reshape(size, size)


def markov_w2(modes, P, pi0, phi0, k_max):
    """W^2(0) .. W^2(k_max) of x(k) = A_sigma(k) x(k-1) for a Markov chain
    of modes sigma with transition matrix P, sigma(0) ~ pi0 the mode
    before step 1, and E[x(0) x(0)^T] = phi0: the sums over r of
    tr Q_r(k), where Q_r(k) = E[x(k) x(k)^T; sigma(k) = r] obeys
    Q_r(0) = pi0_r phi0 and Q_r(k) = A_r (sum_j P_jr Q_j(k-1)) A_r^T
    (Costa, Fragoso & Marques 2005, ch. 3), one matrix at a time."""
    modes = [np.asarray(a, dtype=float) for a in modes]
    m = len(modes)
    q = [pi0[r] * np.asarray(phi0, dtype=float) for r in range(m)]
    out = [np.trace(phi0)]
    for _ in range(k_max):
        q = [modes[r] @ sum(P[j][r] * q[j] for j in range(m)) @ modes[r].T
             for r in range(m)]
        out.append(sum(np.trace(x) for x in q))
    return np.array(out)


def eigvalsh_violations(mix) -> list:
    """A mixture's violations by eigvalsh alone: the weight messages,
    each component's asymmetry beyond half the slack of its covariance,
    then each component whose symmetric part S has an eigenvalue below
    -PSD_TOL max(1, max|S|), in component order."""
    out = _weight_violations(mix.weights.tolist())
    top = np.finfo(float).max / 2
    half = mix.covs * 0.5
    half_asym = np.max(np.abs(half - np.transpose(half, (0, 2, 1))),
                       axis=(1, 2))
    for i in np.where(half_asym > _psd_slack(mix.covs) * 0.5)[0]:
        size = (f"{2.0 * half_asym[i]:.3e}" if half_asym[i] <= top
                else f"above {2.0 * top:.3e}")
        out.append(f"component {i + 1} covariance is not symmetric: "
                   f"largest asymmetry {size}")
    sym = _sym_part(mix.covs)
    eigs = np.linalg.eigvalsh(sym)
    for i in np.where(eigs[:, 0] < -_psd_slack(sym))[0]:
        out.append(f"component {i + 1} covariance is not PSD: smallest "
                   f"eigenvalue {eigs[i, 0]:.3e}")
    return out


def structured_family(count):
    """Seeded laws over rank-one, upper-triangular and generic modes, each
    times U(0.3, 1.2)/sqrt(n), n and m in 2-3: schedules of 2-3
    Dirichlet(1) rows alternate with Markov chains of Dirichlet(0.5) rows
    started from a unit pi0. Entries below 0.2 are zeroed and the rows
    renormalized."""
    def sparse(rows):
        rows = np.where(rows < 0.2, 0.0, rows)
        return rows / rows.sum(-1, keepdims=True)

    rng = np.random.default_rng(11)
    for t in range(count):
        n, m = rng.integers(2, 4), rng.integers(2, 4)
        modes = []
        for _ in range(m):
            kind = rng.integers(3)
            a = (np.outer(rng.standard_normal(n), rng.standard_normal(n))
                 if kind == 0 else np.triu(rng.standard_normal((n, n)))
                 if kind == 1 else rng.standard_normal((n, n)))
            modes.append(a * rng.uniform(0.3, 1.2) / np.sqrt(n))
        if t % 2 == 0:
            rows = np.zeros((1, m))
            while not rows.any(-1).all():  # no row zeroed whole
                rows = sparse(rng.dirichlet(np.ones(m), rng.integers(2, 4)))
            law = ScheduleSwitching(rows)
        else:
            p = sparse(rng.dirichlet(0.5 * np.ones(m), m))
            law = MarkovSwitching(p, np.eye(m)[rng.integers(m)])
        yield JumpLinearSystem(modes), law


def bases(n: int):
    """Orthonormal bases U (n^2 x s) and V (n^2 x t) of vec'd symmetric and
    skew matrices: E_ii, (E_pq + E_qp)/sqrt2 and (E_pq - E_qp)/sqrt2, p < q.
    U's columns are in the order of the library's symmetric coordinates.
    """
    p, q = _basis_pairs(n)
    cols, units = np.arange(p.size), _basis_units(n)
    u, v = np.zeros((n * n, p.size)), np.zeros((n * n, p.size - n))
    u[p * n + q, cols] = u[q * n + p, cols] = units
    v[p[n:] * n + q[n:], cols[:-n]] = units[n:]
    v[q[n:] * n + p[n:], cols[:-n]] = -units[n:]
    return u, v


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes that tracemalloc saw it hold)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _grants_every_allocation() -> bool:
    """Whether Linux is set to grant every allocation, however large
    (vm.overcommit_memory 1)."""
    try:
        with open("/proc/sys/vm/overcommit_memory") as f:
            return f.read().strip() == "1"
    except OSError:
        return False


#: a test of an impossible horizon relies on numpy's refusal of its
#: first allocation; a host that grants it would run every step instead
needs_refused_allocation = pytest.mark.skipif(
    _grants_every_allocation(),
    reason="the host grants every allocation (vm.overcommit_memory 1)")


#: SplitMix64's increment and the mask of arithmetic mod 2^64
GAMMA, MASK = 0x9E3779B97F4A7C15, 2**64 - 1


def splitmix64(state):
    """Sequential SplitMix64 (Steele, Lea & Flood 2014) started at
    ``state``: yields its outputs 0, 1, 2, ... as Python ints."""
    while True:
        state = (state + GAMMA) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        yield z ^ (z >> 31)


def uniforms(seed, d, count):
    """u(d, t) for t = 0 .. count-1 of the Monte Carlo stream: the top 53
    bits of the outputs of SplitMix64 started at key(d), which is output
    d of SplitMix64 started at ``seed``."""
    key = next(itertools.islice(splitmix64(seed), d, None))
    words = itertools.islice(splitmix64(key), count)
    return np.array([(w >> 11) * 2.0**-53 for w in words])


def ensemble_draws(seed, n, k_max, count):
    """Draws of trajectories 0 .. count-1: component uniforms (count,),
    standard normals (count, n) and mode-pick uniforms (k_max, count).

    Box-Muller runs on numpy arrays, as in the simulator: a SIMD build's
    log1p may differ from ``math.log1p`` in the last bit.
    """
    pairs = (n + 1) // 2
    u = np.array([uniforms(seed, d, count) for d in range(1, 2 * pairs + 1)])
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    z = np.empty((2 * pairs, count))
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    picks = np.array([uniforms(seed, 1 + 2 * pairs + k, count)
                      for k in range(k_max)]).reshape(k_max, count)
    return uniforms(seed, 0, count), z[:n].T, picks


def ensemble_mean_sq(sys, law, mix, seed, trajectories, k_max):
    """mean ||x(k)||^2, k = 0 .. k_max, of the ensemble of the documented
    stream layout, each trajectory stepped by x <- A_j x in a plain loop.

    Step k's mode j is drawn from the law's own fields: an IID law's pi;
    a schedule's row k, its last row beyond them; a sequence's index
    i_k, cycling; for a Markov law, pi0 P at step 1 and the P row of the
    mode before at later steps. Each mean is an exactly rounded sum over
    the samples.
    """
    @functools.cache
    def cuts(k, before):  # uniform u picks mode bisect_right(cuts, u)
        if isinstance(law, IIDSwitching):
            w = law.pi
        elif isinstance(law, ScheduleSwitching):
            w = law.vectors[min(k, len(law.vectors)) - 1]
        elif isinstance(law, MarkovSwitching):
            w = law.pi0 @ law.P if before is None else law.P[before]
        else:
            w = np.eye(sys.m)[law.indices[(k - 1) % len(law.indices)] - 1]
        return list(np.cumsum(w / np.sum(w))[:-1])

    init_cuts = list(np.cumsum(mix.weights / np.sum(mix.weights))[:-1])
    factors = [np.linalg.cholesky(c) for c in mix.covs]
    comp, z, picks = ensemble_draws(seed, sys.n, k_max, trajectories)
    samples = [[] for _ in range(k_max + 1)]
    for t in range(trajectories):
        c = bisect.bisect_right(init_cuts, comp[t])
        x = mix.means[c] + factors[c] @ z[t]
        samples[0].append(x @ x)
        j = None
        for k in range(1, k_max + 1):
            j = bisect.bisect_right(cuts(k, j), picks[k - 1][t])
            x = sys.modes[j] @ x
            samples[k].append(x @ x)
    return np.array([math.fsum(s) for s in samples]) / trajectories
