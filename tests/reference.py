"""Plain constructions that the tests compare the library against.

Not a test module: pytest collects only ``test_*.py``. The n^2 lift is
the textbook form of what the library computes in symmetric
coordinates, and ``bases`` spans those coordinates and the skew ones
in vec form; the Monte Carlo draws come from a sequential SplitMix64 in
Python ints, where the library jumps ahead in numpy uint64 arrays.
``traced_peak`` measures the peak memory of one call, and
``needs_refused_allocation`` marks a test that needs an impossible
allocation refused.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from jumpstab.matkit import NumericalError
from jumpstab.propagate import _basis_pairs, _basis_units
from jumpstab.sysmodel import JumpLinearSystem, as_probability_vector


def lifted_step_matrix(sys: JumpLinearSystem, pi_k) -> np.ndarray:
    """The n^2 reference lift sum_j pi_j (A_j kron A_j), acting on vec(Phi)."""
    pi = as_probability_vector(pi_k, "pi_k")
    if pi.size != sys.m:
        raise ValueError(f"pi_k has length {pi.size} for {sys.m} modes")
    a, n2 = sys.modes, sys.n * sys.n
    with np.errstate(over="ignore"):
        lifts = a[:, :, None, :, None] * a[:, None, :, None, :]
    if not np.all(np.isfinite(lifts)):
        raise NumericalError("A_j kron A_j overflows: modes too large")
    return np.tensordot(pi, lifts.reshape(sys.m, n2, n2), axes=1)


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
