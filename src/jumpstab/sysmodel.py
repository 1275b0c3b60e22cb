"""Domain types for jump linear systems, switching laws, and Gaussian mixtures.

The system, law and mixture types are plain read-only classes whose
``__init__`` checks its arguments and stores them through ``_freeze``.
Assigning or deleting a field raises ``AttributeError``.

Construction enforces structural soundness only: each array passes
``matkit.as_matrix`` (int or float entries, its number of dimensions,
nonempty, finite) and the arrays agree in shape. :func:`validate_system`
reports every violated value-level invariant, by the reader's plain-Python
rules (``systemfile``) and, for covariances, :func:`check_mixture`.

Each switching law owns its mode count ``m`` (None for a sequence, whose
indices do not fix it) and its chain form ``_chain(m)``, which every
verdict, route and sampler steps: k -> step k's (mix, weights), states
x m, arrays not to be written. From state j, mode i and then state r
follow with probability mix[j, i] weights[r, i]; each mode leads to one
state r, and weights[r] is the law of the modes that lead to r. Step
1's mix is one row, from the start. IID, schedule and sequence laws
have one state, weights pi(k). IID, Markov and schedule laws name the
step ``_settle`` from which the pair repeats: 1, 2, or the number of
schedule rows.

Each public operation checks its inputs on entry, raising
``ValueError``. Values derived from checked inputs (normalized marginals,
propagated mixtures) are not checked again; tests pin their invariants.

Mode indices are 1-based in all user-facing values (sequences, messages),
matching the convention for ``A_1 .. A_m``; internal array indexing is
0-based.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from .matkit import _as_floats, _psd_slack, _sym_part, as_matrix, as_square
from .systemfile import (
    _LAW_FIELDS,
    ValidationReport,
    _law_violations,
    _weight_violations,
)

__all__ = [
    "JumpLinearSystem",
    "GaussianMixture",
    "IIDSwitching",
    "MarkovSwitching",
    "ScheduleSwitching",
    "SequenceSwitching",
    "SwitchingLaw",
    "ValidationReport",
    "validate_system",
    "marginal_schedule",
]

#: Half the largest float64: a halved asymmetry above it cannot be doubled.
_HALF_MAX = np.finfo(float).max / 2

#: Largest covariance whose Cholesky factor proves it PSD: there the
#: factor's rounding, (n+1)^2 u max|S|, stays under a sixth of slack/2
_PROOF_MAX_N = 256


def _reject(violations) -> None:
    """Raise ``ValueError`` listing the violations, if there are any."""
    if violations:
        raise ValueError("; ".join(violations))


class _ReadOnly:
    """Base of the validated types: ``__init__`` checks its arguments and
    stores them through :func:`_freeze`; nothing else writes a field."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


def _freeze(obj: _ReadOnly, **fields) -> None:
    """Store the fields of a read-only object, the one place that writes
    them: an array as a read-only float64 copy, so neither the caller nor
    the object can write the other's; any other value as given."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = np.array(value, dtype=float)
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _as_int(value, name: str, low: int = None) -> int:
    """``value`` as an int: ints, numpy integers and floats of integral
    value pass; bools, strings and other values raise ``ValueError``, as
    does an int below ``low`` when one is given ("nonnegative" for 0)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        out = int(value)
    elif isinstance(value, (float, np.floating)) and float(value).is_integer():
        out = int(value)
    else:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and out < low:
        rule = "nonnegative" if low == 0 else f">= {low}"
        raise ValueError(f"{name} must be {rule}, got {out}")
    return out


def _normalized(x: np.ndarray) -> np.ndarray:
    """Clamp negatives to 0 and renormalize each vector along the last axis."""
    x = np.clip(x, 0.0, None)
    return x / np.sum(x, axis=-1, keepdims=True)


class JumpLinearSystem(_ReadOnly):
    """Finite collection of mode matrices A_1 .. A_m acting on R^n, all
    square and of one size, stored as a read-only (m, n, n) float64
    array; ``names`` gives one label per mode, or None."""

    def __init__(self, modes, names=None):
        mats = [as_square(a, f"mode {j + 1}") for j, a in enumerate(modes)]
        if not mats:
            raise ValueError("system needs at least one mode")
        n = mats[0].shape[0]
        for j, a in enumerate(mats):
            if a.shape != (n, n):
                raise ValueError(
                    f"mode {j + 1} has shape {a.shape}, expected ({n}, {n})"
                )
        if isinstance(names, str):
            raise ValueError(f"names must be a sequence of str, got {names!r}")
        if names is not None:
            names = tuple(names)
            for j, name in enumerate(names):
                if not isinstance(name, str):
                    raise ValueError(
                        f"name {j + 1} must be a string, got {name!r}"
                    )
            if len(names) != len(mats):
                raise ValueError(f"{len(names)} names for {len(mats)} modes")
        _freeze(self, modes=np.array(mats), names=names)

    @property
    def m(self) -> int:
        """Number of modes."""
        return self.modes.shape[0]

    @property
    def n(self) -> int:
        """State dimension."""
        return self.modes.shape[1]


class GaussianMixture(_ReadOnly):
    """Gaussian mixture stored as stacked arrays: weights (q,), means
    (q, n) and covs (q, n, n), so propagation stays vectorized as the
    component count grows. :meth:`from_components` builds one from
    per-component values."""

    def __init__(self, weights, means, covs):
        w = as_matrix(weights, "mixture weights", 1)
        means = as_matrix(means, "means", 2)
        covs = as_matrix(covs, "covs", 3)
        q, n = means.shape
        if w.shape != (q,) or covs.shape != (q, n, n):
            raise ValueError(
                f"inconsistent mixture shapes: weights {w.shape}, "
                f"means {means.shape}, covs {covs.shape}"
            )
        _freeze(self, weights=w, means=means, covs=covs)

    @classmethod
    def from_components(cls, components: Iterable) -> "GaussianMixture":
        """Build from (weight, mean, cov) triples; ``ValueError`` when a
        triple is malformed or the triples disagree in dimension."""
        comps = list(components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        try:
            weights, means, covs = (_as_floats(part, "components")
                                    for part in zip(*comps, strict=True))
        except ValueError as exc:
            raise ValueError(f"malformed mixture components: {exc}") from exc
        return cls(weights=weights, means=means, covs=covs)

    @property
    def q(self) -> int:
        """Component count."""
        return self.weights.size

    @property
    def n(self) -> int:
        """State dimension."""
        return self.means.shape[1]


def _proved_psd(sym: np.ndarray, slack: np.ndarray) -> bool:
    """Whether one Cholesky factor of the (q, n, n) stack sym + slack/2 I
    exists with finite pivots: a pivot that overflows proves nothing."""
    if sym.shape[-1] > _PROOF_MAX_N:
        return False
    with np.errstate(over="ignore"):
        shifted = sym + (slack * 0.5)[:, None, None] * np.eye(sym.shape[-1])
    try:
        pivots = np.diagonal(np.linalg.cholesky(shifted), 0, 1, 2)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(pivots).all())


def check_mixture(mix: GaussianMixture) -> list[str]:
    """Value-level violations: weight signs and sum, symmetric PSD covs.

    A covariance is PSD when the smallest eigenvalue of its symmetric
    part S is at least -slack, slack = PSD_TOL max(1, max|S|). One
    batched Cholesky factor of S + slack/2 I proves every covariance
    within it, as ``systemfile._cleared`` does: up to (n+1)^2 u max|S|
    of rounding, far inside the slack/2 left for eigvalsh's. Only when
    that fails, or past ``_PROOF_MAX_N`` rows, does eigvalsh find and
    word the violations.
    """
    out = _weight_violations(mix.weights.tolist())
    # the difference of halved entries, half the asymmetry, stays finite
    half = mix.covs * 0.5
    half_asym = np.max(np.abs(half - np.transpose(half, (0, 2, 1))),
                       axis=(1, 2))
    for i in np.where(half_asym > _psd_slack(mix.covs) * 0.5)[0]:
        size = (f"{2.0 * half_asym[i]:.3e}" if half_asym[i] <= _HALF_MAX
                else f"above {2.0 * _HALF_MAX:.3e}")
        out.append(
            f"component {i + 1} covariance is not symmetric: largest "
            f"asymmetry {size}"
        )
    sym = _sym_part(mix.covs)
    slack = _psd_slack(sym)
    if _proved_psd(sym, slack):
        return out
    eigs = np.linalg.eigvalsh(sym)
    for i in np.where(eigs[:, 0] < -slack)[0]:
        out.append(
            f"component {i + 1} covariance is not PSD: smallest eigenvalue "
            f"{eigs[i, 0]:.3e}"
        )
    return out


class IIDSwitching(_ReadOnly):
    """Modes drawn independently at every step from a fixed vector pi:
    ``m`` is its length, and every step's weights are pi, normalized."""

    def __init__(self, pi):
        pi = as_matrix(pi, "pi", 1)
        _freeze(self, pi=pi, m=pi.size)

    _settle = 1

    def _chain(self, m: int):
        pair = np.ones((1, m)), _normalized(self.pi)[None]
        return lambda k: pair


class MarkovSwitching(_ReadOnly):
    """Time-homogeneous Markov chain, transition matrix P and initial pi0,
    the law of the mode before step 1: ``m`` is the size of P, and the
    chain's states are its modes, weights = I, mix = pi0 P then P."""

    def __init__(self, P, pi0):
        p = as_square(P, "P")
        pi0 = as_matrix(pi0, "pi0", 1)
        if pi0.size != p.shape[0]:
            raise ValueError(
                f"pi0 has length {pi0.size}, P is {p.shape[0]}x{p.shape[0]}"
            )
        _freeze(self, P=p, pi0=pi0, m=p.shape[0])

    _settle = 2

    def _chain(self, m: int):
        p, eye = _normalized(self.P), np.eye(m)
        first, later = ((_normalized(self.pi0) @ p)[None], eye), (p, eye)
        return lambda k: first if k == 1 else later


class ScheduleSwitching(_ReadOnly):
    """Explicit per-step occupation vectors pi(1), pi(2), ... of length
    ``m``. Step k's weights are vector k, normalized; beyond the stored
    horizon the last one repeats."""

    def __init__(self, vectors):
        v = as_matrix(vectors, "schedule")
        _freeze(self, vectors=v, m=v.shape[1])

    @property
    def _settle(self) -> int:
        return len(self.vectors)

    def _chain(self, m: int):
        one, rows = np.ones((1, m)), _normalized(self.vectors)[:, None]
        return lambda k: (one, rows[min(k, len(rows)) - 1])


class SequenceSwitching(_ReadOnly):
    """Deterministic mode sequence i_1, i_2, ... with 1-based indices.

    Beyond the stored length the sequence repeats cyclically, treating the
    stored indices as one period. The indices do not fix the mode count,
    so ``m`` is None, and step k's weights are the indicator of i_k among
    the m modes that the caller gives."""

    def __init__(self, indices):
        try:
            idx = tuple(_as_int(i, f"index {j}")
                        for j, i in enumerate(indices, 1))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"sequence indices must be integers: {exc}")
        if not idx:
            raise ValueError("sequence must be nonempty")
        _freeze(self, indices=idx, m=None)

    def _chain(self, m: int):
        one, eye, idx = np.ones((1, m)), np.eye(m)[:, None], self.indices
        return lambda k: (one, eye[idx[(k - 1) % len(idx)] - 1])


#: Each law class by its "type" in a system file
_KINDS = {"iid": IIDSwitching, "markov": MarkovSwitching,
          "schedule": ScheduleSwitching, "sequence": SequenceSwitching}
_LAWS = tuple(_KINDS.values())
SwitchingLaw = Union[_LAWS]


def check_law(law: SwitchingLaw, m: int) -> list[str]:
    """Value-level violations of a switching law against mode count m."""
    if not isinstance(law, _LAWS):
        return [f"unknown switching law {type(law).__name__}"]
    kind = next(k for k, cls in _KINDS.items() if isinstance(law, cls))
    return _law_violations({"type": kind, **{
        f: np.asarray(getattr(law, f)).tolist() for f in _LAW_FIELDS[kind]
    }}, m)


def validate_system(sys: JumpLinearSystem, law: SwitchingLaw,
                    init: GaussianMixture) -> ValidationReport:
    """Collect every violated invariant across a system / law / mixture triple:
    probability sums, row stochasticity, PSD covariances, sequence index
    ranges and dimensional consistency. Never raises."""
    violations = list(check_law(law, sys.m))
    violations += check_mixture(init)
    if init.n != sys.n:
        violations.append(
            f"initial mixture has dimension {init.n}, system has n={sys.n}"
        )
    return ValidationReport(tuple(violations))


def marginal_schedule(law: SwitchingLaw, k_max: int,
                      m: int = None) -> np.ndarray:
    """Per-step mode marginals pi(1) .. pi(k_max) as a (k_max, m) array.

    The rows are those of ``_marginals``: IID laws repeat pi; Markov laws
    evolve pi(k) = pi0 P^k; schedules return their stored vectors,
    repeating the last one beyond the stored horizon; sequences yield
    exact indicator vectors, cycling through the stored period. No
    library code builds this table. ``k_max`` = 0 yields a (0, m) array.
    The mode count ``m`` is required for a sequence law, whose indices do
    not fix it, and read from the law otherwise. Raises ``ValueError`` if
    the law is invalid, k_max is negative, or m is missing or
    inconsistent.
    """
    k_max = _as_int(k_max, "k_max", 0)
    if not isinstance(law, _LAWS):
        raise TypeError(f"unknown switching law {type(law).__name__}")
    if m is None and law.m is None:
        raise ValueError(
            "m is required for Sequence laws: the index list does not "
            "determine the mode count"
        )
    m = law.m if m is None else _as_int(m, "m")
    if law.m is not None and m != law.m:
        raise ValueError(f"m={m} inconsistent with law mode count {law.m}")
    _reject(check_law(law, m))
    return np.fromiter(_marginals(law, k_max, m), np.dtype((float, (m,))),
                       k_max)


def _marginals(law: SwitchingLaw, k_max: int, m: int):
    """Yield the mode marginals pi(1) .. pi(k_max) of a law checked against
    m modes from its chain form: pi(k) = d(k) weights for the state law
    d(k) = d(k-1) mix weights^T normalized, d(0) = 1. With one state d(k)
    is exactly 1; for a Markov law pi(k) = d(k) = pi(k-1) P, normalized."""
    d, pair = np.ones(1), law._chain(m)
    for k in range(1, k_max + 1):
        mix, weights = pair(k)
        d = _normalized(d @ mix @ weights.T)
        yield d @ weights
