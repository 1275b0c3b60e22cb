"""Domain types for jump linear systems, switching laws, and Gaussian mixtures.

The system, law and mixture types are plain read-only classes whose
``__init__`` checks its arguments and stores them through ``_freeze``;
results are ``NamedTuple`` records. Assigning or deleting a field of
either raises ``AttributeError``.

Construction enforces structural soundness only (int or float entries,
shapes, finiteness, nonemptiness); value-level invariants such as
probability sums, row stochasticity, PSD covariances, and cross-object
dimensional consistency are checked by :func:`validate_system`, which
collects every violation into a report. This split lets the validator
report a broken input instead of refusing to build it.

Each switching law owns its mode count ``m`` (None for a sequence, whose
indices do not fix it), the checks of its values against a mode count,
and the rows pi(1), pi(2), ... of its per-step mode marginals, which the
routes read one step at a time; a row may be yielded again, so none is to
be written.

Each public operation checks its inputs on entry, raising
``ValueError``. Values derived from checked inputs (normalized marginals,
propagated mixtures) are not checked again; tests pin their invariants.

Mode indices are 1-based in all user-facing values (sequences, messages),
matching the convention for ``A_1 .. A_m``; internal array indexing is
0-based.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Union

import numpy as np

from .matkit import _as_floats, _psd_slack, _sym_part, as_square

__all__ = [
    "JumpLinearSystem",
    "GaussianMixture",
    "IIDSwitching",
    "MarkovSwitching",
    "ScheduleSwitching",
    "SequenceSwitching",
    "SwitchingLaw",
    "ValidationReport",
    "StationaryResult",
    "validate_system",
    "marginal_schedule",
    "stationary_distribution",
    "check_probability_vector",
    "check_transition_matrix",
    "as_probability_vector",
]

#: Probability sums may deviate from 1 by this much and are renormalized.
PROB_TOL = 1e-9

#: Negative probabilities above this floor are treated as roundoff and clamped.
CLAMP_TOL = 1e-12

#: Half the largest float64: a halved asymmetry above it cannot be doubled.
_HALF_MAX = np.finfo(float).max / 2


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


def _as_int(value, name: str) -> int:
    """``value`` as an int: ints, numpy integers and floats of integral
    value pass; bools, strings and other values raise ``ValueError``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _vector(v, name: str) -> np.ndarray:
    x = _as_floats(v, name)
    if x.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={x.ndim}")
    if x.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def check_probability_vector(v, name: str = "probabilities") -> list[str]:
    """Return the list of probability-vector violations (empty if valid).

    Entries must lie in [0, 1] up to roundoff slack and sum to 1 within
    1e-9.
    """
    try:
        x = _vector(v, name)
    except ValueError as exc:
        return [str(exc)]
    out = []
    if np.min(x) < -CLAMP_TOL or np.max(x) > 1.0 + CLAMP_TOL:
        out.append(
            f"{name}: entries must lie in [0, 1], got range "
            f"[{np.min(x):.12g}, {np.max(x):.12g}]"
        )
    s = float(np.sum(x))
    if abs(s - 1.0) > PROB_TOL:
        out.append(f"{name}: probability sum {s:.12g} != 1")
    return out


def as_probability_vector(v, name: str = "probabilities") -> np.ndarray:
    """Validate, clamp roundoff negatives to 0, and renormalize to sum 1.

    Raises ``ValueError`` listing the violations if the vector is invalid
    beyond tolerance.
    """
    _reject(check_probability_vector(v, name))
    return _normalized(np.asarray(v, dtype=float))


def _normalized(x: np.ndarray) -> np.ndarray:
    """Clamp negatives to 0 and renormalize each vector along the last axis."""
    x = np.clip(x, 0.0, None)
    return x / np.sum(x, axis=-1, keepdims=True)


def check_transition_matrix(p, name: str = "P") -> list[str]:
    """Row-stochasticity violations of a square matrix (empty if valid)."""
    try:
        mat = as_square(p, name)
    except ValueError as exc:
        return [str(exc)]
    out = []
    for i, row in enumerate(mat):
        for msg in check_probability_vector(row, f"{name} row {i + 1}"):
            out.append(msg)
    return out


class JumpLinearSystem(_ReadOnly):
    """Finite collection of mode matrices A_1 .. A_m acting on R^n.

    Parameters
    ----------
    modes : sequence of (n, n) array_like
        The mode dynamics matrices, all square and of equal size.
    names : sequence of str, optional
        Mode labels, one per mode; None when the caller gives none.

    The stacked array is stored as a read-only (m, n, n) float64 array.
    """

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
                raise ValueError(
                    f"{len(names)} names for {len(mats)} modes"
                )
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
    """Gaussian mixture stored as stacked arrays.

    Parameters
    ----------
    weights : (q,) array_like
    means : (q, n) array_like
    covs : (q, n, n) array_like

    Stacked storage keeps propagation vectorized when the component count
    grows geometrically. Use :meth:`from_components` to build from
    per-component values.
    """

    def __init__(self, weights, means, covs):
        w = _vector(weights, "mixture weights")
        means = _as_floats(means, "means")
        covs = _as_floats(covs, "covs")
        if means.ndim != 2:
            raise ValueError(f"means must be (q, n), got ndim={means.ndim}")
        if covs.ndim != 3 or covs.shape[1] != covs.shape[2]:
            raise ValueError(
                f"covs must be (q, n, n), got shape {covs.shape}"
            )
        q, n = means.shape
        if n == 0:
            raise ValueError("mixture dimension must be positive")
        if w.size != q or covs.shape[0] != q or covs.shape[1] != n:
            raise ValueError(
                f"inconsistent mixture shapes: weights {w.shape}, "
                f"means {means.shape}, covs {covs.shape}"
            )
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(covs))):
            raise ValueError("mixture contains non-finite entries")
        _freeze(self, weights=w, means=means, covs=covs)

    @classmethod
    def from_components(cls, components: Iterable) -> "GaussianMixture":
        """Build from (weight, mean, cov) triples.

        Raises ``ValueError`` when a triple is malformed or the triples
        disagree in dimension.
        """
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


def check_mixture(mix: GaussianMixture) -> list[str]:
    """Value-level violations: weight signs and sum, symmetric PSD covs."""
    out = []
    if np.min(mix.weights) <= 0.0:
        out.append(
            f"mixture weights must be positive, got minimum "
            f"{np.min(mix.weights):.12g}"
        )
    s = float(np.sum(mix.weights))
    if abs(s - 1.0) > PROB_TOL:
        out.append(f"mixture weights: probability sum {s:.12g} != 1")
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
    eigs = np.linalg.eigvalsh(sym)
    bad = np.where(eigs[:, 0] < -_psd_slack(sym))[0]
    for i in bad:
        out.append(
            f"component {i + 1} covariance is not PSD: smallest eigenvalue "
            f"{eigs[i, 0]:.3e}"
        )
    return out


class IIDSwitching(_ReadOnly):
    """Modes drawn independently at every step from a fixed vector pi:
    ``m`` is its length, and every step's row is pi, normalized."""

    def __init__(self, pi):
        pi = _vector(pi, "pi")
        _freeze(self, pi=pi, m=pi.size)

    def _violations(self, m: int) -> list[str]:
        out = [] if self.m == m else [
            f"switching pi has length {self.m} for {m} modes"]
        return out + check_probability_vector(self.pi, "switching pi")

    def _rows(self, k_max: int, m: int):
        return itertools.repeat(_normalized(self.pi), k_max)


class MarkovSwitching(_ReadOnly):
    """Time-homogeneous Markov chain, transition matrix P and initial pi0:
    ``m`` is the size of P, and step k's row is pi0 P^k, normalized."""

    def __init__(self, P, pi0):
        p = as_square(P, "P")
        pi0 = _vector(pi0, "pi0")
        if pi0.size != p.shape[0]:
            raise ValueError(
                f"pi0 has length {pi0.size}, P is {p.shape[0]}x{p.shape[0]}"
            )
        _freeze(self, P=p, pi0=pi0, m=p.shape[0])

    def _violations(self, m: int) -> list[str]:
        out = [] if self.m == m else [
            f"switching P is {self.m}x{self.P.shape[1]} for {m} modes"]
        out += check_transition_matrix(self.P, "switching P")
        return out + check_probability_vector(self.pi0, "switching pi0")

    def _rows(self, k_max: int, m: int):
        pi, p = _normalized(self.pi0), _normalized(self.P)
        for _ in range(k_max):
            pi = _normalized(pi @ p)
            yield pi


class ScheduleSwitching(_ReadOnly):
    """Explicit per-step occupation vectors pi(1), pi(2), ... of length
    ``m``. The rows are the vectors, normalized; beyond the stored horizon
    the last one repeats."""

    def __init__(self, vectors):
        v = _as_floats(vectors, "schedule")
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
            raise ValueError(
                f"schedule must be a nonempty list of vectors, got shape "
                f"{v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("schedule contains non-finite entries")
        _freeze(self, vectors=v, m=v.shape[1])

    def _violations(self, m: int) -> list[str]:
        out = [] if self.m == m else [
            f"schedule vectors have length {self.m} for {m} modes"]
        for k, row in enumerate(self.vectors):
            out += check_probability_vector(row, f"schedule step {k + 1}")
        return out

    def _rows(self, k_max: int, m: int):
        rows = _normalized(self.vectors)
        for k in range(k_max):
            yield rows[min(k, len(rows) - 1)]


class SequenceSwitching(_ReadOnly):
    """Deterministic mode sequence i_1, i_2, ... with 1-based indices.

    Beyond the stored length the sequence repeats cyclically, treating the
    stored indices as one period. The indices do not fix the mode count,
    so ``m`` is None, and step k's row is the indicator of i_k among the m
    modes that the caller gives."""

    def __init__(self, indices):
        try:
            idx = tuple(_as_int(i, f"index {j}")
                        for j, i in enumerate(indices, 1))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"sequence indices must be integers: {exc}")
        if not idx:
            raise ValueError("sequence must be nonempty")
        _freeze(self, indices=idx, m=None)

    def _violations(self, m: int) -> list[str]:
        bad = sorted({i for i in self.indices if not 1 <= i <= m})
        return [f"sequence indices {bad} outside [1..{m}]"] if bad else []

    def _rows(self, k_max: int, m: int):
        eye = np.eye(m)
        for k in range(k_max):
            yield eye[self.indices[k % len(self.indices)] - 1]


_LAWS = (IIDSwitching, MarkovSwitching, ScheduleSwitching, SequenceSwitching)
SwitchingLaw = Union[_LAWS]


def check_law(law: SwitchingLaw, m: int) -> list[str]:
    """Value-level violations of a switching law against mode count m."""
    if not isinstance(law, _LAWS):
        return [f"unknown switching law {type(law).__name__}"]
    return law._violations(m)


class ValidationReport(NamedTuple):
    """Every violated invariant found by validate_system (empty = valid)."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "OK"
        return "\n".join(f"violation: {v}" for v in self.violations)


def validate_system(
    sys: JumpLinearSystem,
    law: SwitchingLaw,
    init: GaussianMixture,
) -> ValidationReport:
    """Collect every violated invariant across a system / law / mixture triple.

    Checks value-level invariants (probability sums, row stochasticity,
    PSD covariances, sequence index ranges) and dimensional consistency
    between the three objects. Structural soundness is already enforced
    by the constructors. Never raises; the report carries the failures.
    """
    violations = list(check_law(law, sys.m))
    violations += check_mixture(init)
    if init.n != sys.n:
        violations.append(
            f"initial mixture has dimension {init.n}, system has n={sys.n}"
        )
    return ValidationReport(tuple(violations))


def marginal_schedule(
    law: SwitchingLaw, k_max: int, m: int = None
) -> np.ndarray:
    """Per-step mode marginals pi(1) .. pi(k_max) as a (k_max, m) array.

    The rows are those each law steps the routes with: IID laws repeat
    pi; Markov laws evolve pi(k) = pi0 P^k; schedules return their stored
    vectors, repeating the last one beyond the stored horizon; sequences
    yield exact indicator vectors, cycling through the stored period.
    No library code builds this table: the routes, gamma_product and
    Monte Carlo read the rows one step at a time.

    Parameters
    ----------
    law : SwitchingLaw
    k_max : int
        Number of steps. Zero yields an empty (0, m) array.
    m : int, optional
        Mode count; required for Sequence laws (a bare index list does
        not determine it), inferred from the law otherwise.

    Raises
    ------
    ValueError
        If the law is invalid, k_max is negative, or m is missing or
        inconsistent.
    """
    k_max = _as_int(k_max, "k_max")
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
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
    return np.fromiter(law._rows(k_max, m), np.dtype((float, (m,))), k_max)


class StationaryResult(NamedTuple):
    """Outcome of a stationary-distribution search.

    status is "unique" (single eigenvalue-1 direction, residual below
    tolerance), "non-unique" (eigenvalue-1 eigenspace of dimension > 1;
    ``vector`` is one valid choice), or "none-found" (no usable
    probability eigenvector). ``residual`` is the achieved
    ``max |pi P - pi|`` when a vector is returned.
    """

    status: str
    vector: np.ndarray = None
    residual: float = None


def stationary_distribution(P) -> StationaryResult:
    """Left eigenvector of a row-stochastic P for eigenvalue 1.

    Eigenvalues within ``PROB_TOL`` of 1 define the candidate space; candidate
    eigenvectors are realified, clipped, and normalized to probability
    vectors, and the one with the smallest stationarity residual is
    returned.

    Raises
    ------
    ValueError
        If P is not row-stochastic within tolerance.
    """
    _reject(check_transition_matrix(P, "P"))
    p = np.asarray(P, dtype=float)
    w, v = np.linalg.eig(p.T)
    near_one = np.where(np.abs(w - 1.0) < PROB_TOL)[0]
    if near_one.size == 0:
        return StationaryResult("none-found")
    best = None
    for i in near_one:
        cand = np.real(v[:, i])
        s = float(np.sum(cand))
        if abs(s) < 1e-12:
            continue
        cand = np.clip(cand / s, 0.0, None)
        total = float(np.sum(cand))
        if total <= 0.0:
            continue
        cand = cand / total
        residual = float(np.max(np.abs(cand @ p - cand)))
        if best is None or residual < best[1]:
            best = (cand, residual)
    if best is None or best[1] >= PROB_TOL:
        return StationaryResult("none-found")
    status = "unique" if near_one.size == 1 else "non-unique"
    return StationaryResult(status, best[0], best[1])
