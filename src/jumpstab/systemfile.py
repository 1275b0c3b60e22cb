"""Read system descriptions from UTF-8 JSON files.

A system file bundles everything one analysis needs: the mode matrices,
the switching law, and the initial Gaussian mixture.  All matrices are
row-major nested arrays.  The schema:

    {
      "n": 2,
      "modes": {"slow": [[0.5, 0.0], [0.0, 0.5]], "fast": [[...], [...]]},
      "switching": {"type": "iid", "pi": [0.5, 0.5]},
      "initial": [{"weight": 1.0, "mean": [1.0, 0.0],
                   "cov": [[0.1, 0.0], [0.0, 0.1]]}]
    }

The ``switching`` object is a tagged union over the four law kinds:

    {"type": "iid",      "pi": [...]}
    {"type": "markov",   "P": [[...], ...], "pi0": [...]}
    {"type": "schedule", "vectors": [[...], ...]}
    {"type": "sequence", "indices": [1, 2, ...]}

Mode order follows key order in the ``modes`` object, and the names are
not kept; sequence indices are 1-based references into that order.

This module is the one reader of a system file; it loads numpy only to
build the arrays.  Structural errors (shapes, types, field names, a key
repeated within one object) raise ``SystemFileError`` naming the field.
Value checks run in plain Python, by the rules ``sysmodel`` calls, in
``validate_system``'s order: each sum is ``math.fsum``'s, correctly
rounded; for covariances see ``_cleared``.
"""

from __future__ import annotations

import json
import math
from operator import mul
from typing import NamedTuple

from .defaults import CLAMP_TOL, PROB_TOL, PSD_TOL

__all__ = ["SystemFile", "SystemFileError", "ValidationReport",
           "load_system_file"]

#: The fields of each switching law, after its "type"
_LAW_FIELDS = {"iid": ("pi",), "markov": ("P", "pi0"),
               "schedule": ("vectors",), "sequence": ("indices",)}

#: Largest covariance the reader factors: about 3 ms at 64 rows, against
#: numpy's 60-70 ms import on a 2-core x86 host
_FACTOR_MAX_N = 64


class SystemFileError(ValueError):
    """A system description file does not match the schema."""


class ValidationReport(NamedTuple):
    """Every violated invariant found by validate_system (empty = valid)."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "\n".join(f"violation: {v}" for v in self.violations) or "OK"


def _as_float(value, where):
    # bool is an int subclass; JSON true/false must not pass as numbers
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SystemFileError(f"{where} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer too large for a float
        raise SystemFileError(f"{where} is beyond the float range") from None
    if not math.isfinite(out):
        raise SystemFileError(f"{where} must be finite, got {value!r}")
    return out


def _as_vector(value, where, length=None, row=None):
    """A JSON array of numbers as floats.  An entry's location, ``<where>
    row <row>`` in a matrix and ``<where>[i]`` in a vector, is formatted
    only for an entry that is rejected or not a plain int or float."""
    if not isinstance(value, list) or not value:
        raise SystemFileError(f"{where} must be a nonempty array")
    if length is not None and len(value) != length:
        raise SystemFileError(
            f"{where} has length {len(value)}, expected {length}"
        )
    if {type(x) for x in value} <= {int, float}:
        try:
            out = list(map(float, value))
        except OverflowError:  # an int past the float range
            out = [math.inf]
        if all(map(math.isfinite, out)):
            return out
    return [_as_float(x, f"{where} row {row}" if row else f"{where}[{i}]")
            for i, x in enumerate(value)]


def _as_matrix(value, where, rows=None, cols=None):
    if not isinstance(value, list) or not value:
        raise SystemFileError(f"{where} must be a nonempty array of rows")
    if rows is not None and len(value) != rows:
        raise SystemFileError(
            f"{where} has {len(value)} rows, expected {rows}"
        )
    width, out = cols, []
    for i, row in enumerate(value, 1):
        if not isinstance(row, list) or not row:
            raise SystemFileError(f"{where} row {i} must be a nonempty array")
        width = width or len(row)
        if len(row) != width:
            raise SystemFileError(
                f"{where} row {i} has length {len(row)}, expected {width}"
            )
        out.append(_as_vector(row, where, row=i))
    return out


def _require_keys(obj, where, required):
    if not isinstance(obj, dict):
        raise SystemFileError(f"{where} must be an object")
    for key in required:
        if key not in obj:
            raise SystemFileError(f"{where} is missing field '{key}'")
    for key in obj:
        if key not in required:
            raise SystemFileError(f"{where} has unknown field '{key}'")


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        dup = next(key for key in keys if keys.count(key) > 1)
        raise SystemFileError(f"duplicate key '{dup}'")
    return obj


def _parse_switching(obj) -> dict:
    """The switching object, every probability a float."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise SystemFileError(
            "switching must be an object with a 'type' field"
        )
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _LAW_FIELDS:
        raise SystemFileError(
            f"switching.type must be one of 'iid', 'markov', 'schedule', "
            f"'sequence', got {kind!r}"
        )
    _require_keys(obj, "switching", ("type",) + _LAW_FIELDS[kind])
    if kind == "iid":
        return {"type": kind, "pi": _as_vector(obj["pi"], "switching.pi")}
    if kind == "markov":
        p = _as_matrix(obj["P"], "switching.P")
        if len(p) != len(p[0]):
            raise SystemFileError(
                f"switching.P must be square, got {len(p)}x{len(p[0])}"
            )
        return {"type": kind, "P": p,
                "pi0": _as_vector(obj["pi0"], "switching.pi0", len(p))}
    if kind == "schedule":
        return {"type": kind,
                "vectors": _as_matrix(obj["vectors"], "switching.vectors")}
    raw = obj["indices"]
    if not isinstance(raw, list) or not raw:
        raise SystemFileError("switching.indices must be a nonempty array")
    for i, x in enumerate(raw):
        if isinstance(x, bool) or not isinstance(x, int):
            raise SystemFileError(
                f"switching.indices[{i}] must be an integer, got {x!r}"
            )
    return {"type": kind, "indices": raw}


def _sum_violations(x, name: str) -> list[str]:
    """The violation of a list of floats whose sum, correctly rounded by
    ``math.fsum`` (on x scaled down if a partial sum would overflow), is
    not 1 within PROB_TOL."""
    try:
        s = math.fsum(x)
    except OverflowError:  # a partial sum passed the float range
        s = math.fsum(v * 2.0**-64 for v in x) * 2.0**64
    return [] if abs(s - 1.0) <= PROB_TOL else [
        f"{name}: probability sum {s:.12g} != 1"]


def _probability_violations(x, name: str) -> list[str]:
    """Violations of a probability vector, a nonempty list of floats:
    entries in [0, 1] up to CLAMP_TOL, sum 1 within PROB_TOL."""
    low, high = min(x), max(x)
    out = [] if -CLAMP_TOL <= low and high <= 1.0 + CLAMP_TOL else [
        f"{name}: entries must lie in [0, 1], got range "
        f"[{low:.12g}, {high:.12g}]"]
    return out + _sum_violations(x, name)


def _law_violations(law: dict, m: int) -> list[str]:
    """Value violations of a switching law's file object against m modes."""
    kind = law["type"]
    if kind == "sequence":
        bad = sorted({i for i in law["indices"] if not 1 <= i <= m})
        return [f"sequence indices {bad} outside [1..{m}]"] if bad else []
    if kind == "schedule":
        width = len(law["vectors"][0])
        out = [] if width == m else [
            f"schedule vectors have length {width} for {m} modes"]
        for k, row in enumerate(law["vectors"], 1):
            out += _probability_violations(row, f"schedule step {k}")
        return out
    if kind == "iid":
        out = [] if len(law["pi"]) == m else [
            f"switching pi has length {len(law['pi'])} for {m} modes"]
        return out + _probability_violations(law["pi"], "switching pi")
    k = len(law["P"])
    out = [] if k == m else [f"switching P is {k}x{k} for {m} modes"]
    for i, row in enumerate(law["P"], 1):
        out += _probability_violations(row, f"switching P row {i}")
    return out + _probability_violations(law["pi0"], "switching pi0")


def _weight_violations(weights) -> list[str]:
    """Violations of mixture weights, a list of floats: each positive,
    sum 1 within PROB_TOL."""
    low = min(weights)
    out = [] if low > 0.0 else [
        f"mixture weights must be positive, got minimum {low:.12g}"]
    return out + _sum_violations(weights, "mixture weights")


def _cleared(cov) -> bool:
    """Whether ``check_mixture`` passes a covariance given as float rows,
    proved without numpy by the proof it makes in numpy; False decides
    nothing, and ``check_mixture`` then asks eigvalsh.  The symmetry
    test repeats its float operations.  With S the symmetric part and
    slack = PSD_TOL max(1, max|S|), a Cholesky factor of S + slack/2 I
    with finite pivots shows lambda_min(S) >= -slack/2 up to about
    (n+1)^2 u max|S|, far inside the slack/2 left for eigvalsh's
    rounding; a pivot that overflows to inf would factor the rest as if
    decoupled, so it proves nothing."""
    half = [[x * 0.5 for x in row] for row in cov]
    pairs = [list(zip(row, col)) for row, col in zip(half, zip(*half))]
    bound = PSD_TOL * max(1.0, max(max(map(abs, row)) for row in cov)) * 0.5
    if len(cov) > _FACTOR_MAX_N or any(
            abs(a - b) > bound for row in pairs for a, b in row):
        return False
    sym = [[a + b for a, b in row] for row in pairs]
    shift = PSD_TOL * max(1.0, max(max(map(abs, row)) for row in sym)) * 0.5
    factor = []
    for i in range(len(cov)):
        row = []
        for j in range(i):
            row.append((sym[i][j] - sum(map(mul, row, factor[j])))
                       / factor[j][j])
        pivot = sym[i][i] + shift - sum(map(mul, row, row))
        if not 0.0 < pivot < math.inf:  # an overflow proves nothing
            return False
        row.append(math.sqrt(pivot))
        factor.append(row)
    return True


class SystemFile(NamedTuple):
    """Parsed system description: dynamics, switching law, initial mixture."""

    system: JumpLinearSystem
    switching: SwitchingLaw
    initial: GaussianMixture


def _report(modes, law, initial) -> ValidationReport:
    """The violations validate_system reports on ``_build``'s objects."""
    out = _law_violations(law, len(modes))
    if all(_cleared(cov) for _, _, cov in initial):
        out += _weight_violations([w for w, _, _ in initial])
    else:
        from .sysmodel import GaussianMixture, check_mixture

        out += check_mixture(GaussianMixture.from_components(initial))
    return ValidationReport(tuple(out))


def _build(modes, law, initial) -> SystemFile:
    """The numpy objects of a decoded file: the modes and each law field
    reach their constructor as one float64 array, the start as its
    (weight, mean, cov) triples."""
    import numpy as np

    from . import sysmodel

    return SystemFile(
        sysmodel.JumpLinearSystem(np.array(list(modes.values()))),
        sysmodel._KINDS[law["type"]](*(
            law[f] if f == "indices" else np.array(law[f])
            for f in _LAW_FIELDS[law["type"]])),
        sysmodel.GaussianMixture.from_components(initial),
    )


def _decode(data) -> tuple:
    """The fields of a system file object after the structural checks,
    numbers as floats: mode rows by name, the switching object and the
    initial (weight, mean, cov) components."""
    _require_keys(data, "system file", ("n", "modes", "switching", "initial"))
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SystemFileError(f"n must be a positive integer, got {n!r}")
    modes = data["modes"]
    if not isinstance(modes, dict) or not modes:
        raise SystemFileError(
            "modes must be a nonempty object of named matrices"
        )
    modes = {name: _as_matrix(mat, f"mode '{name}'", rows=n, cols=n)
             for name, mat in modes.items()}
    law = _parse_switching(data["switching"])
    if not isinstance(data["initial"], list) or not data["initial"]:
        raise SystemFileError("initial must be a nonempty array of components")
    initial = []
    for i, comp in enumerate(data["initial"]):
        where = f"initial[{i}]"
        _require_keys(comp, where, ("weight", "mean", "cov"))
        initial.append((_as_float(comp["weight"], f"{where}.weight"),
                        _as_vector(comp["mean"], f"{where}.mean", n),
                        _as_matrix(comp["cov"], f"{where}.cov", n, n)))
    return modes, law, initial


def _read(path) -> tuple:
    """Decode and structurally check a file, raising as load_system_file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise SystemFileError(f"invalid UTF-8: {exc.reason}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SystemFileError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except SystemFileError:
        raise
    except (ValueError, RecursionError) as exc:  # digit limit, deep nesting
        raise SystemFileError(f"invalid JSON: {exc}") from exc
    return _decode(data)


def load_system_file(path) -> SystemFile:
    """Parse a JSON system file into its numpy objects, checking the schema
    but not the values (see ``validate_system``).  ``SystemFileError`` on
    text not UTF-8, malformed JSON (with line and column where the parser
    gives them), a key repeated within one object or a schema violation;
    ``OSError`` if the file cannot be read."""
    return _build(*_read(path))
