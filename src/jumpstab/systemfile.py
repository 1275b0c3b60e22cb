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

Mode order follows key order in the ``modes`` object; sequence indices
are 1-based references into that order.

Parsing is structural: shapes, types, and field names are enforced here
with errors naming the offending field, while value-level requirements
(probability sums, PSD covariances, index ranges) are left to
``validate_system`` so a validation pass can report every violation at
once instead of stopping at the first.  A key repeated within one object
is an error, not a silent overwrite.  Each numeric field reaches its
constructor as one float64 array that already has the shape it needs.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .sysmodel import (
    GaussianMixture,
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    SwitchingLaw,
)

__all__ = ["SystemFile", "SystemFileError", "load_system_file"]


class SystemFileError(ValueError):
    """A system description file does not match the schema."""


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


def _as_vector(value, where, length=None):
    if not isinstance(value, list) or not value:
        raise SystemFileError(f"{where} must be a nonempty array")
    if length is not None and len(value) != length:
        raise SystemFileError(
            f"{where} has length {len(value)}, expected {length}"
        )
    return np.array(
        [_as_float(x, f"{where}[{i}]") for i, x in enumerate(value)]
    )


def _as_matrix(value, where, rows=None, cols=None):
    if not isinstance(value, list) or not value:
        raise SystemFileError(f"{where} must be a nonempty array of rows")
    if rows is not None and len(value) != rows:
        raise SystemFileError(
            f"{where} has {len(value)} rows, expected {rows}"
        )
    width = cols
    out = []
    for i, row in enumerate(value, 1):
        if not isinstance(row, list) or not row:
            raise SystemFileError(f"{where} row {i} must be a nonempty array")
        width = width or len(row)
        if len(row) != width:
            raise SystemFileError(
                f"{where} row {i} has length {len(row)}, expected {width}"
            )
        out.append([_as_float(x, f"{where} row {i}") for x in row])
    return np.array(out)


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


def _parse_switching(obj) -> SwitchingLaw:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SystemFileError(
            "switching must be an object with a 'type' field"
        )
    kind = obj["type"]
    if kind == "iid":
        _require_keys(obj, "switching", ("type", "pi"))
        return IIDSwitching(pi=_as_vector(obj["pi"], "switching.pi"))
    if kind == "markov":
        _require_keys(obj, "switching", ("type", "P", "pi0"))
        p = _as_matrix(obj["P"], "switching.P")
        if p.shape[0] != p.shape[1]:
            raise SystemFileError(
                f"switching.P must be square, got {p.shape[0]}x{p.shape[1]}"
            )
        return MarkovSwitching(
            P=p, pi0=_as_vector(obj["pi0"], "switching.pi0", len(p))
        )
    if kind == "schedule":
        _require_keys(obj, "switching", ("type", "vectors"))
        return ScheduleSwitching(
            vectors=_as_matrix(obj["vectors"], "switching.vectors")
        )
    if kind == "sequence":
        _require_keys(obj, "switching", ("type", "indices"))
        raw = obj["indices"]
        if not isinstance(raw, list) or not raw:
            raise SystemFileError(
                "switching.indices must be a nonempty array"
            )
        for i, x in enumerate(raw):
            if isinstance(x, bool) or not isinstance(x, int):
                raise SystemFileError(
                    f"switching.indices[{i}] must be an integer, "
                    f"got {x!r}"
                )
        return SequenceSwitching(indices=raw)
    raise SystemFileError(
        f"switching.type must be one of 'iid', 'markov', 'schedule', "
        f"'sequence', got {kind!r}"
    )


class SystemFile(NamedTuple):
    """Parsed system description: dynamics, switching law, initial mixture.

    Attributes
    ----------
    system : JumpLinearSystem
    switching : SwitchingLaw
    initial : GaussianMixture
    """

    system: JumpLinearSystem
    switching: SwitchingLaw
    initial: GaussianMixture

    @classmethod
    def from_dict(cls, data) -> "SystemFile":
        """Build from a decoded JSON object, checking the schema.

        Raises
        ------
        SystemFileError
            If any field is missing, unknown, or has the wrong shape.
            The message names the offending field.
        """
        _require_keys(
            data, "system file", ("n", "modes", "switching", "initial")
        )
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise SystemFileError(
                f"n must be a positive integer, got {n!r}"
            )
        modes_obj = data["modes"]
        if not isinstance(modes_obj, dict) or not modes_obj:
            raise SystemFileError(
                "modes must be a nonempty object of named matrices"
            )
        system = JumpLinearSystem(
            modes=np.array([
                _as_matrix(mat, f"mode '{name}'", rows=n, cols=n)
                for name, mat in modes_obj.items()
            ]),
            names=tuple(modes_obj),
        )

        switching = _parse_switching(data["switching"])

        init_obj = data["initial"]
        if not isinstance(init_obj, list) or not init_obj:
            raise SystemFileError(
                "initial must be a nonempty array of components"
            )
        weights, means, covs = [], [], []
        for i, comp in enumerate(init_obj):
            where = f"initial[{i}]"
            _require_keys(comp, where, ("weight", "mean", "cov"))
            weights.append(_as_float(comp["weight"], f"{where}.weight"))
            means.append(_as_vector(comp["mean"], f"{where}.mean", n))
            covs.append(_as_matrix(comp["cov"], f"{where}.cov", n, n))
        initial = GaussianMixture(
            weights=np.array(weights), means=np.array(means),
            covs=np.array(covs),
        )
        return cls(system=system, switching=switching, initial=initial)


def load_system_file(path) -> SystemFile:
    """Parse a JSON system file.

    Raises
    ------
    SystemFileError
        On text that is not UTF-8, malformed JSON (with line and column
        where the parser gives them), a key repeated within one object or
        schema violations.
    OSError
        If the file cannot be read.
    """
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
    return SystemFile.from_dict(data)
