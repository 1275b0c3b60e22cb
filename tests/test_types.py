"""The contract every public jumpstab type keeps: its fields are read
only, and construction by position and by keyword give the same fields.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from jumpstab.mcsim import EnsembleStats, SimConfig
from jumpstab.propagate import GammaState, TrajectoryRecord
from jumpstab.stability import StabilityReport
from jumpstab.systemfile import SystemFile
from jumpstab.sysmodel import (
    GaussianMixture,
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    StationaryResult,
    ValidationReport,
)

SYSTEM = JumpLinearSystem([np.eye(2), 0.5 * np.eye(2)], ("a", "b"))
LAW = IIDSwitching([0.5, 0.5])
MIXTURE = GaussianMixture([1.0], np.zeros((1, 2)), np.eye(2)[None])

#: each public type with the (name, value) of every constructor argument,
#: in signature order
TYPES = [
    (JumpLinearSystem, [("modes", [np.eye(2), 2 * np.eye(2)]),
                        ("names", ("slow", "fast"))]),
    (GaussianMixture, [("weights", [0.5, 0.5]), ("means", np.zeros((2, 2))),
                       ("covs", np.stack([np.eye(2), 2 * np.eye(2)]))]),
    (IIDSwitching, [("pi", [0.25, 0.75])]),
    (MarkovSwitching, [("P", [[0.9, 0.1], [0.2, 0.8]]), ("pi0", [1.0, 0.0])]),
    (ScheduleSwitching, [("vectors", [[0.5, 0.5], [1.0, 0.0]])]),
    (SequenceSwitching, [("indices", (2, 1, 2))]),
    (ValidationReport, [("violations", ("bad sum",))]),
    (StationaryResult, [("status", "unique"), ("vector", np.array([0.5, 0.5])),
                        ("residual", 1e-17)]),
    (TrajectoryRecord, [("k", 3), ("w2", 0.25), ("component_count", 8)]),
    (GammaState, [("gamma", np.eye(4)), ("k", 2), ("diverged", True)]),
    (StabilityReport, [("verdict", "stable"), ("test_name", "iid"),
                       ("evidence", 0.5), ("horizon_used", 4),
                       ("notes", ("a note",)), ("certificate", "stable"),
                       ("applications", 7)]),
    (EnsembleStats, [("mean_sq", np.ones(3)), ("stderr", np.zeros(3)),
                     ("samples", np.full(3, 5)),
                     ("heavy_tail", np.zeros(3, dtype=bool))]),
    (SystemFile, [("system", SYSTEM), ("switching", LAW),
                  ("initial", MIXTURE)]),
    (SimConfig, [("trajectories", 16), ("k_max", 5), ("seed", 3),
                 ("sampling", "path")]),
]
IDS = [cls.__name__ for cls, _ in TYPES]


def same(a, b):
    if isinstance(a, np.ndarray):
        assert_array_equal(a, b)
        return True
    return a is b or a == b


@pytest.mark.parametrize("cls, args", TYPES, ids=IDS)
def test_position_and_keyword_give_the_same_fields(cls, args):
    by_position = cls(*(value for _, value in args))
    by_keyword = cls(**dict(args))
    for name, _ in args:
        assert same(getattr(by_position, name), getattr(by_keyword, name))


@pytest.mark.parametrize("cls, args", TYPES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args):
    obj = cls(**dict(args))
    for name, value in args:
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
