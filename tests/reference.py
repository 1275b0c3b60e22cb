"""Plain n^2 constructions that the tests compare the library against.

Not a test module: pytest collects only ``test_*.py``. The library works
in symmetric coordinates instead; these are the textbook forms.
"""

import numpy as np

from jumpstab.matkit import NumericalError
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
