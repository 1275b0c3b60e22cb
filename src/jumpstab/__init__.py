"""Mean-square stability analysis for discrete-time stochastic jump linear systems.

The package decides mean-square stability of switched linear dynamics
``x(k+1) = A_{sigma(k)} x(k)`` under several switching laws (independent
draws, Markov chains, time-varying schedules, deterministic sequences)
and computes the squared Wasserstein distance between the state
distribution and the point mass at the origin, which for Gaussian-mixture
initial conditions coincides with the trace of the second moment.

Three analytic routes compute that distance, chosen by the ``method``
of ``w2_trajectory`` (``trajectory --method``): the second-moment
recursion ``moment``, the lifted product ``gamma`` and the exact
mixture-of-Gaussians propagation ``exact_mog``. They are cross-checked
against seeded Monte Carlo simulation.
"""

from .matkit import NumericalError
from .mcsim import EnsembleStats, SimConfig, simulate_ensemble
from .propagate import (
    GammaState,
    TrajectoryRecord,
    gamma_product,
    mog_propagate,
    w2_trajectory,
)
from .stability import (
    StabilityReport,
    analyze,
    contraction_test,
    general_test,
    iid_test,
    markov_test,
)
from .sysmodel import (
    GaussianMixture,
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    ValidationReport,
    marginal_schedule,
    stationary_distribution,
    validate_system,
)
from .systemfile import (
    SystemFile,
    SystemFileError,
    load_system_file,
    save_system_file,
)
from .wasserstein import (
    gaussian_to_dirac,
    mixture_to_dirac_sq,
    synthetic_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "EnsembleStats",
    "GammaState",
    "GaussianMixture",
    "IIDSwitching",
    "JumpLinearSystem",
    "MarkovSwitching",
    "NumericalError",
    "ScheduleSwitching",
    "SequenceSwitching",
    "SimConfig",
    "StabilityReport",
    "SystemFile",
    "SystemFileError",
    "TrajectoryRecord",
    "ValidationReport",
    "analyze",
    "contraction_test",
    "gamma_product",
    "gaussian_to_dirac",
    "general_test",
    "iid_test",
    "load_system_file",
    "marginal_schedule",
    "markov_test",
    "mixture_to_dirac_sq",
    "mog_propagate",
    "save_system_file",
    "simulate_ensemble",
    "stationary_distribution",
    "synthetic_gaussian",
    "validate_system",
    "w2_trajectory",
    "__version__",
]
