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

import importlib

__version__ = "0.1.0"

#: The public names, by the module that defines them.  A name loads its
#: module on first use (PEP 562), so ``import jumpstab`` and the command
#: line's parser load no numpy.
_EXPORTS = {
    "matkit": ("NumericalError",),
    "mcsim": ("EnsembleStats", "SimConfig", "simulate_ensemble"),
    "propagate": (
        "GammaState",
        "TrajectoryRecord",
        "gamma_product",
        "w2_trajectory",
    ),
    "stability": (
        "StabilityReport",
        "analyze",
        "contraction_test",
        "markov_test",
    ),
    "sysmodel": (
        "GaussianMixture",
        "IIDSwitching",
        "JumpLinearSystem",
        "MarkovSwitching",
        "ScheduleSwitching",
        "SequenceSwitching",
        "ValidationReport",
        "marginal_schedule",
        "validate_system",
    ),
    "systemfile": ("SystemFile", "SystemFileError", "load_system_file"),
    "wasserstein": (
        "gaussian_to_dirac",
        "mixture_to_dirac_sq",
        "synthetic_gaussian",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as ``jumpstab.stability``
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
