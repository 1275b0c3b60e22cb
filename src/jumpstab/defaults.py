"""Defaults, tolerances and the numerical error type of the library.

This module imports nothing, so ``cli`` can build its parser, print its
help, read and check a system file, and catch a ``NumericalError``
before numpy loads.
"""

__all__ = ["DEFAULT_MARGIN", "DEFAULT_HORIZON", "DEFAULT_COMPONENT_CAP",
           "NumericalError"]

#: Half-width of the "marginal" band around evidence 1.
DEFAULT_MARGIN = 1e-9

#: Steps scanned by the sequence contraction test.
DEFAULT_HORIZON = 500

#: Hard ceiling on exact-mixture component counts.
DEFAULT_COMPONENT_CAP = 100_000

#: Probability sums may deviate from 1 by this much and are renormalized.
PROB_TOL = 1e-9

#: Negative probabilities above this floor are treated as roundoff and clamped.
CLAMP_TOL = 1e-12

#: Slack for positive-semidefiniteness checks; for matrices with entries
#: beyond 1 it is relative to the largest entry magnitude.
PSD_TOL = 1e-10


class NumericalError(RuntimeError):
    """A numerical routine failed (eigensolver breakdown, divergence, ...).

    Raised instead of returning garbage so callers can distinguish numeric
    failure from invalid input (which raises ``ValueError``).
    """
