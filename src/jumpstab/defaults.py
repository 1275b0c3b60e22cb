"""Default tuning values of the library, shared with the command-line parser.

This module imports nothing, so ``cli`` can build its parser, and print
its help, before numpy loads.
"""

__all__ = ["DEFAULT_MARGIN", "DEFAULT_HORIZON", "DEFAULT_COMPONENT_CAP"]

#: Half-width of the "marginal" band around evidence 1.
DEFAULT_MARGIN = 1e-9

#: Steps scanned by the sequence contraction test.
DEFAULT_HORIZON = 500

#: Hard ceiling on exact-mixture component counts.
DEFAULT_COMPONENT_CAP = 100_000
