"""
Stability verdicts across switching laws
========================================

A jump linear system x(k+1) = A_j x(k) picks its matrix each step
according to a switching law.  Whether E||x(k)||^2 converges to zero
depends on the law as much as on the matrices, and each law kind gets
its own test.  This script runs all four on small scalar systems where
the answers are easy to check by hand.
"""

import numpy as np

from jumpstab import (
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    analyze,
)

# two scalar modes: one doubles the state, one nearly kills it
system = JumpLinearSystem(modes=[[[2.0]], [[0.1]]])  # grow, shrink


def show(title, report):
    print(f"\n{title}")
    print(f"  test:     {report.test_name}")
    print(f"  verdict:  {report.verdict}")
    print(f"  evidence: {report.evidence:.6g}")
    for note in report.notes:
        print(f"  note:     {note}")


# Independent draws with equal probability.  The mean square gain per
# step is 0.5 * 4 + 0.5 * 0.01 = 2.005, so the system is unstable even
# though the shrink mode is visited half the time.
show(
    "i.i.d., pi = (1/2, 1/2)",
    analyze(system, IIDSwitching([0.5, 0.5])),
)

# The same matrices under a Markov chain that tends to alternate.
# Alternation pairs every doubling with a near-kill, and the chain
# test's spectral radius drops below 1: stable.
chain = MarkovSwitching(P=[[0.05, 0.95], [0.95, 0.05]], pi0=[0.5, 0.5])
show("Markov, strongly alternating chain", analyze(system, chain))

# A deterministic alternating sequence is the extreme case: the
# two-step product has norm 2.0 * 0.1 = 0.2 < 1, which certifies
# stability for the repeated pattern.
show(
    "deterministic sequence (grow, shrink, grow, ...)",
    analyze(system, SequenceSwitching((1, 2))),
)

# A time-varying schedule that starts all-grow and drifts toward
# all-shrink.  Its last row repeats forever, so the general test reads
# the spectral radius of that row's mean-square map (0.01, all-shrink);
# the 39 rows before it only grow the second moment for a while.
rows = np.linspace([1.0, 0.0], [0.0, 1.0], 40)
show(
    "schedule drifting from grow to shrink",
    analyze(system, ScheduleSwitching(rows)),
)

# The scalar Markov example with the hand-derived answer: modes
# (1.2, 0.5) under a symmetric chain with switch probability 0.7 gives
# a lifted spectral radius near 0.70986.
scalar = JumpLinearSystem(modes=[[[1.2]], [[0.5]]])
sym = MarkovSwitching(P=[[0.3, 0.7], [0.7, 0.3]], pi0=[0.5, 0.5])
show("Markov, modes (1.2, 0.5), symmetric 0.3/0.7 chain", analyze(scalar, sym))
