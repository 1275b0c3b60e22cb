"""
Monte Carlo against the analytic trajectory
===========================================

The simulator draws full state trajectories and averages ||x(k)||^2,
which estimates the same quantity the moment recursion computes
exactly.  For a Markov law the recursion steps the coupled chain, the
process that path sampling runs, so the path run must agree with it
within sampling error: one route multiplies matrices, the other runs
the system, and any systematic gap indicates a defect.

The simulator samples each law's own process only.  The marginal
column is a second law: ScheduleSwitching(marginal_schedule(law, steps))
draws each step's mode independently from the chain's marginal pi0 P^k.
That drops the correlation of consecutive modes, so for a correlated
chain it describes a different process and sits away from the analytic
column.  Asking the simulator for marginal draws of the Markov law
itself is an error, because no analytic route computes that process for
it.
"""

import numpy as np

from jumpstab import (
    GaussianMixture,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SimConfig,
    marginal_schedule,
    simulate_ensemble,
    w2_trajectory,
)

system = JumpLinearSystem(modes=[[[1.2]], [[0.5]]])
law = MarkovSwitching(P=[[0.3, 0.7], [0.7, 0.3]], pi0=[0.5, 0.5])
init = GaussianMixture.from_components([(1.0, [1.0], [[0.2]])])

steps = 12
records = w2_trajectory(system, law, init, steps)

marginal = simulate_ensemble(
    system, ScheduleSwitching(marginal_schedule(law, steps)), init,
    SimConfig(trajectories=50_000, k_max=steps, seed=1),
)
path = simulate_ensemble(
    system, law, init, SimConfig(trajectories=50_000, k_max=steps, seed=1),
)

print(
    f"{'k':>3} {'analytic W^2':>14} {'path MC':>14} {'dev/SE':>7} "
    f"{'marginal MC':>14}"
)
for rec in records:
    se = path.stderr[rec.k]
    dev = abs(path.mean_sq[rec.k] - rec.w2) / se if se > 0 else 0.0
    print(
        f"{rec.k:>3} {rec.w2:>14.6f} {path.mean_sq[rec.k]:>14.6f} "
        f"{dev:>7.2f} {marginal.mean_sq[rec.k]:>14.6f}"
    )

# The path run hugs the analytic column; the marginal run decays more
# slowly, because this chain prefers to alternate and alternation pairs
# the growing mode with the shrinking one, which independent draws do
# not.
worst = max(
    abs(path.mean_sq[r.k] - r.w2) / path.stderr[r.k]
    for r in records
    if path.stderr[r.k] > 0
)
print(f"\nworst path deviation: {worst:.2f} standard errors")
print("marginal sampling drops the mode correlation; the gap in its")
print("column is that effect, not an estimation error.")

# Determinism: the same seed reproduces the ensemble bit for bit, so
# any run can be repeated exactly.
again = simulate_ensemble(
    system, law, init, SimConfig(trajectories=50_000, k_max=steps, seed=1),
)
print(
    "\nsame seed, identical output:",
    bool(np.all(again.mean_sq == path.mean_sq)),
)
