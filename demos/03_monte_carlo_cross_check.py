"""
Monte Carlo against the analytic trajectory
===========================================

The simulator draws full state trajectories and averages ||x(k)||^2,
which estimates the same quantity the moment recursion computes
exactly.  Under marginal sampling the two must agree within sampling
error, so the comparison works as an end-to-end oracle: one route
multiplies matrices, the other runs the system, and any systematic gap
indicates a defect.

For Markov laws there is a second, different semantics: following the
chain's conditional transitions (path sampling) instead of drawing each
step from its marginal.  The analytic trajectory weights modes by
per-step marginals, so correlated chains can sit far from it while
still matching the marginal-sampling run.
"""

import numpy as np

from jumpstab import (
    GaussianMixture,
    JumpLinearSystem,
    MarkovSwitching,
    SimConfig,
    simulate_ensemble,
    w2_trajectory,
)

system = JumpLinearSystem(modes=[[[1.2]], [[0.5]]], names=("a", "b"))
law = MarkovSwitching(P=[[0.3, 0.7], [0.7, 0.3]], pi0=[0.5, 0.5])
init = GaussianMixture.from_components([(1.0, [1.0], [[0.2]])])

steps = 12
records = w2_trajectory(system, law, init, steps)

marginal = simulate_ensemble(
    system, law, init,
    SimConfig(trajectories=50_000, k_max=steps, seed=1, sampling="marginal"),
)
path = simulate_ensemble(
    system, law, init,
    SimConfig(trajectories=50_000, k_max=steps, seed=1, sampling="path"),
)

print(
    f"{'k':>3} {'analytic W^2':>14} {'marginal MC':>14} {'dev/SE':>7} "
    f"{'path MC':>14}"
)
for rec in records:
    se = marginal.stderr[rec.k]
    dev = abs(marginal.mean_sq[rec.k] - rec.w2) / se if se > 0 else 0.0
    print(
        f"{rec.k:>3} {rec.w2:>14.6f} {marginal.mean_sq[rec.k]:>14.6f} "
        f"{dev:>7.2f} {path.mean_sq[rec.k]:>14.6f}"
    )

# The marginal run hugs the analytic column; the path run drops faster,
# because this chain prefers to alternate and alternation pairs the
# growing mode with the shrinking one.  Both behaviors are correct
# answers to different questions.
worst = max(
    abs(marginal.mean_sq[r.k] - r.w2) / marginal.stderr[r.k]
    for r in records
    if marginal.stderr[r.k] > 0
)
print(f"\nworst marginal deviation: {worst:.2f} standard errors")
print("path sampling tracks the chain itself; the gap above is the")
print("mode-correlation effect, not an estimation error.")

# Determinism: the same seed reproduces the ensemble bit for bit, so
# any run can be repeated exactly.
again = simulate_ensemble(
    system, law, init,
    SimConfig(trajectories=50_000, k_max=steps, seed=1, sampling="path"),
)
print(
    "\nsame seed, identical output:",
    bool(np.all(again.mean_sq == path.mean_sq)),
)
