"""
Distance-to-origin trajectories three ways
==========================================

The squared Wasserstein distance between the state distribution and a
point mass at the origin equals the trace of the second moment, so it
measures mean-square convergence directly.  The library computes the
trajectory W^2(k) by three independent routes:

* ``moment``: recursion on the n x n second-moment matrix,
* ``gamma``: product of n^2 x n^2 lifted step matrices,
* ``exact_mog``: exact mixture-of-Gaussians propagation of the full
  state density.

They rest on different identities, so their agreement is a strong
internal consistency check.
"""

import numpy as np

from jumpstab import (
    GaussianMixture,
    IIDSwitching,
    JumpLinearSystem,
    gaussian_to_dirac,
    mixture_to_dirac_sq,
    synthetic_gaussian,
    w2_trajectory,
)

rng = np.random.default_rng(7)

# a planar system: a mild rotation against a strong contraction
rot = 1.05 * np.array(
    [[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]]
)
system = JumpLinearSystem(modes=[rot, [[0.3, 0.0], [0.1, 0.2]]])
law = IIDSwitching([0.6, 0.4])

# start from a bimodal mixture: two clusters on opposite sides
init = GaussianMixture.from_components(
    [
        (0.7, [2.0, 0.0], 0.1 * np.eye(2)),
        (0.3, [-1.0, 1.5], 0.2 * np.eye(2)),
    ]
)

routes = {
    method: w2_trajectory(system, law, init, 12, method=method)
    for method in ("moment", "gamma", "exact_mog")
}

print(f"{'k':>3} {'moment':>16} {'gamma':>16} {'exact_mog':>16} {'comps':>6}")
for k in range(13):
    w_m = routes["moment"][k].w2
    w_g = routes["gamma"][k].w2
    rec_e = routes["exact_mog"][k]
    print(
        f"{k:>3} {w_m:>16.10f} {w_g:>16.10f} {rec_e.w2:>16.10f} "
        f"{rec_e.component_count:>6}"
    )

spread = max(
    abs(routes["gamma"][k].w2 - routes["moment"][k].w2)
    + abs(routes["exact_mog"][k].w2 - routes["moment"][k].w2)
    for k in range(13)
)
print(f"\nlargest spread between routes: {spread:.3e}")

# The identity that keeps the moment route honest: a mixture and the
# single Gaussian sharing its mean and covariance sit at the same
# distance from the origin's point mass.
mean, cov = synthetic_gaussian(init)
print("\nmixture W^2 to the Dirac:  ", mixture_to_dirac_sq(init))
print("synthetic Gaussian squared:", gaussian_to_dirac(mean, cov) ** 2)
