"""Simulate a heavy-tailed branching process and estimate its offspring mean.

The process is X_i = sum of X_{i-1} offspring draws + an immigration
count whose tail decays like c * k^{-alpha} with alpha in (1, 2): the
stationary law has finite mean but infinite variance, so the paths show
occasional huge spikes.  The conditional least squares estimator of the
offspring mean stays consistent regardless, with a non-Gaussian limit
law explored in the next demo.
"""

import numpy as np

from gwi import (
    ImmigrationLaw,
    ModelParams,
    OffspringLaw,
    cls_estimate,
    simulate,
    stationary_init_many,
)

params = ModelParams(
    offspring=OffspringLaw("poisson", 0.5),
    immigration=ImmigrationLaw(alpha=1.5, c=0.3),
)
print(f"offspring mean mu_A = {params.mu_A}")
print(f"immigration mean mu_B = {params.mu_B:.6f}")
print(f"stationary mean = {params.stationary_mean:.6f}")

rng = np.random.default_rng(7)
n = 100_000
init = stationary_init_many(params, 1, rng)[0]
x = simulate(params, n, init, rng)

print(f"\nsimulated {n} steps from stationary start X_0 = {init}")
print(f"path mean {x.mean():.4f}, path max {x.max()} "
      "(heavy tail: the max dwarfs the mean)")

# one row of the replication table: the same reducer as `gwi estimate`
row = cls_estimate(params, x)
print(f"\nCLS estimate mu_hat = {row['mu_hat']:.6f} (true {params.mu_A})")
print(f"scaling value a_n = {row['a_n']:.2f}; scaled error "
      f"sqrt(a_n)*(mu_hat - mu_A) = {row['scaled_error']:.4f}")
print(f"normalised sums (V_n^1, V_n^2) = ({row['v1']:.4f}, {row['v2']:.4f});"
      f" V_n^2/V_n^1 = {row['v2'] / row['v1']:.4f}, the scaled error again")
print("the scaled error converges to the ratio V2/V1 of a dependent "
      "stable pair, not to a normal law")
