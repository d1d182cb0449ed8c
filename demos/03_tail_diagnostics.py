"""Extreme-value structure of the process: tail process and diagnostics.

Conditional on one very large value X_t, the neighbouring path is
asymptotically deterministic: X_{t+i} ~ mu_A^i * X_t going forward, and
the backward history survives only for a geometric number of steps.
The validators below condition a long stationary run on exceedances of
a high quantile and compare against those limit predictions, and the
Karamata ratios check that truncated moments behave exactly as the
regular-variation theory says they should.
"""

import numpy as np

from gwi import (
    ImmigrationLaw,
    ModelParams,
    OffspringLaw,
    karamata_limit,
    karamata_ratio,
    sample_tail_paths,
    validate_pseudo_tail,
)
from gwi.tailproc import run_stationary_batch

params = ModelParams(
    offspring=OffspringLaw("poisson", 0.5),
    immigration=ImmigrationLaw(alpha=1.5, c=0.3),
)

# the limiting tail path itself: Pareto front value, geometric cutoff
rng = np.random.default_rng(3)
y, k = sample_tail_paths(params.alpha, params.mu_A, 3, 1, rng)
print("one tail-process draw (lags -3..3):")
print("  " + "  ".join(f"{v:.3f}" for v in y[0]))
print(f"  front value Y_0 = {y[0, 3]:.3f}, backward survival K = {k[0]}")

# condition a long run on large values and compare with the limit
paths = run_stationary_batch(params, total_steps=2_000_000, chains=20, seed=5)
report = validate_pseudo_tail(params, paths, quantile=0.999)
print(f"\nconditioning on X > {report['threshold']:.0f} "
      f"({report['n_events']} events):")
print(f"  KS of scaled residual vs N(0, sigma_A2): {report['ks_w0_normal']:.4f}")
print(f"  mean one-step ratio {report['mean_ratio']:.4f} "
      f"(limit predicts mu_A = {params.mu_A})")
print(f"  KS of overshoot vs Pareto(alpha): {report['ks_front_pareto']:.4f}")

# Karamata truncated-moment ratios on the exact Pareto tail
print("\nKaramata diagnostics at x = 1000 (exact Pareto tail):")
alpha = params.alpha
for beta in (3.0, 1.0):
    got = karamata_ratio(beta, alpha, 1000.0)
    want = karamata_limit(beta, alpha)
    print(f"  beta = {beta:g}: ratio {got:.6f}, asymptotic limit {want:.6f}")
