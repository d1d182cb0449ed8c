import math

import numpy as np
import pytest

from gwi.distributions import ImmigrationLaw, OffspringLaw
from gwi.process import (
    _REDUCE_BUDGET,
    ModelParams,
    TailOverflowError,
    Trajectory,
    cascade_depth,
    residuals,
    scaling,
    simulate,
    simulate_batch,
    stationary_init,
    stationary_init_many,
)

MU_B = 0.783712604605646503  # c*zeta(alpha) oracle at (1.5, 0.3)


class _ZeroImmigrationRng:
    """Uniform stream pinned below 1-c: every immigration draw is zero.

    Offspring draws go to a real generator.
    """

    def __init__(self):
        self.poisson = np.random.default_rng(0).poisson

    def random(self, shape=None):
        return np.full(shape, 0.1) if shape is not None else 0.1


class TestModelParams:
    def test_theta(self, ref_model):
        assert ref_model.theta == 1.0 - 0.5**1.5

    def test_stationary_mean(self, ref_model):
        assert ref_model.stationary_mean == pytest.approx(MU_B / 0.5, rel=1e-10)

    def test_subcriticality_guard(self):
        with pytest.raises(ValueError):
            ModelParams(OffspringLaw("poisson", 1.0), ImmigrationLaw(1.5, 0.3))


class TestStationaryInit:
    def test_depth_oracle(self, ref_model):
        # smallest I with mu_B * 0.5^{I+1} / 0.5 < 1e-6, mu_B = 0.7837...
        assert cascade_depth(ref_model, 1e-6) == 20

    def test_depth_zero_for_loose_tol(self, ref_model):
        assert cascade_depth(ref_model, 0.9) == 0

    def test_depth_tol_validation(self, ref_model):
        for tol in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                cascade_depth(ref_model, tol)

    def test_mean_matches_stationary_mean(self, ref_model, rng):
        draws = stationary_init_many(ref_model, 1e-6, 10**5, rng)
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - ref_model.stationary_mean) < 3 * stderr

    def test_scalar_wrapper(self, ref_model, rng):
        assert stationary_init(ref_model, 1e-6, rng) >= 0


class TestSimulate:
    def test_zero_path(self, ref_model):
        traj = simulate(ref_model, 50, 0, _ZeroImmigrationRng())
        assert np.all(traj.x == 0)
        assert np.allclose(traj.m, -ref_model.mu_B)

    def test_reconstruction_identity(self, ref_model, rng):
        init = stationary_init(ref_model, 1e-6, rng)
        traj = simulate(ref_model, 2000, init, rng)
        recon = traj.x[1:] - ref_model.mu_A * traj.x[:-1] - ref_model.mu_B
        assert np.max(np.abs(traj.m - recon)) == 0.0

    def test_determinism(self, ref_model):
        a = simulate(ref_model, 500, 3, np.random.default_rng(11))
        b = simulate(ref_model, 500, 3, np.random.default_rng(11))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.m, b.m)

    def test_long_run_mean(self, ref_model, rng):
        traj = simulate(ref_model, 10**6, 2, rng)
        x = traj.x.astype(np.float64)
        # batch-means stderr over 100 batches
        means = x[1:].reshape(100, -1).mean(axis=1)
        stderr = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(x.mean() - ref_model.stationary_mean) < 3 * stderr

    def test_positive_denominator_probability(self, ref_model, rng):
        # fraction of stationary length-8 windows with all-zero history is
        # bounded by P(B=0)^{n-1} plus MC noise
        n, reps = 8, 20000
        inits = stationary_init_many(ref_model, 1e-6, reps, rng)
        paths = simulate_batch(ref_model, n, inits, rng)
        frac = np.mean((paths[:, :-1] == 0).all(axis=1))
        bound = 0.7 ** (n - 1)
        stderr = math.sqrt(bound * (1 - bound) / reps)
        assert frac <= bound + 3 * stderr

    def test_trajectory_shape_guard(self):
        with pytest.raises(ValueError):
            Trajectory(x=np.array([1, 2, 3]), m=np.array([0.0]))

    def test_residuals_batch(self, ref_model, rng):
        paths = simulate_batch(ref_model, 20, np.array([1, 2, 3]), rng)
        m = residuals(ref_model, paths)
        assert m.shape == (3, 20)


class TestReduceMode:
    """The reduce mode of simulate_batch hands over the stored path."""

    chains = 1024  # T = _REDUCE_BUDGET // chains steps per block

    @pytest.mark.parametrize("n_blocks", [2, 2.5, 0.5])
    def test_blocks_concatenate_to_path(self, ref_model, n_blocks):
        steps = _REDUCE_BUDGET // self.chains
        n = int(n_blocks * steps)
        rng = np.random.default_rng(31)
        inits = stationary_init_many(ref_model, 1e-6, self.chains, rng)
        state = rng.bit_generator.state
        path = simulate_batch(ref_model, n, inits, rng)
        rng.bit_generator.state = state
        blocks = []
        assert simulate_batch(ref_model, n, inits, rng,
                              reduce=lambda b: blocks.append(b.copy())) is None
        assert len(blocks) == math.ceil(n_blocks)
        assert all(b.dtype == np.int64 and len(b) == self.chains
                   for b in blocks)
        assert all(b.shape[1] == steps + 1 for b in blocks[:-1])
        for prev, cur in zip(blocks, blocks[1:]):
            assert np.array_equal(cur[:, 0], prev[:, -1])
        joined = np.concatenate([blocks[0][:, :1]] + [b[:, 1:] for b in blocks],
                                axis=1)
        assert np.array_equal(joined, path)

    @pytest.mark.parametrize("reduce", [None, lambda block: None])
    def test_overflow_guard(self, ref_model, rng, reduce):
        inits = np.array([5, 2**62 + 1], dtype=np.int64)
        with pytest.raises(TailOverflowError):
            simulate_batch(ref_model, 3, inits, rng, reduce=reduce)


class TestScaling:
    def test_analytic_oracle(self, ref_model):
        info = scaling(ref_model, 10**4)
        assert info.a_n == pytest.approx(278.222593846252465, rel=1e-12)
        assert info.theta == ref_model.theta

    def test_analytic_limit_identity(self, ref_model):
        # n^{-1/alpha} a_n equals (c/theta)^{1/alpha} for every n
        target = (ref_model.c / ref_model.theta) ** (1 / ref_model.alpha)
        for n in (10**3, 10**4, 10**5, 10**6):
            info = scaling(ref_model, n)
            assert info.a_n * n ** (-1 / ref_model.alpha) == \
                pytest.approx(target, rel=1e-12)

    def test_growth_and_sublinearity(self, ref_model):
        ns = [10**3, 10**4, 10**5, 10**6]
        a = [scaling(ref_model, n).a_n for n in ns]
        assert all(a2 > a1 for a1, a2 in zip(a, a[1:]))
        assert all(an / n < 1 for an, n in zip(a, ns))

    def test_empirical_mode_needs_sample(self, ref_model):
        with pytest.raises(ValueError, match="insufficient tail sample"):
            scaling(ref_model, 100, mode="empirical-quantile", sample=[1.0])

    def test_empirical_mode_quantile(self, ref_model, rng):
        n = 100
        draws = stationary_init_many(ref_model, 1e-6, 10 * n, rng)
        info = scaling(ref_model, n, mode="empirical-quantile", sample=draws)
        assert info.a_n >= 1.0
        assert info.mode == "empirical-quantile"

    def test_unknown_mode(self, ref_model):
        with pytest.raises(ValueError):
            scaling(ref_model, 100, mode="bogus")
