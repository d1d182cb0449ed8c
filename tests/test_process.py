import math

import numpy as np
import pytest

from gwi.distributions import (
    ImmigrationLaw,
    OffspringLaw,
    sample_immigration_many,
)
from gwi.process import (
    _REDUCE_BUDGET,
    ModelParams,
    TailOverflowError,
    cascade_depth,
    residuals,
    scaling,
    simulate,
    simulate_batch,
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


class _RecordingRng:
    """Real uniforms, recorded with every call; offspring always zero."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []
        self.uniforms = []

    def random(self, shape):
        self.calls.append(("random", shape))
        u = self._rng.random(shape)
        self.uniforms.append(u)
        return u

    def poisson(self, lam):
        self.calls.append(("poisson", np.shape(lam)))
        return np.zeros(np.shape(lam), dtype=np.int64)


class _DoublingRng:
    """Zero immigration; Poisson offspring doubling X when mu_A = 0.5."""

    def random(self, shape):
        return np.full(shape, 0.1)

    def poisson(self, lam):
        return (4 * np.asarray(lam)).astype(np.int64)


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


class TestSimulate:
    def test_zero_path(self, ref_model):
        x = simulate(ref_model, 50, 0, _ZeroImmigrationRng())
        assert x.shape == (51,) and x.dtype == np.int64
        assert np.all(x == 0)
        assert np.allclose(residuals(ref_model, x), -ref_model.mu_B)

    def test_reconstruction_identity(self, ref_model, rng):
        init = stationary_init_many(ref_model, 1e-6, 1, rng)[0]
        x = simulate(ref_model, 2000, init, rng)
        recon = x[1:] - ref_model.mu_A * x[:-1] - ref_model.mu_B
        assert np.max(np.abs(residuals(ref_model, x) - recon)) == 0.0

    def test_determinism(self, ref_model):
        a = simulate(ref_model, 500, 3, np.random.default_rng(11))
        b = simulate(ref_model, 500, 3, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_long_run_mean(self, ref_model, rng):
        x = simulate(ref_model, 10**6, 2, rng).astype(np.float64)
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

    @pytest.mark.parametrize("n", [70, 64, 5])
    def test_immigration_drawn_per_block(self, ref_model, n):
        # with zero offspring X_i = B_i: the path must be the recorded
        # (t, chains) uniforms mapped through the immigration kernel, one
        # random call per block, ahead of the block's offspring draws
        chains = 1024
        steps = _REDUCE_BUDGET // chains
        fake = _RecordingRng(5)
        path = simulate_batch(ref_model, n, np.arange(chains), fake)
        sizes = [min(steps, n - s) for s in range(0, n, steps)]
        assert [u.shape for u in fake.uniforms] == [(t, chains) for t in sizes]
        b = np.concatenate([sample_immigration_many(ref_model.immigration, u)
                            for u in fake.uniforms])
        assert np.array_equal(path[:, 1:], b.T)
        assert np.array_equal(path[:, 0], np.arange(chains))
        want = []
        for t in sizes:
            want += [("random", (t, chains))] + [("poisson", (chains,))] * t
        assert fake.calls == want

        again = _RecordingRng(5)
        simulate_batch(ref_model, n, np.arange(chains), again,
                       reduce=lambda block: None)
        assert again.calls == fake.calls

    @pytest.mark.parametrize("reduced", [False, True])
    def test_overflow_guard_mid_block(self, ref_model, reduced):
        # X doubles from 3*2**57 and passes 2**62 at step 4, so the guard
        # fires before step 5, inside the first block
        seen = []
        inits = np.array([1, 3 * 2**57], dtype=np.int64)
        with pytest.raises(TailOverflowError):
            simulate_batch(ref_model, 100, inits, _DoublingRng(),
                           reduce=seen.append if reduced else None)
        assert seen == []
        path = simulate_batch(ref_model, 4, inits, _DoublingRng())
        assert path[1].tolist() == [3 * 2**k for k in range(57, 62)]


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
