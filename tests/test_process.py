import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from gwi import process
from gwi.distributions import (
    ImmigrationLaw,
    OffspringLaw,
    sample_aggregate_offspring_many,
    sample_immigration_many,
)
from gwi.process import (
    _BLOCK,
    _REDUCE_BUDGET,
    _store,
    ModelParams,
    TailOverflowError,
    cascade_depth,
    residuals,
    run_blocks,
    scaling,
    simulate,
    simulate_batch,
    stationary_init_many,
)
from gwi.tailproc import _count_reducer

MU_B = 0.783712604605646503  # c*zeta(alpha) oracle at (1.5, 0.3)


def _model(mu_A):
    """Poisson offspring of mean mu_A, immigration at (1.5, 0.3)."""
    return ModelParams(OffspringLaw("poisson", mu_A), ImmigrationLaw(1.5, 0.3))


class _ZeroImmigrationRng:
    """Uniform stream pinned below 1-c: every immigration draw is zero.

    ``offspring``, installed as ``process.sample_aggregate_offspring_many``,
    draws from a real generator.
    """

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def random(self, shape=None):
        return np.full(shape, 0.1) if shape is not None else 0.1

    def offspring(self, law, parents, rng):
        return sample_aggregate_offspring_many(law, parents, self._rng)


class _RecordingRng:
    """Real uniforms, recorded with every call; ``offspring``, installed as
    ``process.sample_aggregate_offspring_many``, records its call and
    gives zero offspring."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []
        self.uniforms = []

    def random(self, shape):
        self.calls.append(("random", shape))
        u = self._rng.random(shape)
        self.uniforms.append(u)
        return u

    def offspring(self, law, parents, rng):
        assert rng is self
        self.calls.append(("offspring", np.shape(parents)))
        return np.zeros(np.shape(parents), dtype=np.int64)


def _per_step_loop(params, n, inits, rng):
    """The engine the cluster engine replaced, kept as the oracle in law.

    X_i = (offspring of X_(i-1)) + B_i, one transition of every chain at
    a time, with fresh uniforms for each step's immigration.
    """
    x = np.array(inits, dtype=np.int64)
    out = np.empty((len(x), n + 1), dtype=np.int64)
    out[:, 0] = x
    for i in range(n):
        b = sample_immigration_many(params.immigration, rng.random(len(x)))
        pos = x > 0
        x[pos] = sample_aggregate_offspring_many(params.offspring, x[pos], rng)
        x += b
        out[:, i + 1] = x
    return out


def _horner_init(params, size, rng):
    """The Horner loop the engine-based stationary start replaced, kept as
    the oracle in law: S = B_(-I), then S <- thin(S) + B_(-i) for
    i = I-1 .. 0, each lag with fresh uniforms.
    """
    s = sample_immigration_many(params.immigration, rng.random(size))
    for _ in range(cascade_depth(params)):
        pos = s > 0
        s[pos] = sample_aggregate_offspring_many(params.offspring, s[pos], rng)
        s += sample_immigration_many(params.immigration, rng.random(size))
    return s


class _DoublingRng:
    """Zero immigration; ``offspring``, installed as
    ``process.sample_aggregate_offspring_many``, doubles X."""

    def random(self, shape):
        return np.full(shape, 0.1)

    @staticmethod
    def offspring(law, parents, rng):
        return 2 * np.asarray(parents, dtype=np.int64)


@pytest.fixture
def fake_offspring(monkeypatch):
    """``fake_offspring(rng)``: the engine draws offspring by
    ``rng.offspring`` from here on; returns ``rng``."""

    def install(rng):
        monkeypatch.setattr(process, "sample_aggregate_offspring_many",
                            rng.offspring)
        return rng

    return install


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
        assert cascade_depth(ref_model) == 20

    def test_depth_zero_for_small_mu_A(self):
        # mu_B * mu_A / (1 - mu_A) = 7.8e-8 is already below 1e-6
        assert cascade_depth(_model(1e-7)) == 0

    def test_mean_matches_stationary_mean(self, ref_model, rng):
        draws = stationary_init_many(ref_model, 10**5, rng)
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - ref_model.stationary_mean) < 3 * stderr

    @pytest.mark.parametrize("mu_A, depth", [(0.5, 20), (1e-7, 0)])
    def test_engine_runs_depth_plus_one_steps(self, mu_A, depth,
                                              fake_offspring):
        # with zero offspring the chain from X_0 = 0 ends at its last
        # immigration batch: one block of depth + 1 steps, one random call
        params = _model(mu_A)
        fake = fake_offspring(_RecordingRng(3))
        draws = stationary_init_many(params, 7, fake)
        assert [u.shape for u in fake.uniforms] == [(depth + 1, 7)]
        assert np.array_equal(
            draws, sample_immigration_many(params.immigration,
                                           fake.uniforms[0][-1]))

    @pytest.mark.parametrize("size", [250, 300_000])
    def test_draws_own_memory(self, ref_model, size):
        # the engine's window is (22, 250) at 250 draws and (2, 2**17)
        # for a full piece of a larger start: a view of its last row
        # would keep the whole window alive
        draws = stationary_init_many(ref_model, size, np.random.default_rng(4))
        assert draws.shape == (size,) and draws.base is None

    def test_large_start_memory(self, ref_model):
        # starts come in pieces of at most _REDUCE_BUDGET chains, so the
        # peak is the draws plus one piece's working set (128 bytes a
        # chain), not a multiple of the draws
        tracemalloc.start()
        try:
            draws = stationary_init_many(ref_model, 600_000,
                                         np.random.default_rng(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= draws.nbytes + _REDUCE_BUDGET * 128, peak / 2**20

    @pytest.mark.parametrize("family", OffspringLaw.FAMILIES)
    def test_matches_horner_loop(self, family):
        # 2e5 draws per side; each statistic at 4 standard errors
        params = ModelParams(OffspringLaw(family, 0.5), ImmigrationLaw(1.5, 0.3))
        size = 2 * 10**5
        stats = []
        for draw, seed in ((stationary_init_many, 1), (_horner_init, 2)):
            x = draw(params, size, np.random.default_rng(seed))
            assert x.shape == (size,) and x.dtype == np.int64
            stats.append({"mean": x, "P(X=0)": x == 0, "P(X>20)": x > 20})
        for name in stats[0]:
            a, b = stats[0][name], stats[1][name]
            se = math.sqrt(a.var(ddof=1) / size + b.var(ddof=1) / size)
            assert abs(a.mean() - b.mean()) <= 4 * se, (name, a.mean(), b.mean())


class TestSimulate:
    def test_zero_path(self, ref_model, fake_offspring):
        x = simulate(ref_model, 50, 0, fake_offspring(_ZeroImmigrationRng()))
        assert x.shape == (51,) and x.dtype == np.int64
        assert np.all(x == 0)
        assert np.allclose(residuals(ref_model, x), -ref_model.mu_B)

    def test_reconstruction_identity(self, ref_model, rng):
        init = stationary_init_many(ref_model, 1, rng)[0]
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

    def test_positive_denominator_probability(self, ref_model, rng, stored):
        # fraction of stationary length-8 windows with all-zero history is
        # bounded by P(B=0)^{n-1} plus MC noise
        n, reps = 8, 20000
        inits = stationary_init_many(ref_model, reps, rng)
        paths = stored(ref_model, n, inits, rng)
        frac = np.mean((paths[:, :-1] == 0).all(axis=1))
        bound = 0.7 ** (n - 1)
        stderr = math.sqrt(bound * (1 - bound) / reps)
        assert frac <= bound + 3 * stderr

    def test_residuals_batch(self, ref_model, rng, stored):
        paths = stored(ref_model, 20, np.array([1, 2, 3]), rng)
        m = residuals(ref_model, paths)
        assert m.shape == (3, 20)


class TestReduceMode:
    """simulate_batch hands every window of the engine to its reducer."""

    chains = 1024  # T = _REDUCE_BUDGET // chains steps per block

    @pytest.mark.parametrize("n_blocks", [2, 2.5, 0.5])
    def test_blocks_concatenate_to_path(self, ref_model, stored, n_blocks):
        # windows are (T+1, chains), row 0 the previous block's last row;
        # kept without a copy, they still join to the stored path
        steps = _REDUCE_BUDGET // self.chains
        n = int(n_blocks * steps)
        rng = np.random.default_rng(31)
        inits = stationary_init_many(ref_model, self.chains, rng)
        state = rng.bit_generator.state
        path = stored(ref_model, n, inits, rng)
        rng.bit_generator.state = state
        blocks = []
        last = simulate_batch(ref_model, n, inits, rng, blocks.append)
        assert np.array_equal(last, path[:, -1])
        assert len(blocks) == math.ceil(n_blocks)
        assert all(b.dtype == np.int64 and b.shape[1] == self.chains
                   for b in blocks)
        assert all(len(b) == steps + 1 for b in blocks[:-1])
        assert np.array_equal(blocks[0][0], inits)
        for prev, cur in zip(blocks, blocks[1:]):
            assert np.array_equal(cur[0], prev[-1])
        joined = np.concatenate([blocks[0][:1]] + [b[1:] for b in blocks])
        assert np.array_equal(joined.T, path)

    @pytest.mark.parametrize("chains, n", [(1, 300), (1024, 300),
                                           (_REDUCE_BUDGET + 3, 3)])
    def test_returns_last_states(self, ref_model, stored, chains, n):
        # X_n, the last column of the stored paths, in an array of its own
        rng = np.random.default_rng(8)
        inits = stationary_init_many(ref_model, chains, rng)
        state = rng.bit_generator.state
        path = stored(ref_model, n, inits, rng)
        rng.bit_generator.state = state
        last = simulate_batch(ref_model, n, inits, rng, lambda window: None)
        assert last.dtype == np.int64 and last.base is None
        assert np.array_equal(last, path[:, -1])

    @pytest.mark.parametrize("reduce", [None, lambda block: None])
    def test_overflow_guard(self, ref_model, rng, reduce):
        # None: the stored case, through ``_store``
        inits = np.array([5, 2**62 + 1], dtype=np.int64)
        with pytest.raises(TailOverflowError):
            simulate_batch(ref_model, 3, inits, rng,
                           reduce or _store(3, len(inits))[1])

    @pytest.mark.parametrize("inits", [[2.7, 1.2], [3, -1], [True, False]])
    def test_bad_inits_named(self, ref_model, inits):
        # a bad start is named where it enters the engine, before any draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="inits"):
            simulate_batch(ref_model, 3, np.array(inits), rng,
                           lambda window: None)
        with pytest.raises(ValueError, match="inits"):
            simulate(ref_model, 3, inits[1], rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [70, 64, 5])
    def test_immigration_drawn_per_block(self, ref_model, stored, n,
                                         fake_offspring):
        # with zero offspring X_i = B_i: the path must be the recorded
        # (t, chains) uniforms mapped through the immigration kernel.  Each
        # block makes one random call, then one offspring call for its
        # first generation: the nonzero X_0 and B_1 .. B_(t-1), whose
        # families all die there
        steps = 32
        chains = _REDUCE_BUDGET // steps
        fake = fake_offspring(_RecordingRng(5))
        path = stored(ref_model, n, np.arange(chains), fake)
        starts = range(0, n, steps)
        sizes = [min(steps, n - s) for s in starts]
        assert [u.shape for u in fake.uniforms] == [(t, chains) for t in sizes]
        b = np.concatenate([sample_immigration_many(ref_model.immigration, u)
                            for u in fake.uniforms])
        assert np.array_equal(path[:, 1:], b.T)
        assert np.array_equal(path[:, 0], np.arange(chains))
        want, want_reduced = [], []
        for s, t in zip(starts, sizes):
            block = [("random", (t, chains))]
            families = np.count_nonzero(path[:, s: s + t])
            if families:
                block.append(("offspring", (families,)))
            want += block
            want_reduced += block + [("reduce", (t + 1, chains))]
        assert fake.calls == want

        # a recording reducer: the same draws, each window handed over
        # after its block's last offspring call and before the next
        # block's draws
        again = fake_offspring(_RecordingRng(5))
        windows = []

        def reduce(window):
            again.calls.append(("reduce", window.shape))
            windows.append(window)

        simulate_batch(ref_model, n, np.arange(chains), again, reduce=reduce)
        assert again.calls == want_reduced
        assert np.array_equal(np.concatenate([w[1:] for w in windows]), b)
        assert np.array_equal(windows[0][0], np.arange(chains))

    @pytest.mark.parametrize("reduced", [False, True])
    def test_overflow_guard_mid_block(self, ref_model, stored, reduced,
                                      fake_offspring):
        # X doubles from 3*2**57 and passes 2**62 at step 4, inside the
        # first block: the run raises and no block reaches the reducer
        inits = np.array([1, 3 * 2**57], dtype=np.int64)
        doubling = fake_offspring(_DoublingRng())
        for n in (4, 100):
            seen = []
            with pytest.raises(TailOverflowError):
                simulate_batch(ref_model, n, inits, doubling,
                               seen.append if reduced else
                               _store(n, len(inits))[1])
            assert seen == []
        path = stored(ref_model, 3, inits, doubling)
        assert path.tolist() == [[1, 2, 4, 8],
                                 [3 * 2**k for k in range(57, 61)]]


class TestRunBlocks:
    """The block farm: stationary chains in blocks of ``_BLOCK``."""

    @pytest.fixture
    def direct(self, stored):
        """``direct(params, n, width, key)``: one block started and run
        on ``default_rng(key)``, outside the farm."""

        def run(params, n, width, key):
            rng = np.random.default_rng(key)
            inits = stationary_init_many(params, width, rng)
            return stored(params, n, inits, rng)

        return run

    @pytest.mark.parametrize("seed", [7, [42, 2], [5, 0, 1]])
    @pytest.mark.parametrize("width", [1, _BLOCK])
    def test_one_block_is_the_direct_stream(self, ref_model, direct, seed,
                                            width):
        # SeedSequence pads its entropy with zero words up to four, so
        # block 0's key [*seed, 0] draws the stream of default_rng(seed):
        # up to _BLOCK chains, the farm is the direct start-and-run
        assert np.array_equal(run_blocks(ref_model, 30, width, seed),
                              direct(ref_model, 30, width, seed))

    def test_blocks_join_in_order(self, ref_model, direct):
        # 300 chains: block 0 holds 250 on key [9, 0], block 1 the other
        # 50 on [9, 1], whatever the worker count and the mode
        n, level = 40, 3
        want = np.concatenate([direct(ref_model, n, 250, [9, 0]),
                               direct(ref_model, n, 50, [9, 1])])
        counts = (want[:, 1:] > level).sum(axis=1)
        for workers in (1, 2):
            assert np.array_equal(
                run_blocks(ref_model, n, 300, 9, workers=workers), want)
            assert np.array_equal(
                run_blocks(ref_model, n, 300, 9,
                           partial(_count_reducer, level), workers), counts)

    def test_one_block_not_copied(self, ref_model, monkeypatch):
        # a single block's result comes back as it is: a copy of a stored
        # path would add its size to the peak memory
        stores = []

        def spy(n, width):
            stores.append(_store(n, width))
            return stores[-1]

        monkeypatch.setattr(process, "_store", spy)
        assert run_blocks(ref_model, 50, 20, 3) is stores[-1][0]
        states = []

        def reducer(width):
            states.append(np.zeros(width))
            return states[-1], lambda window: None

        assert run_blocks(ref_model, 50, 20, 3, reducer) is states[0]

    def test_stored_blocks_not_held_twice(self, ref_model):
        # 500 chains, two blocks: each block is written into the result
        # as it arrives, so the peak is the path plus about one block,
        # not the blocks plus their concatenated copy (2x the path)
        tracemalloc.start()
        try:
            x = run_blocks(ref_model, 20_000, 500, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (500, 20_001)
        assert peak <= 1.7 * x.nbytes, peak / x.nbytes

    def test_rejects_no_chains(self, ref_model):
        with pytest.raises(ValueError, match="reps"):
            run_blocks(ref_model, 10, 0, 1)


class TestAgreementInLaw:
    """The cluster engine and the per-step loop simulate the same chain.

    10.5 blocks of ``steps`` steps: at 4 steps every family is cut within
    four generations and restarted from X_T, at 64 steps most families
    die inside their block.  Each statistic is a per-chain time average
    over independent stationary chains, compared at 4 standard errors.
    """

    @pytest.mark.parametrize("steps", [4, 64])
    @pytest.mark.parametrize("family", OffspringLaw.FAMILIES)
    def test_matches_per_step_loop(self, stored, family, steps):
        params = ModelParams(OffspringLaw(family, 0.5), ImmigrationLaw(1.5, 0.3))
        chains, n = _REDUCE_BUDGET // steps, 10 * steps + steps // 2
        stats = []
        for engine, seed in ((stored, 1), (_per_step_loop, 2)):
            rng = np.random.default_rng(seed)
            inits = stationary_init_many(params, chains, rng)
            x = engine(params, n, inits, rng)[:, 1:]
            capped = np.minimum(x, 50).astype(np.float64)
            stats.append({
                "mean": x.mean(axis=1),
                "P(X=0)": (x == 0).mean(axis=1),
                "lag-1 product": (capped[:, 1:] * capped[:, :-1]).mean(axis=1),
            })
        for name in stats[0]:
            a, b = stats[0][name], stats[1][name]
            se = math.sqrt(a.var(ddof=1) / chains + b.var(ddof=1) / chains)
            assert abs(a.mean() - b.mean()) <= 4 * se, (name, a.mean(), b.mean())


class TestScaling:
    def test_analytic_oracle(self, ref_model):
        assert scaling(ref_model, 10**4) == \
            pytest.approx(278.222593846252465, rel=1e-12)

    def test_analytic_limit_identity(self, ref_model):
        # n^{-1/alpha} a_n equals (c/theta)^{1/alpha} for every n
        target = (ref_model.c / ref_model.theta) ** (1 / ref_model.alpha)
        for n in (10**3, 10**4, 10**5, 10**6):
            assert scaling(ref_model, n) * n ** (-1 / ref_model.alpha) == \
                pytest.approx(target, rel=1e-12)

    def test_growth_and_sublinearity(self, ref_model):
        ns = [10**3, 10**4, 10**5, 10**6]
        a = [scaling(ref_model, n) for n in ns]
        assert all(a2 > a1 for a1, a2 in zip(a, a[1:]))
        assert all(an / n < 1 for an, n in zip(a, ns))
