import math

import numpy as np
import pytest
from scipy import integrate, stats

from gwi.process import simulate_batch, stationary_init_many
from gwi.tailproc import (
    exceedance_counts,
    forward_tail_normalization,
    laplace_analytic,
    laplace_functional_gap,
    run_stationary_batch,
    sample_forward_front_many,
    sample_forward_tail_xm,
    sample_tail_path,
    validate_pseudo_tail,
)

FWD_NORM_ORACLE = 1.00849070261682964  # alpha=1.5, sigma_A2=0.25, mpmath


class TestTailPath:
    def test_structure(self, rng):
        path = sample_tail_path(1.5, 0.5, 4, rng)
        assert path.value(0) == path.y0
        for i in range(5):
            assert path.value(i) == pytest.approx(0.5**i * path.y0)
        for i in range(1, 5):
            back = path.value(-i)
            if path.k >= i:
                assert back == pytest.approx(0.5**-i * path.y0)
            else:
                assert back == 0.0

    def test_front_pareto(self, rng):
        y0 = np.array([sample_tail_path(1.5, 0.5, 0, rng).y0
                       for _ in range(5000)])
        ks = stats.kstest(y0, lambda y: 1.0 - y**-1.5)
        assert ks.pvalue > 1e-3

    def test_cutoff_geometric(self, rng):
        alpha, mu = 1.5, 0.5
        theta = 1.0 - mu**alpha
        k = np.array([sample_tail_path(alpha, mu, 0, rng).k
                      for _ in range(5000)])
        assert k.min() >= 0
        # mean of the {0,1,...} geometric is (1-theta)/theta
        want = (1.0 - theta) / theta
        stderr = k.std(ddof=1) / math.sqrt(len(k))
        assert abs(k.mean() - want) < 3 * stderr

    def test_negative_window_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_tail_path(1.5, 0.5, -1, rng)


class TestForwardTail:
    def test_normalization_oracle(self):
        assert forward_tail_normalization(1.5, 0.25) == \
            pytest.approx(FWD_NORM_ORACLE, rel=1e-12)

    @pytest.mark.parametrize("alpha,s2", [(1.2, 0.5), (1.5, 0.5), (1.9, 2.0)])
    def test_normalization_against_quadrature(self, alpha, s2):
        q = 2.0 * alpha / 3.0
        sigma = math.sqrt(s2)
        inner, _ = integrate.quad(
            lambda z: stats.norm.pdf(z, scale=sigma), -1.0, 1.0)
        outer, _ = integrate.quad(
            lambda z: z ** q * stats.norm.pdf(z, scale=sigma), 1.0, np.inf)
        val = inner + 2.0 * outer
        assert forward_tail_normalization(alpha, s2) == \
            pytest.approx(val, rel=1e-9)

    def test_front_pair_identity(self, rng):
        # Ytilde * (1 v |Z0|) is exactly Pareto(2 alpha/3)
        alpha, s2 = 1.5, 0.25
        yt, z0 = sample_forward_front_many(alpha, s2, 8000, rng)
        q = 2.0 * alpha / 3.0
        prod = yt * np.maximum(1.0, np.abs(z0))
        ks = stats.kstest(prod, lambda y: 1.0 - y**-q)
        assert ks.pvalue > 1e-3
        assert np.all(yt > 0) and np.all(yt <= prod + 1e-15)

    def test_front_z_size_biased(self, rng):
        # P(|Z0| <= 1) under the biased law is inner/(inner+outer)
        alpha, s2 = 1.5, 0.25
        _, z0 = sample_forward_front_many(alpha, s2, 20000, rng)
        sigma = math.sqrt(s2)
        inner = 2.0 * stats.norm.cdf(1.0 / sigma) - 1.0
        want = inner / forward_tail_normalization(alpha, s2)
        emp = np.mean(np.abs(z0) <= 1.0)
        stderr = math.sqrt(want * (1 - want) / len(z0))
        assert abs(emp - want) < 3.5 * stderr

    def test_front_z_tail_moment(self, rng):
        # E[h(Z0)] = E[h(Z)(1 v |Z|)^q] / norm for plain normal Z;
        # checked for h(z) = 1{|z| > 1.5} via quadrature
        alpha, s2 = 1.5, 0.5
        _, z0 = sample_forward_front_many(alpha, s2, 20000, rng)
        q = 2.0 * alpha / 3.0
        sigma = math.sqrt(s2)
        num, _ = integrate.quad(
            lambda z: abs(z) ** q * stats.norm.pdf(z, scale=sigma),
            1.5, np.inf)
        want = 2.0 * num / forward_tail_normalization(alpha, s2)
        emp = np.mean(np.abs(z0) > 1.5)
        stderr = math.sqrt(want * (1 - want) / len(z0))
        assert abs(emp - want) < 3.5 * stderr

    def test_path_structure(self, rng):
        alpha, mu, s2, m = 1.5, 0.5, 0.25, 5
        fw = sample_forward_tail_xm(alpha, mu, s2, m, rng)
        assert fw.path.shape == (m + 1, 2)
        assert fw.path[0, 0] == pytest.approx(fw.ytilde)
        assert fw.path[0, 1] == pytest.approx(fw.ytilde * fw.z0)
        decay = mu ** (1.5 * np.arange(m + 1))
        assert np.allclose(fw.path[:, 0], decay * fw.ytilde)

    def test_negative_window_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_forward_tail_xm(1.5, 0.5, 0.25, -2, rng)


class TestLaplaceAnalytic:
    def test_zero_at_zero(self, ref_model):
        assert laplace_analytic(ref_model, 0.5, 0.0) == 0.0

    def test_saturates_at_intensity(self, ref_model):
        # s -> inf limit is theta * eps^-alpha (every cluster is seen)
        eps = 0.5
        lim = ref_model.theta * eps ** -ref_model.alpha
        assert laplace_analytic(ref_model, eps, 50.0) == \
            pytest.approx(lim, rel=1e-10)
        assert laplace_analytic(ref_model, eps, 1.0) < lim

    def test_monotone_in_s(self, ref_model):
        vals = [laplace_analytic(ref_model, 0.5, s)
                for s in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_against_quadrature(self, ref_model, s):
        # same quantity as theta * int_eps^inf (1 - e^{-s*m(y)})
        # alpha y^{-alpha-1} dy with m(y) the band index, plus the
        # saturated tail beyond the last band
        a, mu, th = ref_model.alpha, ref_model.mu_A, ref_model.theta
        eps = 0.5

        def m_of(y):
            return math.floor(math.log(y / eps) / math.log(1.0 / mu)) + 1

        m_last = 40
        edges = [eps * mu**-m for m in range(m_last + 1)]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            band, _ = integrate.quad(
                lambda y: (1.0 - math.exp(-s * m_of(min(y, hi * 0.9999999))))
                * a * y ** (-a - 1.0), lo, hi)
            total += band
        total += edges[-1] ** -a  # saturated remainder, 1-e^{-sm} ~ 1
        assert laplace_analytic(ref_model, eps, s) == \
            pytest.approx(th * total, rel=1e-7)


@pytest.fixture(scope="module")
def paths(ref_model):
    return run_stationary_batch(ref_model, 4 * 10**5, 20, seed=101)


class TestValidators:
    def test_batch_shape(self, paths):
        assert paths.shape == (20, 20001)

    def test_pseudo_tail_smoke(self, ref_model, paths):
        rep = validate_pseudo_tail(ref_model, paths, quantile=0.995,
                                   min_events=500)
        assert rep.n_events >= 500
        assert 0 <= rep.ks_w0_normal <= 1
        assert 0 <= rep.ks_front_pareto <= 1
        assert abs(rep.mean_ratio - ref_model.mu_A) < 0.5

    def test_insufficient_events(self, ref_model, paths):
        with pytest.raises(ValueError, match="insufficient conditioning"):
            validate_pseudo_tail(ref_model, paths, threshold=10.0**9)

    def test_laplace_gap_structure(self, ref_model):
        out = laplace_functional_gap(ref_model, 0.5, [0.5, 1.0],
                                     n=2000, a_n=20.0, reps=400, seed=7)
        assert set(out) == {0.5, 1.0}
        for rec in out.values():
            assert rec["gap"] == pytest.approx(
                abs(rec["empirical"] - rec["analytic"]))
            assert rec["stderr"] > 0

    def test_laplace_gap_deterministic(self, ref_model):
        a = laplace_functional_gap(ref_model, 0.5, 1.0, n=1000, a_n=15.0,
                                   reps=200, seed=3)
        b = laplace_functional_gap(ref_model, 0.5, 1.0, n=1000, a_n=15.0,
                                   reps=200, seed=3)
        assert a == b

    @pytest.mark.parametrize("n", [500, 3])
    def test_exceedance_counts_match_path(self, ref_model, n):
        # 300 chains: 500 steps span several reduce blocks, 3 fit in one
        reps, level = 300, 10.0
        counts = exceedance_counts(ref_model, n, reps, level, seed=[5, 0])
        rng = np.random.default_rng([5, 0])
        inits = stationary_init_many(ref_model, 1e-6, reps, rng)
        path = simulate_batch(ref_model, n, inits, rng)
        assert np.array_equal(counts, (path[:, 1:] > level).sum(axis=1))
