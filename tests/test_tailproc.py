import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr

from gwi.distributions import ImmigrationLaw, OffspringLaw
from gwi import tailproc
from gwi.process import (
    ModelParams,
    stationary_init_many,
)
from gwi.tailproc import (
    _ks,
    exceedance_counts,
    forward_tail_normalization,
    laplace_analytic,
    laplace_functional_gap,
    run_stationary_batch,
    sample_forward_front_many,
    sample_tail_paths,
    validate_pseudo_tail,
)

FWD_NORM_ORACLE = 1.00849070261682964  # alpha=1.5, sigma_A2=0.25, mpmath


@pytest.fixture
def tail_draws(rng):
    """5000 tail paths at alpha = 1.5, mu_A = 0.5 on the window -4..4."""
    return sample_tail_paths(1.5, 0.5, 4, 5000, rng)


class TestTailPath:
    def test_structure(self, tail_draws):
        y, k = tail_draws
        assert y.shape == (5000, 9) and k.shape == (5000,)
        y0 = y[:, 4]
        for i in range(5):
            assert y[:, 4 + i] == pytest.approx(0.5**i * y0, rel=1e-15)
        for i in range(1, 5):
            back = y[:, 4 - i]
            alive = k >= i
            # both branches occur: P(K >= 4) = 0.5^6 of 5000 draws
            assert alive.any() and not alive.all()
            assert back[alive] == pytest.approx(0.5**-i * y0[alive],
                                                rel=1e-15)
            assert np.all(back[~alive] == 0.0)

    def test_front_pareto(self, tail_draws):
        ks = stats.kstest(tail_draws[0][:, 4], lambda y: 1.0 - y**-1.5)
        assert ks.pvalue > 1e-3

    def test_cutoff_geometric(self, tail_draws):
        alpha, mu = 1.5, 0.5
        theta = 1.0 - mu**alpha
        k = tail_draws[1]
        assert k.min() >= 0
        # mean of the {0,1,...} geometric is (1-theta)/theta
        want = (1.0 - theta) / theta
        stderr = k.std(ddof=1) / math.sqrt(len(k))
        assert abs(k.mean() - want) < 3 * stderr

    def test_negative_window_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_tail_paths(1.5, 0.5, -1, 10, rng)


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

    def test_front_single_draw(self):
        # at size 1 one component of the mixture draws nothing; over 40
        # seeds each component makes the draw (|Z0| <= 1 inside, > 1 out)
        alpha, s2 = 1.5, 1.0
        outside = set()
        for seed in range(40):
            (yt, z0), (yt2, z02) = (
                sample_forward_front_many(alpha, s2, 1,
                                          np.random.default_rng(seed))
                for _ in range(2))
            assert yt.shape == z0.shape == (1,)
            assert np.all(np.isfinite(yt)) and np.all(np.isfinite(z0))
            assert yt[0] > 0
            assert np.array_equal(yt, yt2) and np.array_equal(z0, z02)
            outside.add(bool(abs(z0[0]) > 1.0))
        assert outside == {False, True}


# the band series theta^2 eps^-alpha sum_{m>=1} (1 - e^{-sm}) mu_A^{alpha(m-1)}
# at eps = 0.5, keyed by (alpha, mu_A, s): mpmath.nsum at 50 digits from the
# float inputs
LAPLACE_ORACLE = {
    (1.01, 0.01, 1e-8): 2.0139110898497007719e-8,
    (1.01, 0.01, 1e-3): 0.0020128850815815772038,
    (1.01, 0.01, 1.0): 1.2653225822509723294,
    (1.5, 0.5, 1e-8): 2.8284270951348732127e-8,
    (1.5, 0.5, 1e-3): 0.0028254688546341096004,
    (1.5, 0.5, 1.0): 1.3285893859121141558,
    (1.99, 0.9, 1e-8): 3.9723697915940758016e-8,
    (1.99, 0.9, 1e-3): 0.0039534448377058373241,
    (1.99, 0.9, 1.0): 0.67685151388148852286,
}


class TestLaplaceAnalytic:
    def test_zero_at_zero(self, ref_model):
        assert laplace_analytic(ref_model, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("alpha,mu_A,s", list(LAPLACE_ORACLE))
    def test_frozen_oracle(self, alpha, mu_A, s):
        params = ModelParams(offspring=OffspringLaw("poisson", mu_A),
                             immigration=ImmigrationLaw(alpha, 0.3))
        want = LAPLACE_ORACLE[alpha, mu_A, s]
        assert laplace_analytic(params, 0.5, s) == \
            pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("s", [-1.0, -2.0, math.nan])
    def test_rejects_negative_s(self, ref_model, s):
        with pytest.raises(ValueError, match="nonnegative"):
            laplace_analytic(ref_model, 0.5, s)

    def test_gap_rejects_negative_s_before_simulating(self, ref_model,
                                                      monkeypatch):
        monkeypatch.setattr(tailproc, "exceedance_counts",
                            lambda *args, **kw: pytest.fail("chains simulated"))
        with pytest.raises(ValueError, match="nonnegative"):
            laplace_functional_gap(ref_model, 0.5, [1.0, -1.0], n=100,
                                   reps=10, seed=0)

    def test_gap_survives_underflow(self, ref_model, monkeypatch):
        # exp(-2 * 800) underflows to 0; shifted by the least count, the
        # empirical value is 1600 - log((1 + exp(-200)) / 2)
        monkeypatch.setattr(tailproc, "exceedance_counts",
                            lambda *args, **kw: np.array([800, 900]))
        out = laplace_functional_gap(ref_model, 0.5, [2.0], n=100, reps=2,
                                     seed=0)
        assert out[2.0]["empirical"] == pytest.approx(1600 + math.log(2),
                                                      rel=1e-15)
        assert math.isfinite(out[2.0]["stderr"])
        # one chain carries all the weight
        assert out[2.0]["ess"] == 1.0

    def test_ess_of_equal_counts(self, ref_model, monkeypatch):
        # equal weights: every chain counts, whatever s
        monkeypatch.setattr(tailproc, "exceedance_counts",
                            lambda *args, **kw: np.full(7, 3))
        out = laplace_functional_gap(ref_model, 0.5, [0.0, 0.5, 2.0], n=100,
                                     reps=7, seed=0)
        assert [rec["ess"] for rec in out.values()] == [7.0, 7.0, 7.0]

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
        rep = validate_pseudo_tail(ref_model, paths, quantile=0.995)
        assert set(rep) == {"threshold", "n_events", "ks_w0_normal",
                            "mean_ratio", "sd_ratio", "ks_front_pareto"}
        assert rep["n_events"] >= tailproc.MIN_EVENTS
        assert 0 <= rep["ks_w0_normal"] <= 1
        assert 0 <= rep["ks_front_pareto"] <= 1
        assert abs(rep["mean_ratio"] - ref_model.mu_A) < 0.5

    def test_insufficient_events(self, ref_model, paths):
        with pytest.raises(ValueError, match="insufficient conditioning"):
            # at most 1.04 of the 400020 values lie above this quantile
            validate_pseudo_tail(ref_model, paths, quantile=1.0 - 1e-7)

    def test_insufficient_events_message(self, ref_model):
        # 1001 values of 1100 tie at the quantile: none lies above it
        paths = np.zeros((100, 11), dtype=np.int64)
        paths.flat[:1001] = 7
        with pytest.raises(ValueError) as exc:
            validate_pseudo_tail(ref_model, paths, quantile=0.5)
        for word in ("0 lie", "threshold 7", f"{tailproc.MIN_EVENTS}"):
            assert word in str(exc.value)

    def test_laplace_gap_structure(self, ref_model):
        out = laplace_functional_gap(ref_model, 0.5, [0.5, 1.0],
                                     n=2000, reps=400, seed=7)
        assert set(out) == {0.5, 1.0}
        for rec in out.values():
            assert rec["gap"] == pytest.approx(
                abs(rec["empirical"] - rec["analytic"]))
            assert rec["stderr"] > 0
            assert 1.0 <= rec["ess"] <= 400.0

    def test_laplace_gap_deterministic(self, ref_model):
        a = laplace_functional_gap(ref_model, 0.5, [1.0], n=1000, reps=200,
                                   seed=3)
        b = laplace_functional_gap(ref_model, 0.5, [1.0], n=1000, reps=200,
                                   seed=3)
        assert a == b

    @pytest.mark.parametrize("n", [500, 3])
    def test_exceedance_counts_match_path(self, ref_model, stored, n):
        # 300 chains: 500 steps span several reduce blocks, 3 fit in one;
        # the chains cross a farm block boundary at 250, keyed [5, 0, b]
        reps, level = 300, 10.0
        counts = exceedance_counts(ref_model, n, reps, level, seed=[5, 0])
        path = []
        for b, width in ((0, 250), (1, 50)):
            rng = np.random.default_rng([5, 0, b])
            inits = stationary_init_many(ref_model, width, rng)
            path.extend(stored(ref_model, n, inits, rng))
        path = np.array(path)
        assert np.array_equal(counts, (path[:, 1:] > level).sum(axis=1))


class TestKS:
    """``_ks`` is scipy's one-sample two-sided KS statistic, bit for bit."""

    @staticmethod
    def _check(sample, cdf):
        assert _ks(sample, cdf) == stats.kstest(sample, cdf).statistic

    def test_normal_sample(self, rng):
        sigma = 0.5
        self._check(rng.normal(0.0, sigma, 4000), lambda v: ndtr(v / sigma))

    def test_pareto_sample(self, rng):
        alpha = 1.5
        self._check(rng.random(4000) ** (-1.0 / alpha),
                    lambda y: 1.0 - y ** -alpha)

    def test_ties(self, ref_model, paths):
        # integer path values over a threshold, as validate_pseudo_tail
        # takes the overshoot: many ties
        x = paths[:, :-1]
        threshold = float(np.quantile(x, 0.995))
        front = x[x > threshold].astype(np.float64) / threshold
        assert len(np.unique(front)) < len(front)
        alpha = ref_model.alpha
        self._check(front, lambda y: 1.0 - y ** -alpha)

    @pytest.mark.parametrize("value", [-0.3, 0.0, 2.0])
    def test_single_value(self, value):
        self._check(np.array([value]), ndtr)
