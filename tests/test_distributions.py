import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gwi.distributions import (
    ImmigrationLaw,
    OffspringLaw,
    karamata_limit,
    karamata_ratio,
    pareto_tail_cdf,
    pareto_truncated_moment,
    sample_aggregate_offspring_many,
    sample_immigration_many,
)

# mpmath oracle: c * zeta(alpha) at (alpha=1.5, c=0.3)
MU_B_ORACLE = 0.783712604605646503

# mpmath oracles: 0.3 * zeta(alpha)
MU_B_ZETA_ORACLES = {
    1.01: 30.173383001549061747,
    1.1: 3.1753345394852429479,
    1.5: 0.783712604605646503,
    1.9: 0.52492393053751824419,
    1.99: 0.49632300705870912353,
}


def brute_force_immigration(law, u, kmax=10**4):
    """max{k <= kmax : c*k^-alpha >= 1-u} with the same boundary guard."""
    q = (1.0 - u) * (1.0 - 1e-12)
    k = np.arange(1, kmax + 1)
    ok = law.c * k ** -float(law.alpha) >= q
    return int(k[ok][-1]) if ok.any() else 0


class TestImmigrationLaw:
    def test_parameter_validation(self):
        for alpha in (0.9, 1.0, 2.0, 2.5):
            with pytest.raises(ValueError):
                ImmigrationLaw(alpha, 0.3)
        for c in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                ImmigrationLaw(1.5, c)

    def test_mu_b_oracle(self):
        law = ImmigrationLaw(1.5, 0.3)
        assert law.mu_B == pytest.approx(MU_B_ORACLE, abs=1e-11)

    def test_mu_b_zeta_oracles(self):
        for alpha, want in MU_B_ZETA_ORACLES.items():
            assert ImmigrationLaw(alpha, 0.3).mu_B == \
                pytest.approx(want, rel=1e-13)

    def test_survival(self):
        law = ImmigrationLaw(1.5, 0.3)
        assert law.survival(0) == 1.0
        assert law.survival(1) == pytest.approx(0.3)
        assert law.survival(4) == pytest.approx(0.3 * 4**-1.5)

    def test_spec_point_values(self):
        law = ImmigrationLaw(1.5, 0.3)
        # 1-u = 0.5 > c; 0.3*2^-1.5 >= 0.1 > 0.3*3^-1.5; 1-u hits c exactly
        draws = sample_immigration_many(law, np.array([0.5, 0.9, 0.7]))
        assert draws.dtype == np.int64
        assert draws.tolist() == [0, 2, 1]

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("c", [0.1, 0.3])
    def test_matches_brute_force_cdf(self, alpha, c):
        law = ImmigrationLaw(alpha, c)
        # u grid hitting every CDF step for k <= 1e4, plus interior points
        k = np.arange(1, 10**4 + 1, dtype=np.float64)
        at_steps = 1.0 - c * k**-alpha
        at_steps = at_steps[(at_steps > 0) & (at_steps < 1)]
        between = np.linspace(1e-6, 1 - 1e-9, 2001)
        for u in np.concatenate([at_steps, between]):
            got = int(sample_immigration_many(law, np.array([u]))[0])
            want = brute_force_immigration(law, u)
            if want == 10**4:   # censored by the brute-force cap
                assert got >= want
            else:
                assert got == want, (u, got, want)

    @given(u=st.floats(min_value=1e-9, max_value=1 - 1e-9))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_u(self, u):
        law = ImmigrationLaw(1.5, 0.3)
        lo, hi = sample_immigration_many(
            law, np.array([u, min(u + 1e-4, 1 - 1e-10)]))
        assert hi >= lo


class TestOffspringLaw:
    def test_variance_identities(self):
        mu = 0.37
        assert OffspringLaw("bernoulli", mu).sigma_A2 == \
            pytest.approx(mu * (1 - mu))
        assert OffspringLaw("poisson", mu).sigma_A2 == pytest.approx(mu)
        assert OffspringLaw("geometric", mu).sigma_A2 == \
            pytest.approx(mu * (1 + mu))

    def test_parameter_validation(self):
        for mu in (0.0, 1.0, -0.3, 1.4):
            with pytest.raises(ValueError):
                OffspringLaw("poisson", mu)
        with pytest.raises(ValueError):
            OffspringLaw("zeta", 0.5)

    def test_zero_parents(self, rng):
        # zero parents give zero offspring and leave the stream untouched
        for fam in ("bernoulli", "poisson", "geometric"):
            law = OffspringLaw(fam, 0.5)
            state = rng.bit_generator.state
            draws = sample_aggregate_offspring_many(
                law, np.zeros(5, dtype=np.int64), rng)
            assert draws.dtype == np.int64
            assert np.all(draws == 0)
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("fam", ["bernoulli", "poisson", "geometric"])
    def test_zero_parents_draw_nothing(self, fam):
        # mixed zero and positive counts: same stream use as positives alone
        law = OffspringLaw(fam, 0.5)
        parents = np.array([0, 3, 0, 5, 0, 1])
        pos = parents > 0
        mixed = sample_aggregate_offspring_many(
            law, parents, np.random.default_rng(1))
        alone = sample_aggregate_offspring_many(
            law, parents[pos], np.random.default_rng(1))
        assert np.array_equal(mixed[pos], alone)
        assert np.all(mixed[~pos] == 0)

    def test_bernoulli_large_population_mean(self, rng):
        law = OffspringLaw("bernoulli", 0.5)
        n_parents, n_draws = 10**6, 10**4
        totals = sample_aggregate_offspring_many(
            law, np.full(n_draws, n_parents), rng)
        sd = math.sqrt(law.sigma_A2 / (n_parents * n_draws))
        assert abs(totals.mean() / n_parents - 0.5) < 3 * sd

    def test_poisson_aggregate_exact_law(self, rng):
        # sum of 4 Poisson(0.5) draws is Poisson(2): chi-square GOF at 1%
        law = OffspringLaw("poisson", 0.5)
        draws = sample_aggregate_offspring_many(law, np.full(10**5, 4), rng)
        kmax = 12
        obs = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
        probs = stats.poisson.pmf(np.arange(kmax), 2.0)
        probs = np.append(probs, 1.0 - probs.sum())
        chi2 = stats.chisquare(obs, probs * len(draws))
        assert chi2.pvalue > 0.01

    @pytest.mark.parametrize("fam", ["bernoulli", "poisson", "geometric"])
    def test_shortcut_matches_naive_sum(self, fam, rng):
        law = OffspringLaw(fam, 0.6)
        parents = 23
        n = 10**5
        shortcut = sample_aggregate_offspring_many(
            law, np.full(n, parents), rng)
        if fam == "bernoulli":
            naive = rng.binomial(1, 0.6, (n, parents)).sum(axis=1)
        elif fam == "poisson":
            naive = rng.poisson(0.6, (n, parents)).sum(axis=1)
        else:
            naive = (rng.geometric(1 / 1.6, (n, parents)) - 1).sum(axis=1)
        kmax = int(max(shortcut.max(), naive.max()))
        f1 = np.bincount(shortcut, minlength=kmax + 1)
        f2 = np.bincount(naive, minlength=kmax + 1)
        # lump sparse bins into one so every expected count is moderate
        keep = (f1 + f2) >= 20
        o1 = np.append(f1[keep], f1[~keep].sum())
        o2 = np.append(f2[keep], f2[~keep].sum())
        pooled = (o1 + o2) / (o1.sum() + o2.sum())
        chi1 = stats.chisquare(o1, pooled * o1.sum(), ddof=0)
        assert chi1.pvalue > 0.01


class TestKaramata:
    def test_exact_pareto_beta2_frozen(self):
        # closed form: x^2 * x^-a / ((a/(2-a))(x^{2-a}-1)) at x=1e3
        ratio = karamata_ratio(2.0, 1.5, 1e3, pareto_tail_cdf(1.5),
                               pareto_truncated_moment(1.5))
        assert ratio == pytest.approx(0.344218477344572504, rel=1e-12)

    def test_converges_to_limit(self):
        tail = pareto_tail_cdf(1.5)
        mom = pareto_truncated_moment(1.5)
        errs = [abs(karamata_ratio(2.0, 1.5, x, tail, mom) - 1 / 3)
                for x in (1e3, 1e5, 1e7)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_beta3_within_one_percent(self):
        ratio = karamata_ratio(3.0, 1.5, 1e3, pareto_tail_cdf(1.5),
                               pareto_truncated_moment(1.5))
        assert ratio == pytest.approx(1.00003162377663331, rel=1e-12)
        assert abs(ratio - karamata_limit(3.0, 1.5)) < 0.01

    def test_beta_below_alpha_exact(self):
        ratio = karamata_ratio(1.0, 1.5, 1e3, pareto_tail_cdf(1.5),
                               pareto_truncated_moment(1.5, below=False))
        assert ratio == pytest.approx(1 / 3, rel=1e-12)
        assert karamata_limit(1.0, 1.5) == pytest.approx(1 / 3)

    def test_beta_equal_alpha_limit_zero(self):
        assert karamata_limit(1.5, 1.5) == 0.0

    def test_upper_moment_rejects_beta_at_least_alpha(self):
        mom = pareto_truncated_moment(1.5, below=False)
        with pytest.raises(ValueError):
            mom(1.5, 10.0)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            karamata_ratio(2.0, 1.5, 0.0, pareto_tail_cdf(1.5),
                           pareto_truncated_moment(1.5))
