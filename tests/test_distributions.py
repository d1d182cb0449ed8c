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


def unmasked_immigration(law, u):
    """The inverse-CDF kernel evaluated on every draw, zeros included."""
    q = 1.0 - np.asarray(u, dtype=np.float64)
    a = float(law.alpha)
    k = np.floor((law.c / q) ** (1.0 / a)).astype(np.int64)
    target = q * (1.0 - 1e-12)
    k -= (k >= 1) & (law.c * np.maximum(k, 1) ** -a < target)
    k += law.c * (k + 1.0) ** -a >= target
    return k


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

    @pytest.mark.parametrize("alpha,c", [(1.01, 0.9), (1.5, 0.3), (1.99, 0.05)])
    def test_masked_matches_unmasked_on_blocks(self, alpha, c):
        # (T, chains) blocks as simulate_batch draws them, with rows of
        # exact CDF jumps and their neighbouring floats mixed in
        law = ImmigrationLaw(alpha, c)
        k = np.arange(1, 10**4 + 1, dtype=np.float64)
        jumps = 1.0 - c * k**-alpha
        jumps = np.concatenate([jumps, np.nextafter(jumps, 0.0),
                                np.nextafter(jumps, 1.0)])
        u = np.random.default_rng(3).random((600, 250))
        u.ravel()[::5][: len(jumps)] = jumps
        for block in (u, u[:131], u[:, :1], jumps.reshape(-1, 1)):
            got = sample_immigration_many(law, block)
            assert got.shape == block.shape and got.dtype == np.int64
            assert np.array_equal(got, unmasked_immigration(law, block))

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
        ratio = karamata_ratio(2.0, 1.5, 1e3)
        assert ratio == pytest.approx(0.344218477344572504, rel=1e-12)

    def test_converges_to_limit(self):
        errs = [abs(karamata_ratio(2.0, 1.5, x) - 1 / 3)
                for x in (1e3, 1e5, 1e7)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_beta3_within_one_percent(self):
        ratio = karamata_ratio(3.0, 1.5, 1e3)
        assert ratio == pytest.approx(1.00003162377663331, rel=1e-12)
        assert abs(ratio - karamata_limit(3.0, 1.5)) < 0.01

    def test_beta_below_alpha_exact(self):
        ratio = karamata_ratio(1.0, 1.5, 1e3)
        assert ratio == pytest.approx(1 / 3, rel=1e-12)
        assert karamata_limit(1.0, 1.5) == pytest.approx(1 / 3)

    def test_beta_equal_alpha_limit_zero(self):
        assert karamata_limit(1.5, 1.5) == 0.0

    def test_beta_equal_alpha_uses_log_moment(self):
        # the upper moment diverges at beta = alpha; the lower one is
        # alpha*log(x), so the ratio is 1/(alpha*log(x))
        assert karamata_ratio(1.5, 1.5, 10.0) == \
            pytest.approx(1 / (1.5 * math.log(10.0)), rel=1e-15)

    def test_beta_just_above_alpha_near_one(self):
        # x**(beta - alpha) - 1 rounds to 0 here; the 50-digit value of the
        # closed form at these float inputs is 6666666.99610754663452546
        assert karamata_ratio(1.5000000001, 1.5, 1.0000001) == \
            pytest.approx(6666666.99610754663452546, rel=1e-12)

    def test_rejects_nonpositive_x(self):
        # and every x <= 1: P(X > x) = 1 there, and the lower truncated
        # moment is zero
        for beta in (1.0, 1.5, 2.0):
            for x in (0.0, 0.5, 1.0, math.nan):
                with pytest.raises(ValueError, match="x must exceed 1"):
                    karamata_ratio(beta, 1.5, x)
