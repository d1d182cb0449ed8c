import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gwi.distributions import (
    _GUIDE,
    _KCOLS,
    _ZMAX,
    ImmigrationLaw,
    OffspringLaw,
    _offspring_tables,
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

    @pytest.mark.parametrize("fam", ["bernoulli", "poisson", "geometric"])
    def test_negative_parents_rejected(self, fam):
        # a size below 1 would read another row of the table: zero and
        # negative sizes are rejected before anything is drawn
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for bad in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                sample_aggregate_offspring_many(
                    OffspringLaw(fam, 0.5), np.array([3, bad, 2]), rng)
        assert rng.bit_generator.state == state

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


def _scipy_law(law, z):
    """The aggregate offspring law of z parents, frozen in scipy."""
    mu = law.mu_A
    return {"poisson": lambda: stats.poisson(mu * z),
            "bernoulli": lambda: stats.binom(z, mu),
            "geometric": lambda: stats.nbinom(z, 1 / (1 + mu))}[law.family]()


def _generator_draw(law, gen, z):
    """The ``Generator`` call the table falls back to."""
    mu = law.mu_A
    return {"poisson": lambda: gen.poisson(mu * z),
            "bernoulli": lambda: gen.binomial(z, mu),
            "geometric": lambda: gen.negative_binomial(z, 1 / (1 + mu)),
            }[law.family]()


def _rows(law):
    """Row z of the table: its CDF over k < _KCOLS, or None if z is not
    tabulated (its guide points at the row's +inf sentinel)."""
    cdf, guide = _offspring_tables(law.family, law.mu_A)
    cdf = cdf.reshape(_ZMAX + 2, _KCOLS + 1)
    guide = guide.reshape(_ZMAX + 2, _GUIDE)
    sentinel = np.arange(_ZMAX + 2) * (_KCOLS + 1) + _KCOLS
    return [None if guide[z, 0] == sentinel[z] else cdf[z, :_KCOLS]
            for z in range(_ZMAX + 2)]


class _PresetRng:
    """``random`` returns preset uniforms; the ``Generator`` calls go to
    ``default_rng(seed)``."""

    def __init__(self, u, seed):
        self._u = np.asarray(u, dtype=np.float64)
        self._gen = np.random.default_rng(seed)

    def random(self, size):
        assert size == len(self._u)
        return self._u.copy()

    def __getattr__(self, name):
        return getattr(self._gen, name)


class TestOffspringTable:
    """The indexed-search table behind ``sample_aggregate_offspring_many``."""

    @pytest.mark.parametrize("mu", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("fam", OffspringLaw.FAMILIES)
    def test_cdf_matches_scipy(self, fam, mu):
        # every tabulated row to 1e-14; a row is tabulated exactly where
        # its mass past the last column is below 1e-16 (scipy's sf, to
        # a factor 1.5 for the two computations)
        law = OffspringLaw(fam, mu)
        rows = _rows(law)
        assert rows[1] is not None and rows[_ZMAX + 1] is None
        k = np.arange(_KCOLS)
        for z in range(1, _ZMAX + 1):
            ref = _scipy_law(law, z)
            tail = ref.sf(_KCOLS - 1)
            if rows[z] is None:
                assert tail > 1e-16 / 1.5, (z, tail)
            else:
                assert tail < 1.5e-16, (z, tail)
                assert np.abs(rows[z] - ref.cdf(k)).max() <= 1e-14, z

    @pytest.mark.parametrize("mu", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("fam", OffspringLaw.FAMILIES)
    def test_rows_have_the_law_moments(self, fam, mu):
        # the one recurrence and the one variance agree: the pmf of every
        # tabulated row z has mean z*mu_A and variance z*sigma_A2
        law = OffspringLaw(fam, mu)
        k = np.arange(_KCOLS)
        for z, cdf in enumerate(_rows(law)):
            if cdf is None or z == 0:
                continue
            pmf = np.diff(cdf, prepend=0.0)
            mean = pmf @ k
            var = pmf @ (k - mean) ** 2
            assert abs(mean / (z * mu) - 1.0) <= 1e-10, (z, mean)
            assert abs(var / (z * law.sigma_A2) - 1.0) <= 1e-10, (z, var)

    def test_underflowing_first_term_not_tabulated(self):
        # (1 - mu_A)^z is subnormal from z = 31 at mu_A = 1 - 1e-10: the
        # recurrence would scale its few digits up to the whole row, so
        # that row falls back and the rows below it stay exact
        law = OffspringLaw("bernoulli", 1 - 1e-10)
        rows = _rows(law)
        assert rows[31] is None and rows[30] is not None
        for z in (1, 15, 30):
            ref = stats.binom(z, law.mu_A).cdf(np.arange(_KCOLS))
            assert np.abs(rows[z] - ref).max() <= 1e-14, z
        got = sample_aggregate_offspring_many(
            law, np.array([31]), _PresetRng([0.5], 3))
        assert got.tolist() == [np.random.default_rng(3).binomial(31, law.mu_A)]

    @pytest.mark.parametrize("fam", OffspringLaw.FAMILIES)
    def test_draw_is_exact_inverse(self, fam):
        # at the CDF values themselves, their neighbouring floats and the
        # guide's cell edges, the draw is the smallest k with CDF(k) > u
        law = OffspringLaw(fam, 0.5)
        for z, cdf in enumerate(_rows(law)):
            if cdf is None or z == 0:
                continue
            inner = cdf[cdf < 1.0]
            u = np.concatenate([inner, np.nextafter(inner, 0.0),
                                np.nextafter(inner, 1.0),
                                np.arange(_GUIDE) / _GUIDE,
                                np.random.default_rng(z).random(200)])
            u = u[u < min(cdf[-1], 1.0)]
            got = sample_aggregate_offspring_many(
                law, np.full(len(u), z), _PresetRng(u, 0))
            assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))

    @pytest.mark.parametrize("fam", OffspringLaw.FAMILIES)
    def test_fallbacks_are_generator_calls(self, fam):
        # the first uniform below 1: rows whose last tabulated CDF value
        # rounds below 1 fall back, and so does every family above the
        # tabulated rows; each fallback is the Generator call, in order
        law = OffspringLaw(fam, 0.5)
        rows = _rows(law)
        top = 1.0 - 2.0**-53
        short = [z for z in range(1, _ZMAX + 1)
                 if rows[z] is not None and rows[z][-1] <= top]
        full = [z for z in range(1, _ZMAX + 1)
                if rows[z] is not None and rows[z][-1] > top]
        large = [z for z in range(1, 3 * _ZMAX)
                 if rows[min(z, _ZMAX + 1)] is None]
        assert short and large
        parents = np.array(full + short + large)
        got = sample_aggregate_offspring_many(
            law, parents, _PresetRng(np.full(len(parents), top), 5))
        n = len(full)
        assert np.array_equal(got[:n], [np.searchsorted(rows[z], top, "right")
                                        for z in full])
        want = _generator_draw(law, np.random.default_rng(5), parents[n:])
        assert np.array_equal(got[n:], want)

    @pytest.mark.parametrize("fam", OffspringLaw.FAMILIES)
    @pytest.mark.parametrize("z", [1, 7, 31])
    def test_draw_law(self, fam, z):
        # chi-square against scipy's pmf at 0.1% (nine tests), with the
        # outer 1e-4 of the mass on each side pooled into its end bin
        law = OffspringLaw(fam, 0.5)
        draws = sample_aggregate_offspring_many(
            law, np.full(10**5, z), np.random.default_rng(z))
        ref = _scipy_law(law, z)
        lo, hi = int(ref.ppf(1e-4)), int(ref.ppf(1 - 1e-4))
        probs = ref.pmf(np.arange(lo, hi + 1))
        probs[0], probs[-1] = ref.cdf(lo), ref.sf(hi - 1)
        obs = np.bincount(np.clip(draws, lo, hi) - lo, minlength=len(probs))
        assert stats.chisquare(obs, probs * len(draws)).pvalue > 1e-3

    def test_tables_leave_identity_alone(self):
        # equality, hash and repr see only family, mu_A and sigma_A2, and
        # a pickled law (``run_blocks`` sends one to each worker) draws
        # the same stream
        law = OffspringLaw("Geometric", 0.5)
        assert law == OffspringLaw("geometric", 0.5)
        assert hash(law) == hash(("geometric", 0.5, 0.75))
        assert repr(law) == \
            "OffspringLaw(family='geometric', mu_A=0.5, sigma_A2=0.75)"
        back = pickle.loads(pickle.dumps(law))
        assert back == law and hash(back) == hash(law)
        parents = np.arange(1, 60)
        assert np.array_equal(
            sample_aggregate_offspring_many(back, parents,
                                            np.random.default_rng(2)),
            sample_aggregate_offspring_many(law, parents,
                                            np.random.default_rng(2)))

    def test_tables_are_a_cache(self):
        # a law is its three fields; the table is built on the first draw
        # for its (family, mu_A), shared by equal laws and read-only
        assert [f.name for f in dataclasses.fields(OffspringLaw)] == \
            ["family", "mu_A", "sigma_A2"]
        assert len(pickle.dumps(OffspringLaw("poisson", 0.5))) < 1000
        _offspring_tables.cache_clear()
        OffspringLaw("Geometric", 0.5)
        assert _offspring_tables.cache_info().currsize == 0
        for fam in ("Geometric", "geometric"):
            sample_aggregate_offspring_many(
                OffspringLaw(fam, 0.5), np.array([1, 40]),
                np.random.default_rng(0))
        info = _offspring_tables.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        for table in _offspring_tables("geometric", 0.5):
            with pytest.raises(ValueError):
                table[0] = 0


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
