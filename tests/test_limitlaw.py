import math

import numpy as np
import pytest

from gwi import limitlaw
from gwi.limitlaw import (
    LimitParams,
    _poisson_points,
    cdf_ratio,
    cf_joint,
    cf_log,
    cf_marginals,
    cf_rule_health,
    limit_u_samples,
    sample_limit_pairs,
    truncation_bounds,
)
from gwi.quadrature import QuadratureError

# mpmath oracles at (alpha=1.5, mu_A=0.5)
C1_ORACLE = 1.11290335080428138
C2_HALF = 0.612454142005595217    # sigma_A2 = 0.5
C2_QUARTER = 0.433070476977945122  # sigma_A2 = 0.25
DEP_GAP_ORACLE = 0.107343202927    # |cf(1,1) - product| at sigma_A2 = 0.25

# cf_log at ((alpha, mu_A, sigma_A2), (s, t)), frozen from the earlier
# real-axis evaluator (adaptive Gauss-Kronrod panels with an Euler-summed
# oscillatory tail), which converged at each of these points.  The first
# and fourth agree with mpmath.quad on the real axis (30 digits) to
# 4e-13 and 1e-13 relative.
CF_LOG_ORACLE = [
    ((1.5, 0.5, 0.5), (1.0, 1.0), -1.1785760908749467 + 2.5582980614134407j),
    ((1.5, 0.5, 0.5), (-2.0, 0.5), -1.879600813444861 - 4.4997720494954265j),
    ((1.5, 0.5, 0.5), (0.3, 3.0), -1.8506003838582588 + 0.614110746421212j),
    ((1.1, 0.3, 0.7), (2.0, 1.0), -1.456938563327514 + 1.620408583948062j),
    ((1.9, 0.8, 0.2), (-1.0, 2.0), -1.5698875968793407 - 17.516857058224797j),
    ((1.3, 0.5, 0.5), (5.0, 0.2), -2.711690095117898 + 4.423751132008983j),
    ((1.7, 0.9, 0.9), (-0.5, 0.1), -0.5428862673870268 - 2.2560966685187807j),
    ((1.05, 0.05, 0.05), (3.0, 0.7), -2.1592041375231266 + 2.333584652577959j),
]


class TestLimitParams:
    def test_constants(self, ref_limit):
        assert ref_limit.C1 == pytest.approx(C1_ORACLE, rel=1e-12)
        assert ref_limit.C2 == pytest.approx(C2_HALF, rel=1e-12)
        p25 = LimitParams(1.5, 0.5, 0.25)
        assert p25.C2 == pytest.approx(C2_QUARTER, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LimitParams(2.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            LimitParams(1.5, 1.0, 0.5)
        with pytest.raises(ValueError):
            LimitParams(1.5, 0.5, 0.0)


class TestCharacteristicFunctions:
    def test_at_origin(self, ref_limit):
        assert cf_joint(ref_limit, 0.0, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("s", [-4.0, -1.0, -0.25, 0.5, 2.0, 5.0])
    def test_v1_axis_matches_positive_stable_form(self, ref_limit, s):
        phi = cf_joint(ref_limit, s, 0.0)
        closed, _ = cf_marginals(ref_limit, s, 0.0)
        assert abs(phi - closed) < 1e-6

    @pytest.mark.parametrize("t", [-5.0, -0.5, 0.75, 3.0])
    def test_v2_axis_matches_symmetric_stable_form(self, ref_limit, t):
        phi = cf_joint(ref_limit, 0.0, t)
        _, closed = cf_marginals(ref_limit, 0.0, t)
        assert abs(phi - closed) < 1e-6

    def test_marginal_modulus_and_symmetry(self, ref_limit):
        for s in (0.5, 2.0):
            m1, m2 = cf_marginals(ref_limit, s, s)
            assert abs(m1) == pytest.approx(
                math.exp(-ref_limit.C1 * s ** (ref_limit.alpha / 2)))
            assert 0 < m2 <= 1
            assert cf_marginals(ref_limit, s, -s)[1] == m2

    def test_operator_scaling(self, ref_limit):
        a_exp = 2.0 / ref_limit.alpha
        b_exp = 3.0 / (2.0 * ref_limit.alpha)
        for a in (0.5, 2.0, 10.0):
            for s, t in ((0.4, 0.7), (-1.5, 1.0), (2.0, -0.3)):
                lhs = cf_joint(ref_limit, a**a_exp * s, a**b_exp * t)
                rhs = np.exp(a * cf_log(ref_limit, s, t))
                assert abs(lhs - rhs) < 1e-6

    def test_other_parameter_points(self):
        # closed-form axes hold across the parameter space
        for alpha, mu, s2 in ((1.1, 0.3, 0.7), (1.9, 0.8, 0.2)):
            p = LimitParams(alpha, mu, s2)
            for v in (0.5, 3.0):
                assert abs(cf_joint(p, v, 0.0) - cf_marginals(p, v, 0.0)[0]) \
                    < 1e-6
                assert abs(cf_joint(p, 0.0, v) - cf_marginals(p, 0.0, v)[1]) \
                    < 1e-6

    @pytest.mark.parametrize("params, st, want", CF_LOG_ORACLE)
    def test_frozen_oracle(self, params, st, want):
        assert cf_log(LimitParams(*params), *st) == pytest.approx(want, rel=1e-9)

    def test_far_v1_axis(self, ref_limit):
        # the real-axis evaluator raised here; the closed form is exact
        p, s = ref_limit, 1e4
        closed = -p.C1 * s ** (p.alpha / 2) \
            * (1 - 1j * math.tan(math.pi * p.alpha / 4))
        assert cf_log(p, s, 0.0) == pytest.approx(closed, rel=1e-9)
        assert cf_joint(p, s, 0.0) == pytest.approx(
            cf_marginals(p, s, 0.0)[0], rel=1e-9)

    def test_rule_health(self, ref_limit):
        health = cf_rule_health(ref_limit)
        assert health["cf_nodes"] in limitlaw._RULE_NODES
        assert 0 < health["cf_rule_error"] <= limitlaw.CF_RULE_TOL

    def test_dependence_gap(self):
        p = LimitParams(1.5, 0.5, 0.25)
        m1, m2 = cf_marginals(p, 1.0, 1.0)
        gap = abs(cf_joint(p, 1.0, 1.0) - m1 * m2)
        assert gap == pytest.approx(DEP_GAP_ORACLE, abs=1e-6)
        assert gap > 1e-3


def _series_points(p, eps, size, rng):
    """Counts, then the points of ``size`` series drawn by the kernel."""
    counts = rng.poisson(p.theta * eps ** -p.alpha, size)
    return _poisson_points(p, eps, counts, rng)


class TestSampler:
    def test_reproducible(self, ref_limit):
        a = sample_limit_pairs(ref_limit, 0.01, 50, np.random.default_rng(3))
        b = sample_limit_pairs(ref_limit, 0.01, 50, np.random.default_rng(3))
        assert a.tobytes() == b.tobytes()

    def test_rejects_bad_eps(self, ref_limit, rng):
        with pytest.raises(ValueError):
            sample_limit_pairs(ref_limit, 0.0, 10, rng)
        with pytest.raises(ValueError):
            limit_u_samples(ref_limit, -1.0, 10, rng)

    def test_empty_sum_flagged(self, ref_limit):
        # huge eps: expected count theta*eps^-alpha ~ 6.5e-3, empty sums occur
        tab = sample_limit_pairs(ref_limit, 100.0, 50,
                                 np.random.default_rng(0))
        empties = tab[tab["terms_used"] == 0]
        assert len(empties)
        assert np.all(empties["v1"] == 0.0) and np.all(empties["v2"] == 0.0)
        assert truncation_bounds(ref_limit, 100.0)[0] > 0

    def test_terms_used_mean(self, ref_limit, rng):
        eps = 0.05
        tab = sample_limit_pairs(ref_limit, eps, 20000, rng)
        lam = ref_limit.theta * eps ** -ref_limit.alpha
        stderr = math.sqrt(lam / len(tab))
        assert abs(tab["terms_used"].mean() - lam) < 3 * stderr

    def test_campbell_band_mean(self, ref_limit, rng):
        # E[sum P^2 over eps < P <= K] = theta*alpha*(K^{2-a}-eps^{2-a})/(2-a)
        a, th = ref_limit.alpha, ref_limit.theta
        eps, cap = 0.05, 1.0
        idx, pts = _series_points(ref_limit, eps, 4000, rng)
        sums = np.bincount(idx, weights=np.where(pts <= cap, pts**2, 0.0),
                           minlength=4000)
        want = th * a * (cap ** (2 - a) - eps ** (2 - a)) / (2 - a)
        stderr = sums.std(ddof=1) / math.sqrt(len(sums))
        assert abs(sums.mean() - want) < 3 * stderr

    def test_truncation_certification_paired(self, ref_limit, rng):
        # common points: dropping the (eps/2, eps] band moves the v1 mean
        # by less than the sum of the two closed-form bounds
        eps = 0.1
        m2 = 1.0 - ref_limit.mu_A**2
        idx, pts = _series_points(ref_limit, eps / 2, 4000, rng)
        fine = np.bincount(idx, weights=pts**2, minlength=4000) / m2
        coarse = np.bincount(idx, weights=np.where(pts > eps, pts**2, 0.0),
                             minlength=4000) / m2
        diffs = fine - coarse
        b_old, _ = truncation_bounds(ref_limit, eps)
        b_new, _ = truncation_bounds(ref_limit, eps / 2)
        assert 0 <= np.mean(diffs) <= b_old + b_new

    def test_compensated_mode_moves_mean(self, ref_limit):
        raw = sample_limit_pairs(ref_limit, 0.05, 5000,
                                 np.random.default_rng(8))
        comp = sample_limit_pairs(ref_limit, 0.05, 5000,
                                  np.random.default_rng(8), compensate=True)
        b1, _ = truncation_bounds(ref_limit, 0.05)
        assert np.allclose(comp["v1"] - raw["v1"], b1)

    def test_v2_marginal_cf(self, ref_limit, rng):
        tab = sample_limit_pairs(ref_limit, 0.01, 30000, rng, compensate=True)
        for t in (0.5, 1.0, 2.0):
            emp = np.exp(1j * t * tab["v2"])
            _, closed = cf_marginals(ref_limit, 0.0, t)
            # standard error of a complex mean
            stderr = math.sqrt(np.mean(np.abs(emp - emp.mean())**2) / len(tab))
            slack = 2e-3 * t
            assert abs(emp.mean() - closed) < 3 * stderr + slack

    def test_consumers_pinned_to_kernel(self, ref_limit):
        # rebuild S2 and S3 from the kernel's points on the same stream;
        # V2 is then sqrt(sigma_A2 S3/(1-mu_A^3)) times the next normals,
        # which is the scale mixture V2/V1 = k sqrt(U) N
        p, eps, size = ref_limit, 0.02, 400
        a, m, th = p.alpha, p.mu_A, p.theta
        r2 = th * a * eps ** (2 - a) / (2 - a)
        r3 = th * a * eps ** (3 - a) / (3 - a)
        rng = np.random.default_rng(77)
        idx, pts = _series_points(p, eps, size, rng)
        s2 = np.bincount(idx, weights=pts**2, minlength=size) + r2
        s3 = np.bincount(idx, weights=pts**3, minlength=size) + r3
        normals = rng.standard_normal(size)

        tab = sample_limit_pairs(p, eps, size, np.random.default_rng(77),
                                 compensate=True)
        np.testing.assert_allclose(tab["v1"], s2 / (1 - m**2), rtol=1e-12)
        u = limit_u_samples(p, eps, size, np.random.default_rng(77))
        np.testing.assert_allclose(u, th ** (1 / a) * s3 / s2**2, rtol=1e-12)
        k = (1 - m**2) * math.sqrt(p.sigma_A2 / (1 - m**3)) \
            * th ** (-1 / (2 * a))
        np.testing.assert_allclose(tab["v2"] / tab["v1"] / (k * np.sqrt(u)),
                                   normals, rtol=1e-12)

    def test_draws_independent_of_chunk(self, ref_limit, monkeypatch):
        outs = []
        for chunk in (1, 2**20):
            monkeypatch.setattr(limitlaw, "_CHUNK_POINTS", chunk)
            outs.append((
                sample_limit_pairs(ref_limit, 0.05, 200,
                                   np.random.default_rng(5), compensate=True),
                limit_u_samples(ref_limit, 0.05, 200,
                                np.random.default_rng(5))))
        (pairs_a, u_a), (pairs_b, u_b) = outs
        assert pairs_a.tobytes() == pairs_b.tobytes()
        assert u_a.tobytes() == u_b.tobytes()


class TestUStatistic:
    def test_exponential_bound_small(self, ref_limit, rng):
        u = limit_u_samples(ref_limit, 0.01, 20000, rng)
        for x in (1.0, 1.5):
            emp = np.mean(u > x)
            bound = math.exp(-x**ref_limit.alpha)
            stderr = math.sqrt(bound * (1 - bound) / len(u))
            assert emp <= bound + 3 * stderr


class TestCdfRatio:
    def test_at_zero(self, ref_limit):
        assert cdf_ratio(ref_limit, 0.0) == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_symmetry(self, ref_limit, x):
        total = cdf_ratio(ref_limit, x) + cdf_ratio(ref_limit, -x)
        assert total == pytest.approx(1.0, abs=2e-4)

    def test_monotone(self, ref_limit):
        grid = [-1.0, -0.5, -0.2, 0.0, 0.2, 0.5, 1.0]
        vals = [cdf_ratio(ref_limit, x) for x in grid]
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))
        assert vals[0] > -1e-4 and vals[-1] < 1 + 1e-4

    def test_against_monte_carlo(self, ref_limit, rng):
        tab = sample_limit_pairs(ref_limit, 0.01, 20000, rng, compensate=True)
        ratio = np.sort(tab["v2"] / tab["v1"])
        for x in (-0.5, 0.2, 0.5):
            ecdf = np.searchsorted(ratio, x, side="right") / len(ratio)
            assert abs(cdf_ratio(ref_limit, x) - ecdf) < 0.015

    @pytest.mark.parametrize("alpha", [1.05, 1.3, 1.7, 1.95])
    @pytest.mark.parametrize("mu_A", [0.05, 0.5, 0.95])
    def test_range_sweep(self, alpha, mu_A):
        p = LimitParams(alpha, mu_A, mu_A)
        grid = np.linspace(-2.0, 2.0, 11)
        vals = [cdf_ratio(p, x) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert cdf_ratio(p, 0.0) == 0.5
        assert all(cdf_ratio(p, x) + cdf_ratio(p, -x) == 1.0 for x in grid)
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("params, x", [
        ((1.5, 0.5, 0.5), 20.0), ((1.5, 0.5, 0.5), 100.0),
        ((1.5, 0.5, 0.5), -2.0), ((1.01, 0.5, 0.5), 1.0),
        ((1.99, 0.5, 0.5), 1.0), ((1.5, 0.99, 0.99), 1.0)])
    def test_former_failures(self, params, x):
        # each of these used to leave [0, 1] or raise
        v = cdf_ratio(LimitParams(*params), x)
        assert 0.0 <= v <= 1.0
        assert (v > 0.5) == (x > 0)

    def test_unreachable_tol_raises(self, ref_limit):
        with pytest.raises(QuadratureError, match="CF rule"):
            cdf_ratio(ref_limit, 1.0, tol=1e-15)
