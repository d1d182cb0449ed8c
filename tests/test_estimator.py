import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwi.estimator import (
    cls_estimate,
    partial_sums,
    replication_experiment,
    replication_seeds,
    scaled_error,
)
from gwi.process import (
    Trajectory,
    residuals,
    scaling,
    simulate,
    simulate_batch,
    stationary_init_many,
)


class TestClsEstimate:
    def test_hand_example(self):
        res = cls_estimate([1, 2, 1], mu_B=1.0)
        assert res.defined
        assert res.mu_hat == pytest.approx(0.2)
        assert res.numerator == pytest.approx(1.0)
        assert res.denominator == pytest.approx(5.0)

    def test_all_zero_undefined(self):
        res = cls_estimate([0, 0, 0], mu_B=1.0)
        assert not res.defined
        assert math.isnan(res.mu_hat)

    def test_constant_path(self):
        k, mu_B = 7, 0.8
        res = cls_estimate([k] * 12, mu_B)
        assert res.mu_hat == pytest.approx((k - mu_B) / k)

    def test_error_identity(self, ref_model, rng):
        traj = simulate(ref_model, 500, 2, rng)
        res = cls_estimate(traj.x, ref_model.mu_B)
        # mu_hat - mu_A == sum X_{i-1} M_i / sum X_{i-1}^2
        lhs = res.mu_hat - ref_model.mu_A
        rhs = (res.numerator - ref_model.mu_A * res.denominator) \
            / res.denominator
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_too_short(self):
        with pytest.raises(ValueError):
            cls_estimate([3], 0.5)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=3,
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_permutation_robust_sums(self, xs):
        # exact summation: the sums are invariant under term reordering
        res = cls_estimate(xs, 0.5)
        prev = np.array(xs[:-1], dtype=float)
        cur = np.array(xs[1:], dtype=float)
        order = np.argsort(cur * 7919 % 13)
        num = math.fsum((prev * (cur - 0.5))[order])
        den = math.fsum((prev * prev)[order])
        assert num == res.numerator
        assert den == res.denominator


class TestPartialSums:
    def test_single_spike(self):
        a_n = 16.0
        x = np.zeros(6, dtype=np.int64)
        x[2] = 16
        m = np.zeros(5)
        pair = partial_sums(Trajectory(x=x, m=m), a_n)
        assert pair.v1 == pytest.approx(1.0)
        assert pair.v2 == 0.0

    def test_all_zero(self):
        pair = partial_sums(Trajectory(x=np.zeros(5, dtype=np.int64),
                                       m=np.zeros(4)), 3.0)
        assert pair.v1 == 0.0 and pair.v2 == 0.0

    def test_integer_oracle(self, ref_model, rng):
        traj = simulate(ref_model, 300, 1, rng)
        a_n = 64.0  # power of two: division then multiplication is exact
        pair = partial_sums(traj, a_n)
        exact = sum(int(v) ** 2 for v in traj.x[1:-1])
        assert pair.v1 * a_n**2 == exact

    def test_validates_inputs(self):
        t = Trajectory(x=np.array([1, 2, 3]), m=np.zeros(2))
        with pytest.raises(ValueError):
            partial_sums(t, 0.0)
        with pytest.raises(ValueError):
            partial_sums(Trajectory(x=np.array([1, 2]), m=np.zeros(1)), 1.0)


class TestScaledError:
    def test_zero_when_exact(self):
        res = cls_estimate([1, 2, 1], 1.0)
        assert scaled_error(res, res.mu_hat, 9.0) == 0.0

    def test_undefined_raises(self):
        res = cls_estimate([0, 0, 0], 1.0)
        with pytest.raises(ValueError):
            scaled_error(res, 0.5, 9.0)

    def test_ratio_identity_on_shifted_window(self, ref_model, rng):
        # CLS on the shifted path X_1..X_n equals v2/v1 from the pair sums
        traj = simulate(ref_model, 400, 3, rng)
        a_n = scaling(ref_model, 398).a_n
        res = cls_estimate(traj.x[1:], ref_model.mu_B)
        pair = partial_sums(traj, a_n)
        lhs = scaled_error(res, ref_model.mu_A, a_n)
        assert lhs == pytest.approx(pair.v2 / pair.v1, rel=1e-10)


class TestReplicationExperiment:
    def test_determinism(self, ref_model):
        a = replication_experiment(ref_model, 200, 30, seed=5)
        b = replication_experiment(ref_model, 200, 30, seed=5)
        assert np.array_equal(a, b)

    def test_worker_invariance(self, ref_model):
        # 600 reps span three blocks; 1 worker and 3 workers must agree
        a = replication_experiment(ref_model, 100, 600, seed=9, workers=1)
        b = replication_experiment(ref_model, 100, 600, seed=9, workers=3)
        assert np.array_equal(a, b)

    def test_rows_match_reference(self, ref_model):
        # 300 reps: block 0 holds 250 chains, block 1 the other 50
        n, reps, seed, tol = 2000, 300, 12, 1e-6
        tab = replication_experiment(ref_model, n, reps, seed, init_tol=tol)
        a_n = scaling(ref_model, n).a_n
        paths = []
        for b, width in ((0, 250), (1, 50)):
            rng = np.random.default_rng([seed, b])
            inits = stationary_init_many(ref_model, tol, width, rng)
            paths.extend(simulate_batch(ref_model, n, inits, rng))
        cls = [cls_estimate(x, ref_model.mu_B) for x in paths]
        pairs = [partial_sums(Trajectory(x=x, m=residuals(ref_model, x)), a_n)
                 for x in paths]
        assert all(c.defined for c in cls)
        assert tab["mu_hat"] == pytest.approx([c.mu_hat for c in cls],
                                              rel=1e-9)
        assert tab["v1"] == pytest.approx([p.v1 for p in pairs], rel=1e-9)
        assert tab["v2"] == pytest.approx([p.v2 for p in pairs], rel=1e-9)

    def test_seed_table(self):
        assert replication_seeds(250, 7) == [[7, 0]]
        assert replication_seeds(251, 7) == [[7, 0], [7, 1]]
        assert replication_seeds(1, 3) == [[3, 0]]

    def test_fields_consistent(self, ref_model):
        tab = replication_experiment(ref_model, 300, 40, seed=3)
        assert len(tab) == 40
        assert np.all(tab["rep"] == np.arange(40))
        d = tab["defined"]
        assert np.all(np.isfinite(tab["mu_hat"][d]))
        se = math.sqrt(tab["a_n"][0]) * (tab["mu_hat"][d] - ref_model.mu_A)
        assert np.allclose(se, tab["scaled_error"][d], rtol=1e-12, atol=0)
        assert np.all(tab["v1"] >= 0)

    def test_undefined_rate_bound(self, ref_model):
        # at n=8 the all-zero-history probability is at most 0.7^7
        tab = replication_experiment(ref_model, 8, 20000, seed=17)
        frac = 1.0 - tab["defined"].mean()
        bound = 0.7**7
        stderr = math.sqrt(bound * (1 - bound) / len(tab))
        assert frac <= bound + 3 * stderr

    def test_median_scaled_error_stable(self, ref_model):
        meds = [np.median(np.abs(
            replication_experiment(ref_model, 2000, 200, seed=s)
            ["scaled_error"])) for s in (1, 2)]
        assert all(np.isfinite(m) and m < 2.0 for m in meds)
