import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwi.estimator import (
    cls_estimate,
    replication_experiment,
    replication_seeds,
)
from gwi.process import (
    residuals,
    scaling,
    simulate,
    simulate_batch,
    stationary_init_many,
)

_EPS = np.finfo(np.float64).eps


def _oracle_terms(params, x):
    """Per-step terms of the CLS sums of one path, as float64 arrays.

    num and den run over i = 1..n; x2 and xm over the shifted window
    j = 1..n-1 (X_j^2 and X_j M_{j+1}).
    """
    x = np.asarray(x, dtype=np.float64)
    prev, cur = x[:-1], x[1:]
    xj = prev[1:]
    return {"num": prev * (cur - params.mu_B), "den": prev * prev,
            "x2": xj * xj, "xm": xj * residuals(params, x)[1:]}


def _oracle(params, x):
    """Reference (mu_hat, v1, v2) of one path by exact (fsum) summation."""
    t = {k: math.fsum(v) for k, v in _oracle_terms(params, x).items()}
    a_n = scaling(params, len(x) - 1).a_n
    mu_hat = t["num"] / t["den"] if t["den"] > 0 else math.nan
    return mu_hat, t["x2"] / a_n**2, t["xm"] / a_n**1.5


class TestClsEstimate:
    def test_hand_example(self, ref_model):
        mu_A, mu_B = ref_model.mu_A, ref_model.mu_B
        row = cls_estimate(ref_model, [1, 2, 1])
        a_n = scaling(ref_model, 2).a_n
        assert row["defined"] and row["n"] == 2 and row["a_n"] == a_n
        # num = 1*(2 - mu_B) + 2*(1 - mu_B), den = 1 + 4
        assert row["mu_hat"] == pytest.approx((4 - 3 * mu_B) / 5)
        # the shifted window holds j = 1 only: X_1 = 2, M_2 = 1 - 2 mu_A - mu_B
        assert row["v1"] == pytest.approx(4 / a_n**2)
        assert row["v2"] == pytest.approx(2 * (1 - 2 * mu_A - mu_B) / a_n**1.5)

    def test_all_zero_undefined(self, ref_model):
        row = cls_estimate(ref_model, [0, 0, 0])
        assert not row["defined"]
        assert math.isnan(row["mu_hat"]) and math.isnan(row["scaled_error"])

    def test_constant_path(self, ref_model):
        k = 7
        row = cls_estimate(ref_model, [k] * 12)
        assert row["mu_hat"] == pytest.approx((k - ref_model.mu_B) / k)

    def test_error_identity(self, ref_model, rng):
        x = simulate(ref_model, 500, 2, rng)
        row = cls_estimate(ref_model, x)
        # mu_hat - mu_A == sum X_{i-1} M_i / sum X_{i-1}^2
        prev = x[:-1].astype(np.float64)
        rhs = math.fsum(prev * residuals(ref_model, x)) / math.fsum(prev * prev)
        assert row["mu_hat"] - ref_model.mu_A == pytest.approx(rhs, abs=1e-14)

    def test_too_short(self, ref_model):
        with pytest.raises(ValueError):
            cls_estimate(ref_model, [3])

    @given(st.integers(min_value=3, max_value=40).flatmap(
        lambda k: st.lists(st.lists(st.integers(min_value=0, max_value=50),
                                    min_size=k, max_size=k),
                           min_size=1, max_size=4)))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_fsum_oracle(self, ref_model, paths):
        bundle = cls_estimate(ref_model, paths)
        for x, row in zip(paths, bundle):
            # a 1-D path gives the bundle's row, bit for bit (rep aside)
            single = cls_estimate(ref_model, x)
            for name in bundle.dtype.names[1:]:
                assert np.array_equal(single[name], row[name], equal_nan=True)
            # recursive summation of k terms is off by at most
            # (k-1) eps sum|t| (Higham, Accuracy and Stability, 4.2); the
            # terms are formed as the oracle forms them, and each division
            # adds at most one rounding of the result
            terms = _oracle_terms(ref_model, x)
            mu_hat, v1, v2 = _oracle(ref_model, x)
            a_n = row["a_n"]
            bound = {k: len(t) * _EPS * np.abs(t).sum()
                     for k, t in terms.items()}
            assert v1 == row["v1"]  # integer squares: every sum is exact
            assert abs(row["v2"] - v2) <= \
                bound["xm"] / a_n**1.5 + 2 * _EPS * abs(v2)
            assert row["defined"] == (terms["den"].sum() > 0)
            if row["defined"]:
                assert abs(row["mu_hat"] - mu_hat) <= \
                    bound["num"] / terms["den"].sum() + 2 * _EPS * abs(mu_hat)


class TestPartialSums:
    def test_single_spike(self, ref_model):
        x = np.zeros(6, dtype=np.int64)
        x[2] = 16
        row = cls_estimate(ref_model, x)
        a_n = scaling(ref_model, 5).a_n
        # only j = 2 contributes: X_2 = 16, M_3 = -16 mu_A - mu_B
        assert row["v1"] == pytest.approx(256 / a_n**2)
        m3 = -16 * ref_model.mu_A - ref_model.mu_B
        assert row["v2"] == pytest.approx(16 * m3 / a_n**1.5)

    def test_all_zero(self, ref_model):
        row = cls_estimate(ref_model, np.zeros(5, dtype=np.int64))
        assert row["v1"] == 0.0 and row["v2"] == 0.0

    def test_integer_oracle(self, ref_model, rng):
        x = simulate(ref_model, 300, 1, rng)
        a_n = scaling(ref_model, 300).a_n
        # the integer sum is exact in float64, so v1 is its one rounding
        exact = sum(int(v) ** 2 for v in x[1:-1])
        assert cls_estimate(ref_model, x)["v1"] == exact / a_n**2

    def test_validates_inputs(self, ref_model):
        for bad in (np.zeros((3, 1)), np.zeros((2, 2, 3)), []):
            with pytest.raises(ValueError):
                cls_estimate(ref_model, bad)


class TestScaledError:
    def test_zero_when_exact(self, ref_model):
        # the column is sqrt(a_n)*(mu_hat - mu_A) from the written mu_hat,
        # so recomputing it from the row leaves exactly zero
        row = cls_estimate(ref_model, [1, 2, 1])
        assert row["scaled_error"] - math.sqrt(row["a_n"]) * (
            row["mu_hat"] - ref_model.mu_A) == 0.0

    def test_undefined_is_nan(self, ref_model):
        # an undefined estimate has no scaled error: the column holds nan
        rows = cls_estimate(ref_model, [[0, 0, 0], [1, 2, 1]])
        assert rows["defined"].tolist() == [False, True]
        assert math.isnan(rows["scaled_error"][0])
        assert np.isfinite(rows["scaled_error"][1])

    def test_ratio_identity_on_shifted_window(self, ref_model, rng):
        # CLS on the shifted path X_1..X_n equals v2/v1 from the pair sums
        x = simulate(ref_model, 400, 3, rng)
        pair = cls_estimate(ref_model, x)
        shifted = cls_estimate(ref_model, x[1:])
        a_n = pair["a_n"]
        lhs = math.sqrt(a_n) * (shifted["mu_hat"] - ref_model.mu_A)
        assert lhs == pytest.approx(pair["v2"] / pair["v1"], rel=1e-10)


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
        paths = []
        for b, width in ((0, 250), (1, 50)):
            rng = np.random.default_rng([seed, b])
            inits = stationary_init_many(ref_model, tol, width, rng)
            paths.extend(simulate_batch(ref_model, n, inits, rng))
        assert np.array_equal(tab, cls_estimate(ref_model, np.array(paths)))
        ref = np.array([_oracle(ref_model, x) for x in paths])
        assert tab["defined"].all()
        assert tab["mu_hat"] == pytest.approx(ref[:, 0], rel=1e-9)
        assert tab["v1"] == pytest.approx(ref[:, 1], rel=1e-9)
        assert tab["v2"] == pytest.approx(ref[:, 2], rel=1e-9)

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
