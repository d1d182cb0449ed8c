"""End-to-end acceptance checks at the reference configuration.

Reference configuration: alpha=1.5, mu_A=0.5, Poisson offspring
(sigma_A2=0.5), c=0.3, master seed 42.  Each test prints a single
PASS/FAIL line with the measured quantity (run pytest with -s to see
them for passing tests).
"""

import math
import os

import numpy as np
import pytest
from scipy import stats

from gwi.distributions import (
    karamata_limit,
    karamata_ratio,
)
from gwi.estimator import replication_experiment
from gwi.limitlaw import (
    cdf_ratio,
    cf_joint,
    cf_log,
    cf_marginals,
    limit_u_samples,
    sample_limit_pairs,
    truncation_bounds,
)
from gwi.process import scaling, stationary_init_many
from gwi.tailproc import (
    forward_tail_normalization,
    laplace_functional_gap,
    run_stationary_batch,
    sample_forward_front_many,
    validate_pseudo_tail,
)

MASTER_SEED = 42
_WORKERS = min(8, os.cpu_count() or 1)

# arbitrary-precision oracle values at the reference configuration
C1_ORACLE = 1.11290335080428138
C2_ORACLE = 0.612454142005595217          # sigma_A2 = 0.5
FWD_NORM_ORACLE = 1.00849070261682964     # alpha = 1.5, sigma_A = 0.5

_EPS_LIMIT = 3.5e-3  # truncation level: raw remainder bounds < 1e-3


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def limit_table(ref_limit):
    """2e5 compensated limit-pair draws, derived seed [42, 1]."""
    rng = np.random.default_rng([MASTER_SEED, 1])
    return sample_limit_pairs(ref_limit, _EPS_LIMIT, 2 * 10**5, rng,
                              compensate=True)


@pytest.fixture(scope="module")
def tail_run(ref_model):
    """1e7 stationary transitions over 100 chains, derived seed [42, 2]."""
    return run_stationary_batch(ref_model, 10**7, 100, [MASTER_SEED, 2])


# Replications per n for acceptance 05.  Over master seeds 1-11 and 42,
# the seed-to-seed SD of KS(n=1e5) was 0.0097 at 2000 replications (4 of
# 12 seeds above 0.06) and 0.0060 at 8000 (none above 0.06, mean 0.050).
# The first 2000 replications are the same at either count: block b of
# 250 replications always draws from default_rng([seed, b]).
_REPS_05 = 8000


@pytest.fixture(scope="module")
def replications_1e5(ref_model):
    return replication_experiment(ref_model, 10**5, _REPS_05, MASTER_SEED,
                                  workers=_WORKERS)


@pytest.fixture(scope="module")
def replications_1e4(ref_model):
    return replication_experiment(ref_model, 10**4, _REPS_05, MASTER_SEED,
                                  workers=_WORKERS)


def test_acceptance_01_constants(ref_limit):
    e1 = abs(ref_limit.C1 / C1_ORACLE - 1.0)
    e2 = abs(ref_limit.C2 / C2_ORACLE - 1.0)
    _report(1, e1 < 1e-10 and e2 < 1e-10,
            f"C1 rel err {e1:.2e}, C2 rel err {e2:.2e} (tol 1e-10)")


def test_acceptance_02_cf_consistency(ref_limit):
    grid = np.linspace(-5.0, 5.0, 21)
    worst_axes = 0.0
    for v in grid:
        m1, m2 = cf_marginals(ref_limit, v, v)
        worst_axes = max(worst_axes,
                         abs(cf_joint(ref_limit, v, 0.0) - m1),
                         abs(cf_joint(ref_limit, 0.0, v) - m2))
    worst_scale = 0.0
    for a in (0.5, 2.0, 10.0):
        for s, t in ((0.5, 0.5), (-1.0, 1.5), (2.0, -0.5)):
            lhs = cf_joint(ref_limit, a ** (2.0 / ref_limit.alpha) * s,
                           a ** (1.5 / ref_limit.alpha) * t)
            rhs = np.exp(a * cf_log(ref_limit, s, t))
            worst_scale = max(worst_scale, abs(lhs - rhs))
    ok = worst_axes <= 1e-6 and worst_scale <= 1e-6
    _report(2, ok, f"axes sup err {worst_axes:.2e}, "
            f"operator-scaling sup err {worst_scale:.2e} (tol 1e-6)")


def test_acceptance_03_sampler_vs_cf(ref_limit, limit_table):
    b1, b2 = truncation_bounds(ref_limit, _EPS_LIMIT)
    v1, v2 = limit_table["v1"], limit_table["v2"]
    n = len(limit_table)
    worst_margin = -math.inf
    worst = None  # worst informative point (the origin is exactly 0 = 0)
    for s in np.linspace(-2.0, 2.0, 5):
        for t in np.linspace(-2.0, 2.0, 5):
            emp = np.exp(1j * (s * v1 + t * v2))
            diff = abs(emp.mean() - cf_joint(ref_limit, float(s), float(t)))
            stderr = float(np.abs(emp - emp.mean()).std()) / math.sqrt(n)
            slack = abs(s) * b1 + abs(t) * b2
            margin = diff - (3.0 * stderr + slack)
            worst_margin = max(worst_margin, margin)
            if stderr > 0 and (worst is None or margin > worst[5]):
                worst = (s, t, diff, stderr, slack, margin)
    s, t, diff, stderr, slack, _ = worst
    _report(3, worst_margin <= 0.0,
            f"worst grid point (s={s:g}, t={t:g}): |emp-cf|={diff:.2e} vs "
            f"3*stderr+slack={3 * stderr + slack:.2e}")


def test_acceptance_04_ratio_cdf_inversion(ref_limit, limit_table):
    ratio = np.sort(limit_table["v2"] / limit_table["v1"])
    grid = np.linspace(-5.0, 5.0, 101)
    sup = 0.0
    for x in grid:
        ecdf = np.searchsorted(ratio, x, side="right") / len(ratio)
        sup = max(sup, abs(cdf_ratio(ref_limit, float(x)) - ecdf))
    at_zero = cdf_ratio(ref_limit, 0.0)
    ok = sup <= 0.01 and abs(at_zero - 0.5) <= 1e-4
    _report(4, ok, f"sup |cdf - ecdf| = {sup:.4f} (tol 0.01), "
            f"cdf(0) = {at_zero:.6f} (tol 0.5 +- 1e-4)")


def test_acceptance_05_main_theorem_ks(limit_table, replications_1e5,
                                       replications_1e4):
    ratio = limit_table["v2"] / limit_table["v1"]
    dists = {}
    for n, table in ((10**5, replications_1e5), (10**4, replications_1e4)):
        err = table["scaled_error"][table["defined"]]
        dists[n] = float(stats.ks_2samp(err, ratio, method="asymp").statistic)
    ok = dists[10**5] <= 0.06 and dists[10**4] >= dists[10**5]
    _report(5, ok, f"KS(n=1e5) = {dists[10**5]:.4f} (tol 0.06), "
            f"KS(n=1e4) = {dists[10**4]:.4f} (monotone improvement)")


def test_acceptance_06_tail_equivalence(ref_model, tail_run):
    x = tail_run[:, 1:].ravel()
    xq = float(np.quantile(x, 0.999))
    p_emp = float(np.mean(x > xq))
    stat = xq**ref_model.alpha * p_emp * ref_model.theta / ref_model.c
    ok = 0.85 <= stat <= 1.15
    _report(6, ok, f"x^alpha P(X>x) theta/c = {stat:.4f} at the "
            f"0.999-quantile {xq:g} (band [0.85, 1.15])")


# Stationary draws pooled for acceptance 07.  Over rng [s, 4], s = 1-20
# and 42, the relative a_n difference had SD 0.057 at 1e6 draws (2 of 21
# seeds above 0.10) and 0.030 at 4e6 (none above, largest 0.075).
_DRAWS_07 = 4 * 10**6


def test_acceptance_07_scaling_sequence(ref_model):
    target = (ref_model.c / ref_model.theta) ** (1.0 / ref_model.alpha)
    worst = max(abs(scaling(ref_model, n) * n ** (-1.0 / ref_model.alpha)
                    / target - 1.0)
                for n in (10**2, 10**3, 10**4, 10**5, 10**6))
    rng = np.random.default_rng([MASTER_SEED, 4])
    draws = stationary_init_many(ref_model, _DRAWS_07, rng)
    n = 10**4
    # the (1 - 1/n) quantile of 400*n stationary draws: n*P(X_0 > a_n) = 1
    emp = float(np.quantile(draws, 1.0 - 1.0 / n, method="inverted_cdf"))
    ana = scaling(ref_model, n)
    rel = abs(emp / ana - 1.0)
    ok = worst <= 1e-12 and rel <= 0.10
    _report(7, ok, f"analytic identity rel err {worst:.2e} (tol 1e-12); "
            f"empirical a_n {emp:.2f} vs analytic {ana:.2f}, "
            f"rel diff {rel:.3f} (tol 0.10)")


def test_acceptance_08_conditional_residual_law(ref_model, tail_run):
    rep = validate_pseudo_tail(ref_model, tail_run, quantile=0.999)
    dev = abs(rep["mean_ratio"] - ref_model.mu_A)
    ok = rep["ks_w0_normal"] <= 0.05 and dev <= 0.02
    _report(8, ok, f"KS(W'_0 vs N(0, sigma_A2)) = {rep['ks_w0_normal']:.4f} "
            f"(tol 0.05); |mean(X_1/X_0) - mu_A| = {dev:.4f} (tol 0.02); "
            f"{rep['n_events']} events")


def test_acceptance_09_laplace_functional(ref_model):
    out = laplace_functional_gap(ref_model, 1.0, [0.5, 1.0, 2.0], 10**6,
                                 500, [MASTER_SEED, 3], workers=_WORKERS)
    worst = max((rec["gap"] - (3.0 * rec["stderr"] + 0.02), s)
                for s, rec in out.items())
    detail = "; ".join(f"s={s:g}: gap {rec['gap']:.4f} vs "
                       f"{3.0 * rec['stderr'] + 0.02:.4f}"
                       for s, rec in sorted(out.items()))
    _report(9, worst[0] <= 0.0, detail)


def test_acceptance_10_exponential_moment_bound(ref_limit):
    rng = np.random.default_rng([MASTER_SEED, 5])
    u = limit_u_samples(ref_limit, 0.01, 10**5, rng)
    worst = -math.inf
    details = []
    for x in (1.0, 1.5, 2.0):
        emp = float(np.mean(u > x))
        bound = math.exp(-x**ref_limit.alpha)
        stderr = math.sqrt(bound * (1.0 - bound) / len(u))
        worst = max(worst, emp - (bound + 3.0 * stderr))
        details.append(f"x={x:g}: {emp:.5f} <= {bound + 3 * stderr:.5f}")
    _report(10, worst <= 0.0, "; ".join(details))


def test_acceptance_11_forward_front_law():
    alpha, sigma_A2 = 1.5, 0.25
    norm = forward_tail_normalization(alpha, sigma_A2)
    nerr = abs(norm / FWD_NORM_ORACLE - 1.0)
    rng = np.random.default_rng([MASTER_SEED, 6])
    ytilde, _ = sample_forward_front_many(alpha, sigma_A2, 10**5, rng)
    q = 2.0 * alpha / 3.0
    worst = -math.inf
    details = [f"norm rel err {nerr:.2e}"]
    for y in (1.0, 2.0, 4.0):
        # for y >= 1 the front tail is exactly y^{-2 alpha/3} / norm
        want = y**-q / norm
        emp = float(np.mean(ytilde > y))
        stderr = math.sqrt(want * (1.0 - want) / len(ytilde))
        worst = max(worst, abs(emp - want) - 3.0 * stderr)
        details.append(f"y={y:g}: |{emp:.5f} - {want:.5f}| vs "
                       f"{3 * stderr:.5f}")
    ok = nerr <= 1e-6 and worst <= 0.0
    _report(11, ok, "; ".join(details))


def test_acceptance_12_truncated_moment_ratios():
    alpha, x = 1.5, 1000.0
    details = []
    worst = 0.0
    for beta in (3.0, 1.0):
        got = karamata_ratio(beta, alpha, x)
        want = karamata_limit(beta, alpha)
        rel = abs(got / want - 1.0)
        worst = max(worst, rel)
        details.append(f"beta={beta:g}: ratio {got:.6f} vs limit {want:.6f} "
                       f"(rel {rel:.2e})")
    _report(12, worst <= 0.01, "; ".join(details))


def test_acceptance_13_empirical_karamata_ratio(ref_model, tail_run):
    # x^2 P(X > x) / E[X^2 1{X <= x}] -> (2 - alpha)/alpha on the engine's
    # stationary draws, the fact behind V1 being alpha/2-stable.  Over
    # tail_run seeds [s, 2], s = 1-9 and 42, the relative error read
    # -0.022 to +0.018 (SD 0.011) at the 0.999-quantile; at 0.99 it reads
    # about +0.10 (not yet in the tail), at 0.9999 up to 0.07 (few events).
    x = tail_run[:, 1:].ravel().astype(np.float64)
    xq = float(np.quantile(x, 0.999))
    ratio = xq**2 * np.mean(x > xq) / np.mean(np.where(x <= xq, x**2, 0.0))
    want = karamata_limit(2.0, ref_model.alpha)
    rel = ratio / want - 1.0
    _report(13, abs(rel) <= 0.05, f"x^2 P(X>x) / E[X^2 1{{X<=x}}] = "
            f"{ratio:.4f} vs limit {want:.4f} at the 0.999-quantile {xq:g} "
            f"(rel {rel:+.4f}, tol 0.05)")
