"""Tail-process samplers and simulation-vs-theory validators.

Conditional on a large stationary value, the rescaled path converges to
the tail process Y_i = mu_A^i * Y_0 for i >= 0 and
Y_i = mu_A^i * 1{K >= -i} * Y_0 for i < 0, with Y_0 Pareto(alpha) on
[1, inf) and K geometric: P(K = k) = mu_A^{alpha k} * (1 - mu_A^alpha).
``sample_tail_paths`` draws many such paths on a window -m..m in one
call.  The validators here tie long simulations to that limit: the
conditional law of the scaled residual W'_0 = M_1/sqrt(X_0) approaches
N(0, sigma_A2), checked on at least ``MIN_EVENTS`` exceedances of a
high quantile, and the point process of exceedances of a_n * eps has a
closed-form Laplace functional.  Their chains run on the block farm
``process.run_blocks``, from the backward series truncated at the
fixed mean remainder ``process._INIT_TOL``.  The Kolmogorov-Smirnov
distances are taken by ``_ks``, scipy's one-sample two-sided statistic
in numpy, so that importing this module does not load ``scipy.stats``.
The forward tail process of the pair (X^{3/2}, X*M) has tail index
2*alpha/3; its front pair is sampled exactly by
``sample_forward_front_many``.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy.special import gammaincc, gammainccinv, ndtr, ndtri

from .process import ModelParams, run_blocks, scaling
# perfbench/spans.py patches these by name; nothing here calls them
from .process import simulate_batch, stationary_init_many  # noqa: F401

MIN_EVENTS = 1000  # least number of exceedances validate_pseudo_tail accepts

__all__ = [
    "MIN_EVENTS",
    "sample_tail_paths",
    "sample_forward_front_many",
    "forward_tail_normalization",
    "run_stationary_batch",
    "validate_pseudo_tail",
    "exceedance_counts",
    "laplace_analytic",
    "laplace_functional_gap",
]


def sample_tail_paths(
    alpha: float, mu_A: float, m: int, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``size`` draws of (Y_{-m}, ..., Y_m) and their backward cutoffs K.

    Returns ``y`` of shape (size, 2m+1), Y_0 in column m, and ``k``:
    the front value is Pareto(alpha), column m+i holds mu_A^i * Y_0, and
    the backward columns m-i are 0 for i > K.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    theta = 1.0 - mu_A**alpha
    y0 = rng.random(size) ** (-1.0 / alpha)
    # support {0,1,...}: P(k) = (1-theta)^k theta
    k = rng.geometric(theta, size) - 1
    lags = np.arange(-m, m + 1)
    y = mu_A ** lags.astype(np.float64) * y0[:, None]
    y[k[:, None] < -lags] = 0.0
    return y, k


def _front_mixture(alpha: float, sigma_A2: float):
    """Split of E[(1 v |Z|)^{2 alpha/3}], Z ~ N(0, sigma_A2), at |Z| = 1.

    The inner part contributes P(|Z| <= 1); for the outer part the
    substitution t = z^2/(2 sigma^2) yields an upper incomplete gamma
    function of shape alpha/3 + 1/2.  Returns (inner, outer, shape,
    Q(shape, t1)) with t1 = 1/(2 sigma_A2).
    """
    q = 2.0 * alpha / 3.0
    inner = 2.0 * ndtr(1.0 / math.sqrt(sigma_A2)) - 1.0
    shape = 0.5 * (q + 1.0)
    q_t1 = gammaincc(shape, 1.0 / (2.0 * sigma_A2))
    outer = (2.0 * sigma_A2) ** (0.5 * q) * math.gamma(shape) * q_t1 \
        / math.sqrt(math.pi)
    return inner, outer, shape, q_t1


def forward_tail_normalization(alpha: float, sigma_A2: float) -> float:
    """E[(1 v |Z|)^{2 alpha/3}] for Z ~ N(0, sigma_A2), in closed form."""
    inner, outer, _, _ = _front_mixture(alpha, sigma_A2)
    return inner + outer


def sample_forward_front_many(
    alpha: float, sigma_A2: float, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised draws of the front pair (Ytilde, Ztilde_0).

    Ztilde_0 has the size-biased density proportional to
    (1 v |z|)^{2 alpha/3} * N(0, sigma_A2); given it, Ytilde * (1 v
    |Ztilde_0|) is exactly Pareto(2 alpha/3) on [1, inf).  The biased
    density is sampled exactly as a two-component mixture (truncated
    normal inside |z| <= 1, tail-truncated gamma in t = z^2/(2 sigma^2)
    outside), which avoids the unbounded likelihood ratio a naive
    rejection step against the plain normal would face.
    """
    inner, outer, shape, q_t1 = _front_mixture(alpha, sigma_A2)
    sigma = math.sqrt(sigma_A2)
    pick_outer = rng.random(size) < outer / (inner + outer)
    n_out = int(pick_outer.sum())
    z = np.empty(size)
    lo = ndtr(-1.0 / sigma)
    u = lo + (1.0 - 2.0 * lo) * rng.random(size - n_out)
    z[~pick_outer] = sigma * ndtri(u)
    t = gammainccinv(shape, q_t1 * rng.random(n_out))
    mag = sigma * np.sqrt(2.0 * t)
    sign = np.where(rng.random(n_out) < 0.5, -1.0, 1.0)
    z[pick_outer] = sign * mag
    ypareto = rng.random(size) ** (-1.0 / (2.0 * alpha / 3.0))
    ytilde = ypareto / np.maximum(1.0, np.abs(z))
    return ytilde, z


# ---------------------------------------------------------------------------
# validators on long stationary runs

def run_stationary_batch(params: ModelParams, total_steps: int, chains: int,
                         seed, workers: int = 1) -> np.ndarray:
    """Stationary-start path bundle with ``total_steps`` transitions overall.

    The budget is split over independent chains, whose paths
    ``run_blocks`` stores; per-chain statistics must not straddle chain
    boundaries, which every consumer below respects.
    """
    return run_blocks(params, total_steps // chains, chains, seed,
                      workers=workers)


def _ks(sample: np.ndarray, cdf) -> float:
    """Two-sided one-sample KS distance sup |F_n - cdf|.

    The same arithmetic as ``scipy.stats.kstest(sample, cdf).statistic``:
    D+ = max(i/n - cdf(x_(i))) over i = 1..n, D- = max(cdf(x_(i)) -
    (i-1)/n), and D+ wins only when it is strictly larger.
    """
    x = np.sort(sample)
    n = len(x)
    v = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - v).max()
    d_minus = (v - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def validate_pseudo_tail(
    params: ModelParams,
    paths: np.ndarray,
    quantile: float = 0.999,
) -> dict:
    """Check the conditional limit law on events {X_t > threshold}.

    The threshold is the ``quantile`` of all path values.  Collects, at
    every exceedance time with a successor step, the scaled residual
    W'_0 = M_{t+1}/sqrt(X_t), the one-step ratio X_{t+1}/X_t, and the
    overshoot X_t/threshold, and compares them with N(0, sigma_A2),
    mu_A, and Pareto(alpha) respectively.  Returns a dict of
    ``threshold``, ``n_events``, ``ks_w0_normal``, ``mean_ratio``,
    ``sd_ratio`` and ``ks_front_pareto``.  Raises ``ValueError`` when
    fewer than ``MIN_EVENTS`` exceedances are found.
    """
    x = np.asarray(paths)
    threshold = float(np.quantile(x.ravel(), quantile))
    hit = x[:, :-1] > threshold
    found = int(hit.sum())
    if found < MIN_EVENTS:
        raise ValueError(f"insufficient conditioning events: {found} lie "
                         f"above the threshold {threshold:g}, fewer than "
                         f"MIN_EVENTS = {MIN_EVENTS}")
    x0 = x[:, :-1][hit].astype(np.float64)
    x1 = x[:, 1:][hit].astype(np.float64)
    m1 = x1 - params.mu_A * x0 - params.mu_B
    w0 = m1 / np.sqrt(np.maximum(x0, 1.0))
    sigma = math.sqrt(params.sigma_A2)
    ks_w0 = _ks(w0, lambda v: ndtr(v / sigma))
    front = x0 / threshold
    alpha = params.alpha
    ks_front = _ks(front, lambda y: 1.0 - y ** -alpha)
    ratio = x1 / x0
    return {"threshold": threshold, "n_events": len(x0),
            "ks_w0_normal": ks_w0, "mean_ratio": float(ratio.mean()),
            "sd_ratio": float(ratio.std(ddof=1)), "ks_front_pareto": ks_front}


def exceedance_counts(params: ModelParams, n: int, reps: int, level: float,
                      seed, workers: int = 1) -> np.ndarray:
    """#{1 <= j <= n : X_j > level} for ``reps`` stationary chains."""
    return run_blocks(params, n, reps, seed, partial(_count_reducer, level),
                      workers)


def _count_reducer(level: float, width: int):
    """Zeroed exceedance counts of ``width`` chains and their reducer."""
    counts = np.zeros(width, dtype=np.int64)

    def reduce(block):
        counts[:] += (block[1:] > level).sum(0)

    return counts, reduce


def laplace_analytic(params: ModelParams, eps: float, s: float) -> float:
    """Limit Laplace functional for f(x) = s*1{x > eps}, s >= 0.

    A cluster with front value y contributes m points above eps when y
    falls in (eps*mu_A^{-(m-1)}, eps*mu_A^{-m}]; integrating the Pareto
    intensity over those bands gives
    theta^2 * eps^-alpha * sum_{m>=1} (1 - e^{-s m}) mu_A^{alpha(m-1)},
    whose geometric sums close to
    theta * eps^-alpha * (1 - e^{-s}) / (1 - mu_A^alpha * e^{-s}).
    """
    if not s >= 0.0:
        raise ValueError(f"s must be nonnegative, got {s!r}")
    q = params.mu_A**params.alpha
    return params.theta * eps**-params.alpha * -math.expm1(-s) \
        / (1.0 - q * math.exp(-s))


def laplace_functional_gap(params: ModelParams, eps: float, s_values, n: int,
                           reps: int, seed, workers: int = 1) -> dict:
    """Empirical vs analytic -log E[exp(-N_n(f))] for f = s*1{x > eps}.

    N_n counts the steps 1..n of a chain above a_n * eps, a_n =
    ``scaling(params, n)``.  The exceedance counts are simulated once,
    from stationary starts on ``workers`` processes, and reused for
    every s in the sequence ``s_values``.  Returns per-s empirical
    value, analytic value, absolute gap, a delta-method standard error
    of the empirical side, and ``ess`` = (sum w)^2 / sum w^2, the effective number of chains
    behind the mean of the weights w.  ``stderr`` is meaningful only
    when ``ess`` is large: when one chain's weight dominates, ``ess``
    is near 1 and ``stderr`` saturates near 1.  A negative s raises
    ``ValueError`` before any chain is simulated.

    The weights exp(-s*k) are shifted by the least count k0, so that
    they do not all underflow to 0 when every chain has many
    exceedances: -log E[exp(-s*k)] = s*k0 - log E[exp(-s*(k - k0))].
    ``stderr`` and ``ess`` are unchanged by the shift.
    """
    s_values = [float(sv) for sv in s_values]
    analytic = [laplace_analytic(params, eps, sv) for sv in s_values]
    counts = exceedance_counts(params, n, reps, scaling(params, n) * eps, seed,
                               workers=workers)
    k0 = int(counts.min())
    out = {}
    for sv, ana in zip(s_values, analytic):
        w = np.exp(-sv * (counts - k0))
        mean = float(w.mean())
        # negated difference: exactly -log(mean), sign of zero too, at k0 = 0
        emp = -(math.log(mean) - sv * k0)
        stderr = float(w.std(ddof=1)) / math.sqrt(len(w)) / mean
        out[sv] = {
            "empirical": emp,
            "analytic": ana,
            "gap": abs(emp - ana),
            "stderr": stderr,
            "ess": float(w.sum() ** 2 / (w * w).sum()),
        }
    return out
