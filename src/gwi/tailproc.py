"""Tail-process samplers and simulation-vs-theory validators.

Conditional on a large stationary value, the rescaled path converges to
the tail process Y_i = mu_A^i * Y_0 for i >= 0 and
Y_i = mu_A^i * 1{K >= -i} * Y_0 for i < 0, with Y_0 Pareto(alpha) on
[1, inf) and K geometric: P(K = k) = mu_A^{alpha k} * (1 - mu_A^alpha).
The validators here tie long simulations to that limit: the conditional
law of the scaled residual W'_0 = M_1/sqrt(X_0) approaches
N(0, sigma_A2), the point process of exceedances has an explicitly
computable Laplace functional, and the forward tail process of the pair
(X^{3/2}, X*M) has tail index 2*alpha/3 with an exactly sampleable
front law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import gammaincc, gammainccinv, ndtr, ndtri

from .process import ModelParams, simulate_batch, stationary_init_many

__all__ = [
    "TailPath",
    "ForwardTailXM",
    "PseudoTailReport",
    "sample_tail_path",
    "sample_forward_tail_xm",
    "sample_forward_front_many",
    "forward_tail_normalization",
    "run_stationary_batch",
    "validate_pseudo_tail",
    "exceedance_counts",
    "laplace_analytic",
    "laplace_functional_gap",
]


@dataclass(frozen=True)
class TailPath:
    """One tail-process realization on the window -m..m."""

    y: np.ndarray
    k: int
    y0: float

    def value(self, i: int) -> float:
        m = (len(self.y) - 1) // 2
        return float(self.y[i + m])


@dataclass(frozen=True)
class ForwardTailXM:
    """Forward tail path of (X^{3/2}, X*M): pairs for lags 0..m."""

    ytilde: float
    z0: float
    path: np.ndarray  # shape (m+1, 2)


def sample_tail_path(
    alpha: float, mu_A: float, m: int, rng: np.random.Generator
) -> TailPath:
    """Draw (Y_{-m}, ..., Y_m): Pareto front value, geometric backward cutoff."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    theta = 1.0 - mu_A**alpha
    y0 = rng.random() ** (-1.0 / alpha)
    k = int(rng.geometric(theta)) - 1  # support {0,1,...}, P(k)=(1-theta)^k theta
    lags = np.arange(-m, m + 1)
    y = mu_A ** lags.astype(np.float64) * y0
    y[lags < 0] *= (k >= -lags[lags < 0]).astype(np.float64)
    return TailPath(y=y, k=k, y0=float(y0))


def forward_tail_normalization(alpha: float, sigma_A2: float) -> float:
    """E[(1 v |Z|)^{2 alpha/3}] for Z ~ N(0, sigma_A2), in closed form.

    Splits at |Z| = 1: the inner part contributes P(|Z| <= 1); for the
    outer part the substitution t = z^2/(2 sigma^2) yields an upper
    incomplete gamma function of shape alpha/3 + 1/2.
    """
    q = 2.0 * alpha / 3.0
    sigma = math.sqrt(sigma_A2)
    inner = 2.0 * ndtr(1.0 / sigma) - 1.0
    shape = 0.5 * (q + 1.0)
    t1 = 1.0 / (2.0 * sigma_A2)
    outer = (2.0 * sigma_A2) ** (0.5 * q) * math.gamma(shape) \
        * gammaincc(shape, t1) / math.sqrt(math.pi)
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
    q = 2.0 * alpha / 3.0
    sigma = math.sqrt(sigma_A2)
    inner = 2.0 * ndtr(1.0 / sigma) - 1.0
    shape = 0.5 * (q + 1.0)
    t1 = 1.0 / (2.0 * sigma_A2)
    q_t1 = gammaincc(shape, t1)
    outer = (2.0 * sigma_A2) ** (0.5 * q) * math.gamma(shape) * q_t1 \
        / math.sqrt(math.pi)

    pick_outer = rng.random(size) < outer / (inner + outer)
    z = np.empty(size)
    n_in = int(np.sum(~pick_outer))
    if n_in:
        lo = ndtr(-1.0 / sigma)
        u = lo + (1.0 - 2.0 * lo) * rng.random(n_in)
        z[~pick_outer] = sigma * ndtri(u)
    n_out = int(np.sum(pick_outer))
    if n_out:
        t = gammainccinv(shape, q_t1 * rng.random(n_out))
        mag = sigma * np.sqrt(2.0 * t)
        sign = np.where(rng.random(n_out) < 0.5, -1.0, 1.0)
        z[pick_outer] = sign * mag
    ypareto = rng.random(size) ** (-1.0 / q)
    ytilde = ypareto / np.maximum(1.0, np.abs(z))
    return ytilde, z


def sample_forward_tail_xm(
    alpha: float, mu_A: float, sigma_A2: float, m: int, rng: np.random.Generator
) -> ForwardTailXM:
    """One forward tail path of (X^{3/2}, X*M) over lags 0..m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    ytilde, z0 = sample_forward_front_many(alpha, sigma_A2, 1, rng)
    yt, z0 = float(ytilde[0]), float(z0[0])
    z = np.empty(m + 1)
    z[0] = z0
    if m:
        z[1:] = rng.normal(0.0, math.sqrt(sigma_A2), m)
    decay = mu_A ** (1.5 * np.arange(m + 1))
    path = np.stack([decay * yt, decay * yt * z], axis=1)
    return ForwardTailXM(ytilde=yt, z0=z0, path=path)


# ---------------------------------------------------------------------------
# validators on long stationary runs

def run_stationary_batch(
    params: ModelParams,
    total_steps: int,
    chains: int,
    seed,
    init_tol: float = 1e-6,
) -> np.ndarray:
    """Stationary-start path bundle with ``total_steps`` transitions overall.

    The budget is split over independent chains simulated side by side;
    per-chain statistics must not straddle chain boundaries, which every
    consumer below respects.
    """
    rng = np.random.default_rng(seed)
    n = total_steps // chains
    inits = stationary_init_many(params, init_tol, chains, rng)
    return simulate_batch(params, n, inits, rng)


@dataclass(frozen=True)
class PseudoTailReport:
    """Distances between conditional-on-exceedance laws and their limits."""

    threshold: float
    n_events: int
    ks_w0_normal: float
    mean_ratio: float
    sd_ratio: float
    ks_front_pareto: float


def validate_pseudo_tail(
    params: ModelParams,
    paths: np.ndarray,
    threshold: float | None = None,
    quantile: float = 0.999,
    min_events: int = 1000,
) -> PseudoTailReport:
    """Check the conditional limit law on events {X_t > threshold}.

    Collects, at every exceedance time with a successor step, the scaled
    residual W'_0 = M_{t+1}/sqrt(X_t), the one-step ratio X_{t+1}/X_t,
    and the overshoot X_t/threshold, and compares them with N(0,
    sigma_A2), mu_A, and Pareto(alpha) respectively.
    """
    x = np.asarray(paths)
    if threshold is None:
        threshold = float(np.quantile(x.ravel(), quantile))
    hit = x[:, :-1] > threshold
    if int(hit.sum()) < min_events:
        raise ValueError("insufficient conditioning events")
    x0 = x[:, :-1][hit].astype(np.float64)
    x1 = x[:, 1:][hit].astype(np.float64)
    m1 = x1 - params.mu_A * x0 - params.mu_B
    w0 = m1 / np.sqrt(np.maximum(x0, 1.0))
    sigma = math.sqrt(params.sigma_A2)
    ks_w0 = stats.kstest(w0, lambda v: ndtr(v / sigma)).statistic
    front = x0 / threshold
    alpha = params.alpha
    ks_front = stats.kstest(front, lambda y: 1.0 - y ** -alpha).statistic
    ratio = x1 / x0
    return PseudoTailReport(
        threshold=threshold,
        n_events=len(x0),
        ks_w0_normal=float(ks_w0),
        mean_ratio=float(ratio.mean()),
        sd_ratio=float(ratio.std(ddof=1)),
        ks_front_pareto=float(ks_front),
    )


def exceedance_counts(
    params: ModelParams,
    n: int,
    reps: int,
    level: float,
    seed,
    init_tol: float = 1e-6,
) -> np.ndarray:
    """#{1 <= j <= n : X_j > level} for ``reps`` stationary chains."""
    rng = np.random.default_rng(seed)
    inits = stationary_init_many(params, init_tol, reps, rng)
    counts = np.zeros(reps, dtype=np.int64)

    def reduce(block):
        counts[:] += (block[:, 1:] > level).sum(1)

    simulate_batch(params, n, inits, rng, reduce=reduce)
    return counts


def laplace_analytic(params: ModelParams, eps: float, s: float,
                     tol: float = 1e-14) -> float:
    """Limit Laplace functional for f(x) = s*1{x > eps}.

    A cluster with front value y contributes m points above eps when y
    falls in (eps*mu_A^{-(m-1)}, eps*mu_A^{-m}]; integrating the Pareto
    intensity over those bands gives
    theta^2 * eps^-alpha * sum_{m>=1} (1 - e^{-s m}) mu_A^{alpha(m-1)}.
    """
    if s == 0.0:
        return 0.0
    a, mu = params.alpha, params.mu_A
    theta = params.theta
    total = 0.0
    weight = 1.0
    m = 1
    while True:
        term = (1.0 - math.exp(-s * m)) * weight
        total += term
        weight *= mu**a
        m += 1
        if weight < tol:
            # geometric tail of the (1 - e^{-sm}) -> 1 regime
            total += weight / (1.0 - mu**a)
            break
    return theta**2 * eps**-a * total


def laplace_functional_gap(
    params: ModelParams,
    eps: float,
    s,
    n: int,
    a_n: float,
    reps: int,
    seed,
) -> dict:
    """Empirical vs analytic -log E[exp(-N_n(f))] for f = s*1{x > eps}.

    ``s`` may be a scalar or a sequence; the exceedance counts are
    simulated once and reused.  Returns per-s empirical value, analytic
    value, absolute gap, and a delta-method standard error of the
    empirical side.
    """
    counts = exceedance_counts(params, n, reps, a_n * eps, seed)
    out = {}
    for sv in np.atleast_1d(np.asarray(s, dtype=np.float64)):
        w = np.exp(-sv * counts)
        mean = float(w.mean())
        emp = -math.log(mean)
        stderr = float(w.std(ddof=1)) / math.sqrt(len(w)) / mean
        ana = laplace_analytic(params, eps, float(sv))
        out[float(sv)] = {
            "empirical": emp,
            "analytic": ana,
            "gap": abs(emp - ana),
            "stderr": stderr,
        }
    return out
