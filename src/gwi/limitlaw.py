"""The bivariate stable limit pair (V1, V2) of the normalised sums.

V1 = (1-mu_A^2)^-1 sum_i P_i^2 and V2 = (1-mu_A^3)^-1/2 sum_i P_i^{3/2} Z_i,
where P_i = theta^{1/alpha} Gamma_i^{-1/alpha} are the points of a
Poisson process with intensity theta*alpha*y^{-alpha-1} dy on (0, inf)
(Gamma_i are standard exponential arrival times) and Z_i are i.i.d.
N(0, sigma_A2).  V1 is a positive alpha/2-stable variable, V2 a
symmetric 2*alpha/3-stable one, and they are dependent.

Given the points, V2 is exactly N(0, sigma_A2*S3/(1-mu_A^3)) with
S3 = sum_i P_i^3 (the conditionally Gaussian form of the LePage series).
So one kernel draws the points above a level eps and returns
S2 = sum_i P_i^2 and S3 per draw; the sampler sets V1 = S2/(1-mu_A^2) and
V2 = sqrt(sigma_A2*S3/(1-mu_A^3))*N with one standard normal N per draw.
The same identity makes the ratio a scale mixture of normals,
V2/V1 = k*sqrt(U)*N with U = theta^{1/alpha} S3/S2^2 and
k = (1-mu_A^2)*sqrt(sigma_A2/(1-mu_A^3))*theta^{-1/(2 alpha)}.

The joint characteristic function is

    phi(s, t) = exp{ theta * int_0^inf (e^{g(y)} - 1) alpha y^{-alpha-1} dy },
    g(y) = i*s*y^2/(1-mu_A^2) - sigma_A2*t^2*y^3 / (2*(1-mu_A^3)),

evaluated here by split quadrature, and the CDF of the ratio V2/V1 is
recovered from it through a principal-value inversion formula that the
conjugate symmetry phi(u*x, -u) = conj(phi(-u*x, u)) collapses to the
one-sided real integral

    P(V2/V1 <= x) = 1/2 - (1/pi) int_0^inf Im phi(-u*x, u) / u du.

The u -> 0 end of that integrand behaves like u^{alpha/2 - 1} (it blows
up for x != 0 but stays integrable); substituting u = v^2 turns it into
O(v^{alpha-1}) -> 0, which is how it is integrated below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn

from .quadrature import QuadratureError, euler_accelerated_sum, gauss_kronrod, \
    panel_estimates, panel_nodes

__all__ = [
    "LimitParams",
    "sample_limit_pairs",
    "limit_u_samples",
    "truncation_bounds",
    "cf_joint",
    "cf_marginals",
    "cdf_ratio",
]


@dataclass(frozen=True)
class LimitParams:
    """Parameters of the limit pair plus its stable scale constants."""

    alpha: float
    mu_A: float
    sigma_A2: float
    theta: float = field(init=False)
    C1: float = field(init=False)
    C2: float = field(init=False)

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (1, 2)")
        if not 0.0 < self.mu_A < 1.0:
            raise ValueError("mu_A must lie in (0, 1)")
        if not self.sigma_A2 > 0.0:
            raise ValueError("sigma_A2 must be positive")
        a, m = self.alpha, self.mu_A
        theta = 1.0 - m**a
        c1 = theta * gamma_fn(1.0 - a / 2.0) * math.cos(math.pi * a / 4.0) \
            / (1.0 - m**2) ** (a / 2.0)
        c2 = theta * gamma_fn(1.0 - a / 3.0) \
            * (self.sigma_A2 / (2.0 * (1.0 - m**3))) ** (a / 3.0)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "C1", c1)
        object.__setattr__(self, "C2", c2)


# Points drawn per chunk of rows; the draws do not depend on it.
_CHUNK_POINTS = 2**20


def _remainder_means(p: LimitParams, eps: float) -> tuple[float, float]:
    """Means of sum P^2 and sum P^3 over the points at or below ``eps``.

    Campbell's formula on the intensity theta*alpha*y^{-alpha-1}:
    E sum_{P <= eps} P^k = theta*alpha*eps^{k-alpha}/(k-alpha).
    """
    a, ta = p.alpha, p.theta * p.alpha
    return ta * eps ** (2.0 - a) / (2.0 - a), ta * eps ** (3.0 - a) / (3.0 - a)


def truncation_bounds(p: LimitParams, eps: float) -> tuple[float, float]:
    """Closed-form remainder bounds for points below level ``eps``.

    Returns (mean of the dropped V1 mass, SD bound of the dropped V2
    mass): both follow from the Poisson intensity theta*alpha*y^{-alpha-1}
    integrated over (0, eps].
    """
    r2, r3 = _remainder_means(p, eps)
    m = p.mu_A
    return r2 / (1.0 - m**2), math.sqrt(p.sigma_A2 * r3 / (1.0 - m**3))


def _poisson_points(p: LimitParams, eps: float, counts, rng: np.random.Generator):
    """The points above level ``eps`` of ``len(counts)`` Poisson series.

    Row i holds ``counts[i]`` points.  Given its count, a row's arrival
    times are i.i.d. uniform on (0, theta*eps^-alpha], and the sums taken
    over them do not depend on their order, so no sorting is done.
    Returns (row index of each point, the points).
    """
    a, th = p.alpha, p.theta
    idx = np.repeat(np.arange(len(counts)), counts)
    g = th * eps**-a * rng.random(len(idx))
    return idx, th ** (1.0 / a) * g ** (-1.0 / a)


def _poisson_sums(p: LimitParams, eps: float, size: int,
                  rng: np.random.Generator):
    """S2 = sum P^2 and S3 = sum P^3 over ``size`` truncated series.

    Returns (S2, S3, counts), where counts ~ Poisson(theta*eps^-alpha)
    are the numbers of points above ``eps``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    limit = p.theta * eps**-p.alpha
    counts = rng.poisson(limit, size)
    s2 = np.empty(size)
    s3 = np.empty(size)
    rows = max(1, int(_CHUNK_POINTS / max(limit, 1.0)))
    for lo in range(0, size, rows):
        cnt = counts[lo:lo + rows]
        idx, pts = _poisson_points(p, eps, cnt, rng)
        p2 = pts * pts
        width = len(cnt)
        s2[lo:lo + width] = np.bincount(idx, weights=p2, minlength=width)
        s3[lo:lo + width] = np.bincount(idx, weights=p2 * pts, minlength=width)
    return s2, s3, counts


def sample_limit_pairs(
    p: LimitParams,
    eps: float,
    size: int,
    rng: np.random.Generator,
    compensate: bool = False,
) -> np.ndarray:
    """Vectorised (V1, V2) draws; structured array (v1, v2, terms_used).

    V1 = S2/(1-mu_A^2) and V2 = sqrt(sigma_A2*S3/(1-mu_A^3)) * N, with one
    standard normal N per draw, made after all points.  ``compensate=True``
    adds the closed-form remainder means to S2 and S3 first, so V1 gains
    the mean of its dropped mass and V2 the variance of its own.
    """
    m = p.mu_A
    s2, s3, counts = _poisson_sums(p, eps, size, rng)
    if compensate:
        r2, r3 = _remainder_means(p, eps)
        s2, s3 = s2 + r2, s3 + r3
    out = np.zeros(size, dtype=[("v1", np.float64), ("v2", np.float64),
                                ("terms_used", np.int64)])
    out["v1"] = s2 / (1.0 - m**2)
    out["v2"] = np.sqrt(p.sigma_A2 * s3 / (1.0 - m**3)) \
        * rng.standard_normal(size)
    out["terms_used"] = counts
    return out


def limit_u_samples(
    p: LimitParams, eps: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draws of U = theta^{1/alpha} sum P^3 / (sum P^2)^2.

    Both sums are compensated by the closed-form means of their
    sub-``eps`` remainders, so the truncation bias is O(eps^{4-alpha})
    rather than O(eps^{2-alpha}).
    """
    s2, s3, _ = _poisson_sums(p, eps, size, rng)
    r2, r3 = _remainder_means(p, eps)
    return p.theta ** (1.0 / p.alpha) * (s3 + r3) / (s2 + r2) ** 2


# ---------------------------------------------------------------------------
# characteristic functions

_CF_TOL = 1e-9
_DAMP_LOG = 45.0  # e^-45 ~ 3e-20: where the damped tail is cut


def _eg_minus_1_minus_g(g):
    """exp(g) - 1 - g, series-protected against cancellation near 0."""
    g = np.asarray(g, dtype=np.complex128)
    out = np.exp(g) - 1.0 - g
    small = np.abs(g) < 1e-3
    if np.any(small):
        gs = g[small]
        out[small] = gs**2 * (0.5 + gs * (1.0 / 6.0 + gs * (1.0 / 24.0
                              + gs / 120.0)))
    return out


def _phase_breaks(lo, hi, s_abs, quadratic=True, cap=256):
    """Breakpoints where the phase s*y^2 (or s*r) advances by pi."""
    if s_abs <= 0:
        return np.array([lo, hi])
    if quadratic:
        k0 = math.ceil(s_abs * lo**2 / math.pi)
        k1 = math.floor(s_abs * hi**2 / math.pi)
        ks = np.arange(k0, k1 + 1)
        if len(ks) > cap:
            ks = ks[np.linspace(0, len(ks) - 1, cap).astype(int)]
        pts = np.sqrt(ks * math.pi / s_abs)
    else:
        k0 = math.ceil(s_abs * lo / math.pi)
        k1 = math.floor(s_abs * hi / math.pi)
        ks = np.arange(k0, k1 + 1)
        if len(ks) > cap:
            ks = ks[np.linspace(0, len(ks) - 1, cap).astype(int)]
        pts = ks * math.pi / s_abs
    return np.unique(np.concatenate([[lo], pts, [hi]]))


def _cf_exponent(p: LimitParams, s: float, t: float, tol: float = _CF_TOL):
    """The Poisson integral J(s, t) with phi = exp(theta * J).

    Split as J = [analytic linear part on (0,1]] + [smooth remainder on
    (0,1]] + [tail integral on [1, inf) minus 1]; the tail switches
    between adaptive panels (strong damping) and half-period
    segmentation with accelerated alternating summation (long
    oscillatory range).
    """
    a, m = p.alpha, p.mu_A
    st = s / (1.0 - m**2)
    tt = p.sigma_A2 * t * t / (2.0 * (1.0 - m**3))
    if st == 0.0 and tt == 0.0:
        return 0.0 + 0.0j

    def g_of(y):
        return 1j * st * y * y - tt * y**3

    # (0,1]: int g * alpha y^{-alpha-1} dy in closed form ...
    head = a * (1j * st / (2.0 - a) - tt / (3.0 - a))

    # ... plus the smooth O(y^{3-alpha}) remainder by adaptive panels
    def f_head(y):
        out = np.zeros(len(y), dtype=np.complex128)
        pos = y > 0
        yp = y[pos]
        out[pos] = _eg_minus_1_minus_g(g_of(yp)) * a * yp ** (-a - 1.0)
        return out

    breaks = _phase_breaks(0.0, 1.0, abs(st), quadratic=True)
    head_quad, _ = gauss_kronrod(f_head, 0.0, 1.0, 0.25 * tol, initial=breaks)

    tail = _tail_integral(p, st, tt, 0.5 * tol)
    return head + head_quad + (tail - 1.0)


def _tail_integral(p: LimitParams, st: float, tt: float, tol: float):
    """int_1^inf exp(i st y^2 - tt y^3) alpha y^{-alpha-1} dy."""
    a = p.alpha

    def f_tail(y):
        return np.exp(1j * st * y * y - tt * y**3) * a * y ** (-a - 1.0)

    if tt > 0.0:
        ymax = (_DAMP_LOG / tt) ** (1.0 / 3.0)
        if ymax <= 1.0:
            return 0.0 + 0.0j
        n_half = abs(st) * (ymax**2 - 1.0) / math.pi
        if n_half < 48.0:
            breaks = _phase_breaks(1.0, ymax, abs(st), quadratic=True)
            # add geometric points so wide low-oscillation panels resolve
            # the algebraic/exponential decay
            geo = np.geomspace(1.0, ymax, 24)
            breaks = np.unique(np.concatenate([breaks, geo]))
            val, _ = gauss_kronrod(f_tail, 1.0, ymax, tol, initial=breaks)
            return val
        rmax = ymax**2
    else:
        if st == 0.0:
            return 1.0 + 0.0j
        rmax = math.inf

    # substitute r = y^2: int_1^rmax e^{i st r - tt r^{3/2}} (a/2) r^{-a/2-1} dr,
    # cut into half-periods of the now-linear phase and accelerate the
    # alternating segment series
    s_abs = abs(st)
    h = math.pi / s_abs

    def f_r(r):
        return np.exp(1j * st * r - tt * r**1.5) * 0.5 * a * r ** (-0.5 * a - 1.0)

    # first half-period adaptively (it can span many decades when h >> 1)
    r1 = 1.0 + h
    geo = np.geomspace(1.0, r1, 32)
    first, _ = gauss_kronrod(f_r, 1.0, r1, 0.25 * tol, initial=geo)

    n_seg = 64
    while True:
        edges = r1 + h * np.arange(n_seg + 1)
        if math.isfinite(rmax):
            edges = edges[edges <= rmax + h]
        nodes, half = panel_nodes(edges[:-1], edges[1:])
        vals = f_r(nodes.ravel()).reshape(nodes.shape)
        k15, perr = panel_estimates(vals, half)
        # drop segments already beyond the damping cutoff
        try:
            acc, move = euler_accelerated_sum(k15, 0.25 * tol)
        except QuadratureError:
            acc, move = None, math.inf
        if acc is not None and move + perr.sum() <= 0.75 * tol:
            return first + acc
        if n_seg >= 4096:
            raise QuadratureError("oscillatory tail did not converge")
        n_seg *= 2


def cf_log(p: LimitParams, s: float, t: float) -> complex:
    """Continuous logarithm of the joint CF (the Poisson exponent).

    Unlike log(cf_joint(...)), this never wraps at the principal
    branch, which is what makes the stability identity
    cf(a^{2/alpha} s, a^{3/(2 alpha)} t) = exp(a * cf_log(s, t))
    directly checkable.
    """
    return p.theta * _cf_exponent(p, float(s), float(t))


def cf_joint(p: LimitParams, s: float, t: float) -> complex:
    """Joint characteristic function E exp(i s V1 + i t V2)."""
    return complex(np.exp(cf_log(p, s, t)))


def cf_marginals(p: LimitParams, s: float, t: float) -> tuple[complex, float]:
    """Closed-form marginal CFs of V1 (at s) and V2 (at t)."""
    a = p.alpha
    v1 = np.exp(-p.C1 * abs(s) ** (a / 2.0)
                * (1.0 - 1j * math.tan(math.pi * a / 4.0) * np.sign(s)))
    v2 = math.exp(-p.C2 * abs(t) ** (2.0 * a / 3.0))
    return complex(v1), v2


# ---------------------------------------------------------------------------
# ratio CDF by principal-value inversion

_CDF_TOL = 1e-4


def cdf_ratio(p: LimitParams, x: float, tol: float = _CDF_TOL) -> float:
    """P(V2/V1 <= x) from the joint CF.

    One-sided form of the principal-value inversion (see module
    docstring); integrated in v with u = v^2 so the integrand vanishes
    at the origin.
    """
    x = float(x)
    a = p.alpha
    u_max = (_DAMP_LOG / p.C2) ** (1.5 / a)
    v_max = math.sqrt(u_max)
    cf_tol = min(_CF_TOL, 1e-3 * tol)

    def f(v):
        out = np.zeros(len(v))
        for i, vi in enumerate(v):
            if vi <= 0.0:
                continue
            u = vi * vi
            phi = np.exp(p.theta * _cf_exponent(p, -u * x, u, cf_tol))
            out[i] = 2.0 * phi.imag / vi
        return out

    val, _ = gauss_kronrod(f, 0.0, v_max, 0.25 * tol * math.pi,
                           initial=np.linspace(0.0, v_max, 17))
    return 0.5 - float(np.real(val)) / math.pi
