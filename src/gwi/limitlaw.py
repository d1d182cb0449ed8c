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

The joint CF is phi(s, t) = exp(theta J) with st = s/(1-mu_A^2),
tt = sigma_A2 t^2/(2(1-mu_A^3)) and

    J = int_0^inf (e^{g(y)} - 1) alpha y^{-alpha-1} dy,  g(y) = i st y^2 - tt y^3.

g is entire with Re g <= 0 for 0 <= arg y <= pi/6 (st >= 0; conj J for
st < 0), so J is taken along the ray y = e^{i pi/8} rho, where the
integrand decays with no oscillatory tail (Huybrechs & Vandewalle 2006).
The exact scaling y -> lambda y, lambda = min(|st|^-1/2, tt^-1/3), maps
every (st, tt) onto the compact set max(|st|, tt) = 1, which depends on
alpha only.  One fixed Gauss-Legendre rule (rho = v^2 on (0, 1], with g
in closed form; rho = v^{-1/alpha} on [1, inf)) covers it, certified
once per alpha on first use: n nodes against 2n on a dense grid.

The ratio CDF is the Gil-Pelaez integral (1951)

    P(V2/V1 <= x) = 1/2 - (1/pi) int_0^inf Im phi(-u x, u) / u du,

taken by adaptive Gauss-Kronrod in w, u = w^{2/alpha}, which makes the
integrand finite at 0.  V2 is conditionally centred normal given V1, so
F(0) = 1/2 and F(-x) = 1 - F(x) exactly and only x > 0 is integrated.
A value outside [0, 1] by less than its certified error is projected
onto it; any other failure raises QuadratureError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import gamma as gamma_fn

from .quadrature import (
    QuadratureError,
    euler_accelerated_sum,  # noqa: F401  (perfbench/spans.py patches it by this name)
    gauss_kronrod,
)

__all__ = [
    "LimitParams",
    "sample_limit_pairs",
    "limit_u_samples",
    "truncation_bounds",
    "cf_joint",
    "cf_marginals",
    "cf_rule_health",
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

CF_RULE_TOL = 1e-11  # certified n-vs-2n error of the normalised exponent
_RULE_NODES = (20, 40, 80, 160, 320)
_CERT_POINTS = 257   # per edge of the normalised set
_CF_CHUNK = 2**17    # (point, node) pairs per block: 2 MB per complex array


class _CFRule(NamedTuple):
    """J(st=a, tt=b) ~ lin2*a - lin3*b + sum_k w_k expm1(a*c2_k - b*c3_k)."""

    n: int
    c2: np.ndarray
    c3: np.ndarray
    w: np.ndarray
    lin2: complex
    lin3: complex
    error: float = math.nan   # certified n-vs-2n error
    margin: float = math.nan  # lower bound of -Re J on the normalised set


def _ray_rule(alpha: float, n: int) -> _CFRule:
    """n Gauss-Legendre nodes on each piece of the ray y = e^{i pi/8} rho.

    On (0, 1] (rho = v^2) the linear part g of e^g - 1 is taken in closed
    form less the rule's own sum of it.  On [1, inf) (rho = v^{-1/alpha})
    the weight alpha rho^{-alpha-1} drho is -dv, and the rule's sum of the
    weights cancels the closed-form integral of the "-1" term.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    v, w = 0.5 * (x + 1.0), 0.5 * w
    rot = np.exp(1j * math.pi / 8.0)
    turn = rot ** -alpha  # alpha y^{-alpha-1} dy = alpha turn rho^{-alpha-1} drho
    w_head = w * 2.0 * alpha * turn * v ** (-2.0 * alpha - 1.0)
    y = rot * np.concatenate([v * v, v ** (-1.0 / alpha)])
    c2, c3 = 1j * y * y, y**3
    lin2 = 1j * alpha * rot ** (2.0 - alpha) / (2.0 - alpha) - w_head @ c2[:n]
    lin3 = alpha * rot ** (3.0 - alpha) / (3.0 - alpha) - w_head @ c3[:n]
    return _CFRule(n, c2, c3, np.concatenate([w_head, w * turn]), lin2, lin3)


def _normalised_exponent(rule: _CFRule, a, b) -> np.ndarray:
    """J(st=a, tt=b) by ``rule`` over 1-d arrays a >= 0, b >= 0."""
    out = rule.lin2 * a - rule.lin3 * b
    rows = max(1, _CF_CHUNK // len(rule.w))
    for lo in range(0, len(a), rows):
        g = np.multiply.outer(a[lo:lo + rows], rule.c2)
        g -= np.multiply.outer(b[lo:lo + rows], rule.c3)
        out[lo:lo + rows] += np.einsum("ij,j->i", np.expm1(g, out=g), rule.w)
    return out


@functools.lru_cache(maxsize=64)
def _cf_rule(alpha: float) -> _CFRule:
    """The first rule within CF_RULE_TOL of twice its nodes (built on use).

    The two are compared on a dense grid of the normalised set
    max(|st|, tt) = 1; its st >= 0 half suffices by conjugation.  -Re J
    is least at the grid point (st, tt) = (1, 0), which gives the margin.
    """
    edge = np.linspace(0.0, 1.0, _CERT_POINTS)
    a = np.concatenate([np.ones_like(edge), edge])
    b = np.concatenate([edge, np.ones_like(edge)])
    for n in _RULE_NODES:
        fine = _normalised_exponent(_ray_rule(alpha, 2 * n), a, b)
        rule = _ray_rule(alpha, n)
        err = float(np.max(np.abs(_normalised_exponent(rule, a, b) - fine)))
        if err <= CF_RULE_TOL:
            return rule._replace(error=err, margin=np.min(-fine.real) - err)
    raise QuadratureError(f"CF rule: {n} nodes differ from {2 * n} by "
                          f"{err:.2e} > {CF_RULE_TOL:g} at alpha = {alpha}")


def cf_rule_health(p: LimitParams) -> dict:
    """Node count and certified n-vs-2n error of the CF rule at ``p``."""
    rule = _cf_rule(p.alpha)
    return {"cf_nodes": rule.n, "cf_rule_error": rule.error}


def _cf_exponent(p: LimitParams, s, t) -> np.ndarray:
    """The Poisson integral J(s, t), phi = exp(theta J), over arrays.

    With L = max(|st|^{1/2}, tt^{1/3}), J(st, tt) = L^alpha J(st/L^2, tt/L^3)
    lies on the normalised set, and J(-st, tt) = conj J(st, tt).
    """
    m = p.mu_A
    st = np.asarray(s, dtype=np.float64) / (1.0 - m**2)
    tt = p.sigma_A2 * np.square(t, dtype=np.float64) / (2.0 * (1.0 - m**3))
    st, tt = np.broadcast_arrays(st, tt)
    big = np.maximum(np.sqrt(np.abs(st)), np.cbrt(tt))
    safe = np.where(big > 0.0, big, 1.0)  # J(0, 0) = 0 either way
    jn = _normalised_exponent(_cf_rule(p.alpha), np.abs(st / safe**2).ravel(),
                              (tt / safe**3).ravel()).reshape(st.shape)
    return big**p.alpha * np.where(st < 0.0, np.conj(jn), jn)


def cf_log(p: LimitParams, s: float, t: float) -> complex:
    """Continuous logarithm of the joint CF (the Poisson exponent).

    Unlike log(cf_joint(...)), this never wraps at the principal
    branch, which is what makes the stability identity
    cf(a^{2/alpha} s, a^{3/(2 alpha)} t) = exp(a * cf_log(s, t))
    directly checkable.
    """
    return complex(p.theta * _cf_exponent(p, float(s), float(t)))


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
# ratio CDF by Gil-Pelaez inversion

CDF_TOL = 1e-4
_DAMP_LOG = 45.0  # |phi| <= e^-45 beyond the cut of the outer integral


def cdf_ratio(p: LimitParams, x: float, tol: float = CDF_TOL) -> float:
    """P(V2/V1 <= x) from the joint CF, certified to within ``tol``.

    Only x > 0 is integrated (see module docstring).  The certified error
    is the panels' error plus closed-form bounds for the CF rule and the
    cut; QuadratureError names the stage that cannot keep within ``tol``.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x == 0.0:
        return 0.5
    cdf = 1.0 if math.isinf(x) else _cdf_positive(p, abs(x), tol)
    return cdf if x > 0.0 else 1.0 - cdf


def _cdf_positive(p: LimitParams, x: float, tol: float) -> float:
    """cdf_ratio at a finite x > 0."""
    a, m = p.alpha, p.mu_A
    rule = _cf_rule(a)
    # |phi| <= exp(-theta L^alpha margin), and L^alpha grows at least like
    # u^{alpha/2} along (-u x, u): the rule's error moves the integral of
    # |d phi|/u by at most 2 err/(alpha (margin - err))
    cf_err = 2.0 * rule.error / (math.pi * a * (rule.margin - rule.error))
    # cut where that bound or phi_V2(u) >= |phi| falls to e^-45
    k1 = p.theta * rule.margin * (x / (1.0 - m**2)) ** (a / 2.0)
    w_max = min(_DAMP_LOG / k1, (_DAMP_LOG / p.C2) ** 0.75)
    cut_err = 2.0 * math.exp(-_DAMP_LOG) / (_DAMP_LOG * math.pi * a)
    budget = tol - cf_err - cut_err
    if budget <= 0.5 * tol:
        raise QuadratureError(f"cdf_ratio: CF rule error bound "
                              f"{cf_err + cut_err:.2e} exceeds tol/2 = {tol / 2:g}")

    def f(w):
        u = w ** (2.0 / a)
        return (2.0 / a) * np.exp(p.theta * _cf_exponent(p, -u * x, u)).imag / w

    try:
        val, err = gauss_kronrod(f, 0.0, w_max, math.pi * budget,
                                 initial=np.linspace(0.0, w_max, 9))
    except QuadratureError as exc:
        raise QuadratureError(
            f"cdf_ratio: Gil-Pelaez integral at x = {x:g}: {exc}") from None
    cdf = 0.5 - float(np.real(val)) / math.pi
    certified = err / math.pi + cf_err + cut_err
    if not -certified <= cdf <= 1.0 + certified:
        raise QuadratureError(f"cdf_ratio: {cdf!r} at x = {x:g} is outside "
                              f"[0, 1] by more than its error {certified:.2e}")
    return min(max(cdf, 0.0), 1.0)
