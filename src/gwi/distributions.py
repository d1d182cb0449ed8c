"""Elementary sampling blocks and distribution-level math.

Immigration counts follow a discrete Pareto law with an atom at zero:
P(B = 0) = 1 - c and P(B >= k) = c * k**(-alpha) exactly for integers
k >= 1, with tail index alpha in (1, 2) so the mean is finite but the
variance is not.  Offspring counts come from one of three parametric
families (Bernoulli, Poisson, Geometric) chosen so the total offspring
of ``parents`` individuals has a closed-form law: Binomial, Poisson or
negative binomial.  These are the (a, b, 0) class (Panjer 1981; Sundt
& Jewell 1981), one family per value of the Katz parameter s in
``_KATZ``: each pmf obeys one recurrence in s, and the offspring
variance is mu_A (1 + s mu_A).  Most live families are small, so the
CDF of that law for 1 .. 31 parents and 0 .. 63 offspring is tabulated
once per (family, mu_A), on the first draw, and cached like the CF rule
of ``limitlaw``; ``OffspringLaw`` itself is a plain value.  A family of
positive size is drawn by indexed-search inversion of one uniform
(Chen & Asau 1974; Devroye 1986, ch. III): a 256-cell guide per row
gives the first candidate, and the draw steps forward while the
uniform is at or past the CDF.  A family the table does not cover, or a
uniform past its row's last tabulated value, is drawn by the
``Generator`` call for its law, in O(1) regardless of the population
size.  ``karamata_ratio`` is the truncated-moment tail ratio of the
exact Pareto law, in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta

__all__ = [
    "ImmigrationLaw",
    "OffspringLaw",
    "sample_immigration_many",
    "sample_aggregate_offspring_many",
    "karamata_ratio",
    "karamata_limit",
]

# Comparison slack for the inverse-CDF boundary: accept k when
# c*k^(-alpha) >= (1-u)*(1-_BOUNDARY_RTOL), so that u values meant to hit
# the CDF jump exactly (e.g. 1-u == c in real arithmetic) are not pushed
# to the lower step by one ulp of rounding in 1-u.
_BOUNDARY_RTOL = 1e-12

# Offspring table: rows z = 0 .. _ZMAX parents, columns k < _KCOLS
# offspring plus a sentinel column of +inf, and _GUIDE guide cells per
# row.  A row is tabulated only if its law's mass past the last column
# is below _TAIL_MASS, summed over the pmf recurrence continued to
# _KTAIL terms (far enough that the rest is negligible next to it).
_ZMAX = 31
_KCOLS = 64
_GUIDE = 256
_TAIL_MASS = 1e-16
_KTAIL = 4 * _KCOLS

# Katz parameter s of each family, in the order the CLI words them.  The
# total offspring S_z of z parents has p_0 = (1 + s mu)^(-z/s), or
# e^(-z mu) at s = 0, and p_k / p_(k-1) = q (z + s (k-1)) / k with
# q = mu / (1 + s mu); one parent's variance is mu (1 + s mu).  At s = -1
# the ratio is 0 at k = z + 1, which ends the Binomial row.
_KATZ = {"bernoulli": -1.0, "poisson": 0.0, "geometric": 1.0}


@dataclass(frozen=True)
class ImmigrationLaw:
    """Discrete Pareto immigration with an atom at zero.

    P(B = 0) = 1 - c and P(B >= k) = c * k**(-alpha) for k >= 1.
    """

    alpha: float
    c: float
    mu_B: float = field(init=False)

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must lie in (0, 1), got {self.c}")
        # mu_B = c * sum_{k>=1} k^(-alpha) = c * zeta(alpha)
        object.__setattr__(self, "mu_B", self.c * float(zeta(self.alpha)))


@dataclass(frozen=True)
class OffspringLaw:
    """Offspring distribution with mean mu_A in (0, 1).

    Supported families, parametrised by the mean alone:

    - ``bernoulli``: A ~ Bernoulli(mu_A), variance mu_A(1-mu_A);
    - ``poisson``:   A ~ Poisson(mu_A), variance mu_A;
    - ``geometric``: A on {0,1,...} with success p = 1/(1+mu_A),
      variance mu_A(1+mu_A).
    """

    family: str
    mu_A: float
    sigma_A2: float = field(init=False)

    FAMILIES = tuple(_KATZ)

    def __post_init__(self):
        fam = self.family.lower()
        if fam not in self.FAMILIES:
            raise ValueError(f"unknown offspring family {self.family!r}")
        object.__setattr__(self, "family", fam)
        if not 0.0 < self.mu_A < 1.0:
            raise ValueError(f"mu_A must lie in (0, 1), got {self.mu_A}")
        object.__setattr__(self, "sigma_A2",
                           self.mu_A * (1.0 + _KATZ[fam] * self.mu_A))


@functools.lru_cache(maxsize=64)
def _offspring_tables(family: str, mu: float):
    """Flat CDF table and guide of the aggregate offspring law (built on
    first use, read-only).

    Row z holds P(S_z <= k) for k < _KCOLS, S_z the total offspring of z
    parents: Binomial(z, mu), Poisson(z*mu), or NB(z, 1/(1+mu)) counting
    failures, every row from the one (a, b, 0) recurrence of ``_KATZ`` at
    the family's s.  Row _ZMAX + 1 stands for every larger family.
    Guide cell j of row z is the flat index of the first k with CDF
    above j/_GUIDE; in a row that is not tabulated, and in row
    _ZMAX + 1, it is the row's sentinel, so its draws come out as
    k = _KCOLS and fall back.  A row is tabulated when its mass past
    k = _KCOLS - 1 is below _TAIL_MASS and its first term p_0 is a
    normal float (else the recurrence loses its digits, as the Binomial
    row does for mu_A near 1).
    """
    rows, width = _ZMAX + 2, _KCOLS + 1
    z = np.arange(rows, dtype=np.float64)[:, None]
    k = np.arange(1, _KTAIL, dtype=np.float64)
    s = _KATZ[family]
    p0 = np.exp(-mu * z) if s == 0.0 else (1.0 + s * mu) ** (-z / s)
    r = mu / (1.0 + s * mu) * (z + s * (k - 1.0)) / k
    pmf = np.cumprod(np.hstack([p0, r]), axis=1)
    tabulated = (pmf[:, _KCOLS:].sum(axis=1) < _TAIL_MASS) \
        & (p0[:, 0] >= np.finfo(np.float64).tiny)
    tabulated[-1] = False
    cdf = np.full((rows, width), np.inf)
    cdf[:, :_KCOLS] = np.cumsum(pmf[:, :_KCOLS], axis=1)
    cells = np.arange(_GUIDE) / _GUIDE
    guide = np.full((rows, _GUIDE), _KCOLS, dtype=np.intp)
    for row in np.flatnonzero(tabulated):
        guide[row] = np.searchsorted(cdf[row], cells, side="right")
    guide += np.arange(rows)[:, None] * width
    cdf, guide = cdf.ravel(), guide.ravel()
    cdf.flags.writeable = guide.flags.writeable = False
    return cdf, guide


def sample_immigration_many(law: ImmigrationLaw, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF immigration draws from an array of uniforms.

    Returns the largest k >= 1 with c*k^(-alpha) >= 1-u, or 0 where there
    is none (1-u > c): floor((c/(1-u))**(1/alpha)) corrected by one step
    either way against rounding in the power.  The powers are computed
    only where the draw is positive, which is exactly where the
    (slackened) target is at most c.
    """
    q = 1.0 - np.asarray(u, dtype=np.float64)
    a = float(law.alpha)
    target = q * (1.0 - _BOUNDARY_RTOL)
    out = np.zeros(q.shape, dtype=np.int64)
    hit = np.flatnonzero(target <= law.c)
    q, target = q.ravel()[hit], target.ravel()[hit]
    k = np.floor((law.c / q) ** (1.0 / a)).astype(np.int64)
    # one-ulp guard: step down if c*k^-alpha fell below the target, step
    # up if the next level still clears it
    k -= (k >= 1) & (law.c * np.maximum(k, 1) ** -a < target)
    k += law.c * (k + 1.0) ** -a >= target
    np.put(out, hit, k)
    return out


def sample_aggregate_offspring_many(
    law: OffspringLaw, parents: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Total offspring of each family in the 1-d array ``parents`` of
    positive sizes, in O(1) per family.

    Each family z takes one uniform u from one ``rng.random`` call and is
    drawn by indexed search in the cached table of (``law.family``,
    ``law.mu_A``): the guide cell of row min(z, _ZMAX + 1) at floor(256u)
    gives the first candidate k, and k steps forward, on the shrinking
    set of families that need it, while u >= CDF(k).  Rows 1 .. 31 are
    tabulated where the law puts less than 1e-16 of its mass past
    k = 63.  Two cases fall back to the ``Generator`` call for the
    closed-form aggregate, Binomial(z, mu) for Bernoulli offspring,
    Poisson(z*mu) for Poisson and NegativeBinomial(z, 1/(1+mu)) for
    Geometric: a family above the tabulated rows, and a uniform at or
    past its row's last tabulated CDF value.  A size below 1 would read
    another row of the table, so it is a ``ValueError``, raised before
    any draw.
    """
    z = np.asarray(parents)
    if z.min(initial=1) < 1:
        raise ValueError("parents must be positive")
    cdf, guide = _offspring_tables(law.family, law.mu_A)
    row = np.minimum(z, _ZMAX + 1)
    u = rng.random(len(z))
    k = guide[row * _GUIDE + (u * _GUIDE).astype(np.intp)]
    step = np.flatnonzero(u >= cdf[k])
    while step.size:
        k[step] += 1
        step = step[u[step] >= cdf[k[step]]]
    k -= row * (_KCOLS + 1)
    fall = np.flatnonzero(k == _KCOLS)
    if fall.size:  # an empty Generator call costs ~15 us, the test ~30 ns
        k[fall] = _generator_draw(law, z[fall], rng)
    return k


def _generator_draw(law: OffspringLaw, parents: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """The closed-form aggregate law's own ``Generator`` call, for
    positive ``parents``."""
    mu = law.mu_A
    if law.family == "bernoulli":
        return rng.binomial(parents, mu)
    if law.family == "poisson":
        return rng.poisson(mu * parents)
    # geometric: sum of n draws is NB(n, p) with p = 1/(1+mu)
    return rng.negative_binomial(parents, 1.0 / (1.0 + mu))


def karamata_ratio(beta: float, alpha: float, x: float) -> float:
    """Truncated-moment tail ratio of the exact Pareto(alpha) law on [1, inf).

    With P(X>x) = x^-alpha for x > 1, the moment truncated on the side
    where it is finite is chosen from beta itself:

    - beta >= alpha: returns x^beta * P(X>x) / E[X^beta 1{X<=x}], where
      E[X^beta 1{X<=x}] = alpha/(beta-alpha) * (x^(beta-alpha) - 1), or
      alpha*log(x) at beta = alpha; it converges to (beta-alpha)/alpha.
      The difference is formed by ``expm1``, so it stays positive for
      beta just above alpha and x just above 1;
    - beta < alpha: returns x^beta * P(X>x) / E[X^beta 1{X>x}], where
      E[X^beta 1{X>x}] = alpha/(alpha-beta) * x^(beta-alpha); it equals
      (alpha-beta)/alpha for every x.

    Karamata's theorem gives the same limits for every law whose tail is
    regularly varying with index alpha.
    """
    if not x > 1.0:
        raise ValueError(f"x must exceed 1, got {x!r}")
    if beta == alpha:
        mom = alpha * math.log(x)
    elif beta > alpha:
        mom = alpha / (beta - alpha) * math.expm1((beta - alpha) * math.log(x))
    else:
        mom = alpha / (alpha - beta) * x ** (beta - alpha)
    if mom <= 0:
        raise ValueError("truncated moment must be positive")
    return x**beta * x**-alpha / mom


def karamata_limit(beta, alpha):
    """Limit value of ``karamata_ratio`` as x -> inf for either form."""
    if beta >= alpha:
        return (beta - alpha) / alpha
    return (alpha - beta) / alpha
