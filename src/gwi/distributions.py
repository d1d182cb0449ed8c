"""Elementary sampling blocks and distribution-level math.

Immigration counts follow a discrete Pareto law with an atom at zero:
P(B = 0) = 1 - c and P(B >= k) = c * k**(-alpha) exactly for integers
k >= 1, with tail index alpha in (1, 2) so the mean is finite but the
variance is not.  Offspring counts come from one of three parametric
families (Bernoulli, Poisson, Geometric) chosen so the total offspring
of ``parents`` individuals has a closed-form law and can be drawn in
O(1) regardless of the population size.  ``karamata_ratio`` is the
truncated-moment tail ratio of the exact Pareto law, in closed form.
"""

from __future__ import annotations

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

    FAMILIES = ("bernoulli", "poisson", "geometric")

    def __post_init__(self):
        fam = self.family.lower()
        if fam not in self.FAMILIES:
            raise ValueError(f"unknown offspring family {self.family!r}")
        object.__setattr__(self, "family", fam)
        if not 0.0 < self.mu_A < 1.0:
            raise ValueError(f"mu_A must lie in (0, 1), got {self.mu_A}")
        mu = self.mu_A
        var = {
            "bernoulli": mu * (1.0 - mu),
            "poisson": mu,
            "geometric": mu * (1.0 + mu),
        }[fam]
        object.__setattr__(self, "sigma_A2", var)


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
    """Total offspring for each entry of ``parents``, in O(1) per entry.

    Uses the closed-form aggregate: Binomial(parents, mu) for Bernoulli
    offspring, Poisson(parents*mu) for Poisson, and NegativeBinomial
    (parents failures-before-success parametrisation) for Geometric.
    The binomial and Poisson samplers return 0 for zero parents without
    consuming the stream; ``negative_binomial`` rejects n = 0, so the
    geometric family draws for positive entries only.
    """
    parents = np.asarray(parents)
    mu = law.mu_A
    if law.family == "bernoulli":
        return rng.binomial(parents, mu)
    if law.family == "poisson":
        return rng.poisson(mu * parents)
    # geometric: sum of n draws is NB(n, p) with p = 1/(1+mu)
    out = np.zeros(parents.shape, dtype=np.int64)
    pos = parents > 0
    out[pos] = rng.negative_binomial(parents[pos], 1.0 / (1.0 + mu))
    return out


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
