"""Branching-with-immigration process engine.

The process is the integer-valued Markov chain

    X_i = sum_{j=1}^{X_{i-1}} A_j^{(i)} + B_i,

with i.i.d. offspring counts A (mean mu_A in (0, 1), finite variance)
and i.i.d. heavy-tailed immigration B.  Subcriticality makes the chain
positive recurrent with stationary mean mu_B / (1 - mu_A); the
stationary tail inherits the immigration tail up to the factor
1/theta with theta = 1 - mu_A**alpha.

Residuals M_i = X_i - mu_A*X_{i-1} - mu_B form a martingale difference
sequence; the normalising sequence a_n solves n*P(X_0 > a_n) -> 1 and
grows like n**(1/alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    ImmigrationLaw,
    OffspringLaw,
    sample_aggregate_offspring_many,
    sample_immigration_many,
)

__all__ = [
    "ModelParams",
    "ScalingInfo",
    "TailOverflowError",
    "cascade_depth",
    "stationary_init_many",
    "step_batch",
    "simulate",
    "simulate_batch",
    "residuals",
    "scaling",
]

# Abort a replication before int64 products can wrap around.
_OVERFLOW_LIMIT = 2**62

# Chain-steps per ``simulate_batch`` block: each block's immigration is
# drawn at once, and in reduce mode the block is handed to the reducer.
_REDUCE_BUDGET = 2**15


class TailOverflowError(RuntimeError):
    """Raised when a trajectory exceeds the safe integer range."""


@dataclass(frozen=True)
class ModelParams:
    """Full model identity: offspring family plus immigration law."""

    offspring: OffspringLaw
    immigration: ImmigrationLaw

    @property
    def mu_A(self) -> float:
        return self.offspring.mu_A

    @property
    def sigma_A2(self) -> float:
        return self.offspring.sigma_A2

    @property
    def alpha(self) -> float:
        return self.immigration.alpha

    @property
    def c(self) -> float:
        return self.immigration.c

    @property
    def mu_B(self) -> float:
        return self.immigration.mu_B

    @property
    def theta(self) -> float:
        """P(no earlier generation of a tail cluster exceeds the leader)."""
        return 1.0 - self.mu_A**self.alpha

    @property
    def stationary_mean(self) -> float:
        return self.mu_B / (1.0 - self.mu_A)


@dataclass(frozen=True)
class ScalingInfo:
    """Normalising value a_n for a horizon n."""

    n: int
    a_n: float
    mode: str
    theta: float


def cascade_depth(params: ModelParams, tol: float) -> int:
    """Smallest I with mean series remainder mu_B*mu_A^(I+1)/(1-mu_A) < tol."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    depth = 0
    rem = params.mu_B * params.mu_A / (1.0 - params.mu_A)
    while rem >= tol:
        depth += 1
        rem *= params.mu_A
    return depth


def stationary_init_many(
    params: ModelParams, tol: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Approximate stationary draws via the truncated backward series.

    The stationary law is B_0 plus, for each past lag i, the survivors of
    the immigration batch B_{-i} thinned through i offspring generations.
    The truncated sum over lags 0..I is evaluated in nested (Horner) form

        S <- B_{-I};  S <- B_{-i} + thin(S)  for i = I-1 .. 0,

    which has the same law as summing independent cascades because
    branching of a merged population splits into independent branches.
    I is the smallest depth whose mean remainder is below ``tol``.
    """
    depth = cascade_depth(params, tol)
    s = sample_immigration_many(params.immigration, rng.random(size))
    for _ in range(depth):
        thinned = sample_aggregate_offspring_many(params.offspring, s, rng)
        s = thinned + sample_immigration_many(params.immigration, rng.random(size))
    return s


def step_batch(
    params: ModelParams, x: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One transition of independent chains: offspring of ``x`` plus ``b``.

    ``b`` is the step's immigration, drawn ahead by ``simulate_batch``.
    """
    if x.max(initial=0) > _OVERFLOW_LIMIT:
        raise TailOverflowError("trajectory exceeded the safe integer range")
    return sample_aggregate_offspring_many(params.offspring, x, rng) + b


def simulate_batch(
    params: ModelParams,
    n: int,
    inits: np.ndarray,
    rng: np.random.Generator,
    reduce=None,
) -> np.ndarray | None:
    """Simulate independent chains side by side for n steps.

    The steps run in blocks of T = max(1, 2**15 // chains) (the last
    block may be shorter).  Immigration does not depend on the state, so
    each block first draws its (T, chains) immigration from one
    ``rng.random((T, chains))`` call and then steps through it, drawing
    the offspring step by step.

    Without ``reduce`` returns the (chains, n+1) int64 path matrix.  With
    it, the path is not stored: ``reduce(block)`` receives successive
    (chains, T+1) int64 blocks whose column 0 is the previous block's
    last state (X_0 for the first block), and None is returned.  The
    block is a reused buffer, so a reducer that keeps it must copy it.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    x = np.asarray(inits, dtype=np.int64)
    chains = len(x)
    steps = max(1, _REDUCE_BUDGET // max(chains, 1))
    out = np.empty((chains, (n if reduce is None else min(steps, n)) + 1),
                   dtype=np.int64)
    out[:, 0] = x
    for start in range(0, n, steps):
        t = min(steps, n - start)
        col = start if reduce is None else 0
        b = sample_immigration_many(params.immigration, rng.random((t, chains)))
        for i in range(t):
            x = step_batch(params, x, b[i], rng)
            out[:, col + i + 1] = x
        if reduce is not None:
            reduce(out[:, : t + 1])
            out[:, 0] = x
    return out if reduce is None else None


def residuals(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Martingale differences M_i = X_i - mu_A*X_{i-1} - mu_B along a path."""
    x = np.asarray(x, dtype=np.float64)
    return x[..., 1:] - params.mu_A * x[..., :-1] - params.mu_B


def simulate(
    params: ModelParams, n: int, init: int, rng: np.random.Generator
) -> np.ndarray:
    """Simulate one path X_0 = init, ..., X_n as an (n+1,) int64 array."""
    return simulate_batch(params, n, np.array([init], dtype=np.int64), rng)[0]


def scaling(
    params: ModelParams, n: int, mode: str = "analytic", sample=None
) -> ScalingInfo:
    """Normalising value a_n for horizon n.

    analytic mode solves n * (c/theta) * a_n**(-alpha) = 1 using the
    asymptotic stationary tail, giving a_n = (n*c/theta)**(1/alpha);
    empirical-quantile mode takes the maximum of 1 and the (1 - 1/n)
    lower quantile of a supplied stationary sample, which must hold at
    least 10*n draws.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    theta = params.theta
    if mode == "analytic":
        a_n = (n * params.c / theta) ** (1.0 / params.alpha)
    elif mode == "empirical-quantile":
        if sample is None or len(sample) < 10 * n:
            raise ValueError("insufficient tail sample")
        q = float(np.quantile(np.asarray(sample), 1.0 - 1.0 / n,
                              method="inverted_cdf"))
        a_n = max(1.0, q)
    else:
        raise ValueError(f"unknown scaling mode {mode!r}")
    return ScalingInfo(n=n, a_n=a_n, mode=mode, theta=theta)
