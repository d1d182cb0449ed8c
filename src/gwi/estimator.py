"""Conditional least squares estimation of the offspring mean.

With the immigration mean mu_B known, the CLS estimator of mu_A from a
path X_0..X_n is

    mu_hat = sum_{i=1}^n X_{i-1} (X_i - mu_B) / sum_{i=1}^n X_{i-1}^2,

undefined on the (exponentially rare) event that the denominator
vanishes.  The estimation error obeys
mu_hat - mu_A = sum X_{i-1} M_i / sum X_{i-1}^2, and sqrt(a_n) times it
converges to the ratio of a dependent stable pair; the normalised
partial sums (V_n^1, V_n^2) = (a_n^-2 sum X_j^2, a_n^-3/2 sum X_j M_{j+1})
are the two coordinates.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .process import (
    ModelParams,
    Trajectory,
    scaling,
    simulate_batch,
    stationary_init_many,
    step_batch,  # noqa: F401  (perfbench/spans.py patches it by this name)
)

__all__ = [
    "ClsResult",
    "PartialSumPair",
    "cls_estimate",
    "partial_sums",
    "scaled_error",
    "replication_experiment",
    "replication_seeds",
    "REPLICATION_FIELDS",
]

_BLOCK = 250


@dataclass(frozen=True)
class ClsResult:
    """CLS estimate with its raw building blocks.

    ``numerator`` is sum X_{i-1}(X_i - mu_B) and ``denominator`` is
    sum X_{i-1}^2, so that for the true offspring mean
    mu_hat - mu_A = (numerator - mu_A*denominator) / denominator exactly.
    """

    mu_hat: float
    numerator: float
    denominator: float
    defined: bool


@dataclass(frozen=True)
class PartialSumPair:
    """Normalised partial sums (a_n^-2 sum X_j^2, a_n^-3/2 sum X_j M_{j+1})."""

    v1: float
    v2: float


def cls_estimate(x, mu_B: float) -> ClsResult:
    """CLS estimate of the offspring mean from path values X_0..X_n.

    Sums are accumulated exactly (math.fsum) since heavy-tailed paths
    mix terms of very different magnitude.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 2:
        raise ValueError("need at least two path values")
    prev, cur = x[:-1], x[1:]
    num = math.fsum(prev * (cur - mu_B))
    den = math.fsum(prev * prev)
    if den > 0:
        return ClsResult(mu_hat=num / den, numerator=num, denominator=den,
                         defined=True)
    return ClsResult(mu_hat=math.nan, numerator=num, denominator=den,
                     defined=False)


def partial_sums(traj: Trajectory, a_n: float) -> PartialSumPair:
    """Normalised sums over the shifted window j = 1..n, n = len(x) - 2.

    The trajectory must extend one step past the window so that M_{j+1}
    exists for every j; compensated (exact) summation is used throughout.
    """
    if a_n <= 0:
        raise ValueError("a_n must be positive")
    if traj.n < 2:
        raise ValueError("trajectory must hold at least two transitions")
    xj = np.asarray(traj.x[1:-1], dtype=np.float64)
    m_next = np.asarray(traj.m[1:], dtype=np.float64)
    v1 = math.fsum(xj * xj) / a_n**2
    v2 = math.fsum(xj * m_next) / a_n**1.5
    return PartialSumPair(v1=v1, v2=v2)


def scaled_error(cls: ClsResult, mu_A: float, a_n: float) -> float:
    """sqrt(a_n) * (mu_hat - mu_A); requires a defined estimate."""
    if not cls.defined:
        raise ValueError("CLS estimate is undefined (zero denominator)")
    return math.sqrt(a_n) * (cls.mu_hat - mu_A)


# ---------------------------------------------------------------------------
# replication farm

REPLICATION_FIELDS = [
    ("rep", np.int64),
    ("n", np.int64),
    ("a_n", np.float64),
    ("mu_hat", np.float64),
    ("defined", np.bool_),
    ("v1", np.float64),
    ("v2", np.float64),
    ("scaled_error", np.float64),
]


def replication_seeds(reps: int, seed: int) -> list[list[int]]:
    """RNG keys [seed, b] of the replication blocks, one per _BLOCK reps.

    Block b holds replications b*_BLOCK onward and draws from its own
    stream ``default_rng([seed, b])``, so results do not depend on how
    blocks are distributed over workers.
    """
    return [[seed, b] for b in range(-(-reps // _BLOCK))]


def _run_block(args):
    """Simulate one block of replications as a vectorised chain bundle.

    The path is reduced block by block into the estimator sums over the
    window i = 1..n and the pair sums over the shifted window j = 1..n-1.

    ``scaled_error`` is sqrt(a_n) * (mu_hat - mu_A) computed from the
    rounded mu_hat, so it can be recomputed exactly from the written
    ``mu_hat`` column.  The exact identity mu_hat - mu_A =
    sum X_{i-1} M_i / sum X_{i-1}^2 would keep more digits on rows with
    mu_hat near mu_A, but would differ from that recomputation by up to
    about 1e-9 relative.
    """
    (params, n, key, width, a_n, init_tol) = args
    rng = np.random.default_rng(key)
    x = stationary_init_many(params, init_tol, width, rng)

    mu_A, mu_B = params.mu_A, params.mu_B
    # num, den, sum_{j=1..n-1} X_j^2, sum_{j=1..n-1} X_j M_{j+1}
    sums = np.zeros((4, width))
    first = True

    def reduce(block):
        # Row i of ``terms`` holds the step-i terms, row 0 the running
        # sums; summing over the outer axis adds them in time order.
        nonlocal first
        f = block.T.astype(np.float64, order="C")
        prev, cur = f[:-1], f[1:]
        terms = np.empty((len(f), 4, width))
        terms[0] = sums
        terms[1:, 0] = prev * (cur - mu_B)
        terms[1:, 1] = prev * prev
        terms[1:, 2] = terms[1:, 1]
        terms[1:, 3] = prev * (cur - mu_A * prev - mu_B)
        if first:  # the shifted window leaves out X_0
            terms[1, 2:] = 0.0
            first = False
        terms.sum(axis=0, out=sums)

    simulate_batch(params, n, x, rng, reduce=reduce)
    num, den, s_x2, s_xm = sums
    defined = den > 0
    mu_hat = np.where(defined, num / np.where(defined, den, 1.0), np.nan)
    out = np.zeros(width, dtype=REPLICATION_FIELDS)
    out["rep"] = key[1] * _BLOCK + np.arange(width)
    out["n"] = n
    out["a_n"] = a_n
    out["mu_hat"] = mu_hat
    out["defined"] = defined
    out["v1"] = s_x2 / a_n**2
    out["v2"] = s_xm / a_n**1.5
    out["scaled_error"] = np.where(defined, math.sqrt(a_n) * (mu_hat - mu_A),
                                   np.nan)
    return key[1], out


def replication_experiment(
    params: ModelParams,
    n: int,
    reps: int,
    seed: int,
    init_tol: float = 1e-6,
    workers: int = 1,
) -> np.ndarray:
    """Replicated CLS runs on stationary paths.

    Returns a structured array with one row per replication holding the
    estimate, the normalised partial sums over the shifted window, and
    the scaled error sqrt(a_n)*(mu_hat - mu_A).  Deterministic in
    (params, n, reps, seed) and invariant to ``workers``.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    a_n = scaling(params, n).a_n
    blocks = [(params, n, key, min(_BLOCK, reps - key[1] * _BLOCK), a_n,
               init_tol) for key in replication_seeds(reps, seed)]
    if workers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, blocks))
    else:
        results = [_run_block(args) for args in blocks]
    results.sort(key=lambda t: t[0])
    return np.concatenate([r for _, r in results])
