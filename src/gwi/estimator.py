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

One reducer, ``_cls_reducer``, forms these sums in time order.  The
replication farm feeds it the blocks of ``simulate_batch``;
``cls_estimate`` feeds it a given path or bundle of paths in one call.
Both return rows of ``REPLICATION_FIELDS``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .process import (
    ModelParams,
    scaling,
    simulate_batch,
    stationary_init_many,
    step_batch,  # noqa: F401  (perfbench/spans.py patches it by this name)
)

__all__ = [
    "cls_estimate",
    "replication_experiment",
    "replication_seeds",
    "REPLICATION_FIELDS",
]

_BLOCK = 250


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


def _cls_reducer(params: ModelParams, width: int):
    """Zeroed CLS sums of ``width`` chains and the reducer that adds to them.

    ``reduce(block)`` takes successive (width, T+1) blocks whose column 0
    is the previous block's last state (X_0 for the first block), as
    ``simulate_batch`` hands them over.  The estimator sums run over the
    window i = 1..n, the pair sums over the shifted window j = 1..n-1.
    """
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

    return sums, reduce


def _rows(params: ModelParams, n: int, sums: np.ndarray) -> np.ndarray:
    """``REPLICATION_FIELDS`` rows, numbered from 0, from reduced sums.

    ``scaled_error`` is sqrt(a_n) * (mu_hat - mu_A) computed from the
    rounded mu_hat, so it can be recomputed exactly from the written
    ``mu_hat`` column.  The exact identity mu_hat - mu_A =
    sum X_{i-1} M_i / sum X_{i-1}^2 would keep more digits on rows with
    mu_hat near mu_A, but would differ from that recomputation by up to
    about 1e-9 relative.
    """
    a_n = scaling(params, n).a_n
    num, den, s_x2, s_xm = sums
    defined = den > 0
    mu_hat = np.where(defined, num / np.where(defined, den, 1.0), np.nan)
    out = np.zeros(len(num), dtype=REPLICATION_FIELDS)
    out["rep"] = np.arange(len(num))
    out["n"] = n
    out["a_n"] = a_n
    out["mu_hat"] = mu_hat
    out["defined"] = defined
    out["v1"] = s_x2 / a_n**2
    out["v2"] = s_xm / a_n**1.5
    out["scaled_error"] = np.where(
        defined, math.sqrt(a_n) * (mu_hat - params.mu_A), np.nan)
    return out


def cls_estimate(params: ModelParams, x) -> np.ndarray:
    """CLS rows of one path X_0..X_n or of a (chains, n+1) bundle.

    Returns the ``REPLICATION_FIELDS`` record of a 1-D path, or one row
    per chain of a 2-D bundle: the same rows the replication farm writes
    for the same paths.
    """
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[-1] < 2:
        raise ValueError("need one path or a (chains, n+1) bundle of at "
                         "least two path values")
    paths = np.atleast_2d(x)
    sums, reduce = _cls_reducer(params, len(paths))
    reduce(paths)
    rows = _rows(params, paths.shape[1] - 1, sums)
    return rows[0] if x.ndim == 1 else rows


def _run_block(args):
    """Simulate one block of replications as a vectorised chain bundle,
    reducing the path block by block into the CLS rows."""
    (params, n, key, width, init_tol) = args
    rng = np.random.default_rng(key)
    x = stationary_init_many(params, init_tol, width, rng)
    sums, reduce = _cls_reducer(params, width)
    simulate_batch(params, n, x, rng, reduce=reduce)
    out = _rows(params, n, sums)
    out["rep"] += key[1] * _BLOCK
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
    blocks = [(params, n, key, min(_BLOCK, reps - key[1] * _BLOCK), init_tol)
              for key in replication_seeds(reps, seed)]
    if workers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, blocks))
    else:
        results = [_run_block(args) for args in blocks]
    results.sort(key=lambda t: t[0])
    return np.concatenate([r for _, r in results])
