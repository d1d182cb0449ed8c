"""Conditional least squares estimation of the offspring mean.

With the immigration mean mu_B known, the CLS estimator of mu_A from a
path X_0..X_n is

    mu_hat = sum_{i=1}^n X_{i-1} (X_i - mu_B) / sum_{i=1}^n X_{i-1}^2,

undefined on the (exponentially rare) event that the denominator
vanishes.  The estimation error is exactly
mu_hat - mu_A = sum X_{i-1} M_i / sum X_{i-1}^2, so sqrt(a_n) times it is
the ratio V_n^2 / V_n^1 of the normalised partial sums

    (V_n^1, V_n^2) = (a_n^-2 sum X_{i-1}^2, a_n^-3/2 sum X_{i-1} M_i),

both over the estimator's window i = 1..n, whose joint limit is the
dependent (alpha/2, 2 alpha/3)-stable pair.

One reducer, ``_cls_reducer``, forms the two sums in time order over
time-major (T+1, chains) blocks; every column of a row is a closed form
of them.  ``replication_experiment`` hands it the windows of
``process.run_blocks``, the block farm of stationary chains;
``cls_estimate`` feeds it the transpose of a given path or bundle of
paths in one call.  Both return rows of ``REPLICATION_FIELDS``.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .process import ModelParams, run_blocks, scaling
# perfbench/spans.py patches these by name; nothing here calls them
from .process import stationary_init_many, step_batch  # noqa: F401

__all__ = [
    "cls_estimate",
    "replication_experiment",
    "REPLICATION_FIELDS",
]

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


def _cls_reducer(params: ModelParams, width: int):
    """Zeroed CLS sums of ``width`` chains and the reducer that adds to them.

    ``reduce(block)`` takes successive (T+1, width) blocks whose row 0 is
    the previous block's last state (X_0 for the first block), as
    ``simulate_batch`` hands them over.  The (width, 2) state holds the
    sums over i = 1..n of X_{i-1}^2 and of X_{i-1} M_i, chain first.
    """
    mu_A, mu_B = params.mu_A, params.mu_B
    sums = np.zeros((2, width))

    def reduce(block):
        # Row i of ``terms`` holds the step-i terms, row 0 the running
        # sums; summing over the outer axis adds them in time order.
        # Formed in place: with block-sized temporaries as well, malloc
        # gave its heap back and refaulted it on every call (about a
        # thousand page faults per call at width 250).
        f = block.astype(np.float64)
        prev, cur = f[:-1], f[1:]
        terms = np.empty((len(f), 2, width))
        terms[0] = sums
        np.multiply(prev, prev, out=terms[1:, 0])
        xm = np.multiply(prev, mu_A, out=terms[1:, 1])
        np.subtract(cur, xm, out=xm)
        xm -= mu_B
        xm *= prev
        terms.sum(axis=0, out=sums)

    return sums.T, reduce


def _rows(params: ModelParams, n: int, sums: np.ndarray) -> np.ndarray:
    """``REPLICATION_FIELDS`` rows, numbered from 0, from (chains, 2) sums.

    With den = sum X_{i-1}^2 and xm = sum X_{i-1} M_i, mu_hat is
    mu_A + xm/den, v1 = den/a_n^2 and v2 = xm/a_n^1.5, so v2/v1 is the
    scaled error.  ``scaled_error`` is sqrt(a_n) * (mu_hat - mu_A)
    computed from the rounded mu_hat, so it can be recomputed exactly
    from the written ``mu_hat`` column; it differs from v2/v1 by about
    sqrt(a_n) ulps of mu_hat.
    """
    a_n = scaling(params, n)
    den, xm = sums.T
    defined = den > 0
    mu_hat = np.where(
        defined, params.mu_A + xm / np.where(defined, den, 1.0), np.nan)
    out = np.zeros(len(den), dtype=REPLICATION_FIELDS)
    out["rep"] = np.arange(len(den))
    out["n"] = n
    out["a_n"] = a_n
    out["mu_hat"] = mu_hat
    out["defined"] = defined
    out["v1"] = den / a_n**2
    out["v2"] = xm / a_n**1.5
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
    reduce(paths.T)
    rows = _rows(params, paths.shape[1] - 1, sums)
    return rows[0] if x.ndim == 1 else rows


def replication_experiment(
    params: ModelParams,
    n: int,
    reps: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Replicated CLS runs on stationary paths.

    Returns a structured array with one row per replication holding the
    estimate, the normalised partial sums (v1, v2) over its window, and
    the scaled error sqrt(a_n)*(mu_hat - mu_A).  Deterministic in
    (params, n, reps, seed) and invariant to ``workers``: the chains
    run on ``run_blocks``, each block of them on its own stream.
    """
    sums = run_blocks(params, n, reps, seed, partial(_cls_reducer, params),
                      workers)
    return _rows(params, n, sums)
