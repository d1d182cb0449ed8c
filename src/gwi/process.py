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
grows like n**(1/alpha): ``scaling`` returns its closed form
(n*c/theta)**(1/alpha).

``simulate_batch`` is the only code that steps chains forward.  It
uses the immigration-cluster form of the chain: X_t is the sum of
independent families, one for X_0 and one for each batch B_i, each
contributing the size of its generation t - i (the branching property).
A block of steps is filled one generation at a time, and
``step_batch`` is the per-generation kernel: the overflow guard plus
the aggregate offspring of every live family.  Each block goes to a
reducer, and the engine returns only X_n; ``_store`` is the reducer
that keeps paths.  The stationary start ``stationary_init_many`` is
the engine's X_n from X_0 = 0 after ``cascade_depth + 1`` steps, the
backward series truncated where its mean remainder falls below the
fixed ``_INIT_TOL``, so there is no second stepping loop.

``run_blocks`` is the one block farm of stationary chains: every chain
experiment starts and runs its chains there, ``_BLOCK`` to a stream.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import (
    ImmigrationLaw,
    OffspringLaw,
    sample_aggregate_offspring_many,
    sample_immigration_many,
)

__all__ = [
    "ModelParams",
    "TailOverflowError",
    "cascade_depth",
    "stationary_init_many",
    "step_batch",
    "simulate",
    "simulate_batch",
    "block_keys",
    "run_blocks",
    "residuals",
    "scaling",
]

# Abort a replication before int64 products can wrap around.
_OVERFLOW_LIMIT = 2**62

# Mean remainder of the stationary start's backward series: depth 20 at
# the reference point.
_INIT_TOL = 1e-6

# Chain-steps per ``simulate_batch`` block: each block's immigration is
# drawn at once, its families run until they die out or leave it, and the
# block is handed to the reducer.  At the reference point on 2 shared
# vCPUs (numpy 2.4.6), 2**17 cost 40-47 ns per chain-step at widths
# 1-500, against 43-48 ns at 2**15 and 43-48 ns at 2**19 (best of 3,
# two runs each).  Also the most chains one piece of
# ``stationary_init_many`` runs at a time.
_REDUCE_BUDGET = 2**17

# Chains per ``run_blocks`` block, the unit of RNG keys and worker jobs.
_BLOCK = 250


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


def cascade_depth(params: ModelParams) -> int:
    """Smallest I with mean series remainder mu_B*mu_A^(I+1)/(1-mu_A) below
    ``_INIT_TOL``.
    """
    depth = 0
    rem = params.mu_B * params.mu_A / (1.0 - params.mu_A)
    while rem >= _INIT_TOL:
        depth += 1
        rem *= params.mu_A
    return depth


def stationary_init_many(
    params: ModelParams, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Approximate stationary draws via the truncated backward series.

    The stationary law is B_0 plus, for each past lag i, the survivors of
    the immigration batch B_{-i} thinned through i offspring generations.
    Truncated at the lags 0..I, the sum is the chain run from X_0 = 0 for
    I + 1 steps: X_1 = B_{-I}, then X <- thin(X) + B_{-i} for
    i = I-1 .. 0.  So the draws are the last states of ``size`` chains of
    ``simulate_batch``, run on at most ``_REDUCE_BUDGET`` chains at a
    time so that the engine's chain-wide temporaries stay the size of
    one piece.  I is ``cascade_depth(params)``, the smallest depth whose
    mean remainder is below ``_INIT_TOL``.
    """
    draws = np.empty(size, np.int64)
    for lo in range(0, size, _REDUCE_BUDGET):
        piece = draws[lo: lo + _REDUCE_BUDGET]
        piece[:] = simulate_batch(params, cascade_depth(params) + 1,
                                  np.zeros(len(piece), np.int64), rng,
                                  lambda window: None)
    return draws


def step_batch(
    params: ModelParams, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One generation of independent families: the offspring of ``x``.

    ``simulate_batch`` calls it once per generation with the sizes of the
    live families.
    """
    if x.max(initial=0) > _OVERFLOW_LIMIT:
        raise TailOverflowError("trajectory exceeded the safe integer range")
    return sample_aggregate_offspring_many(params.offspring, x, rng)


def simulate_batch(
    params: ModelParams,
    n: int,
    inits: np.ndarray,
    rng: np.random.Generator,
    reduce,
) -> np.ndarray:
    """Simulate independent chains side by side for n steps.

    The steps run in blocks of T = max(1, _REDUCE_BUDGET // chains) (the
    last block may be shorter).  Immigration does not depend on the
    state, so each block first draws its (T, chains) immigration from one
    ``rng.random((T, chains))`` call.  The block is then filled by
    immigration clusters in a time-major (T+1, chains) window: row 0
    holds X_0 and row i holds B_i, and each nonzero entry in rows
    0 .. T-1 starts a family whose generation k is added into row
    origin + k.  One ``step_batch`` call per generation draws the
    offspring of every live family; families that die out or leave the
    block are dropped, so a block takes as many passes as its longest
    surviving family, not T.  The next block starts from X_T as one
    family, which is exact in law by the Markov property.

    Every result goes through ``reduce(window)``: each block's (T+1,
    chains) int64 window, row 0 the previous block's last state (X_0 for
    the first), a fresh array that a reducer may keep but must not write
    into.  A value above 2**62 raises ``TailOverflowError`` before its
    block reaches the reducer.  ``inits`` must be non-negative integers.
    Returns X_n, in an array of its own.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    x = np.asarray(inits)
    if x.dtype.kind not in "iu" or x.min(initial=0) < 0:
        raise ValueError("inits must be non-negative integers")
    x = x.astype(np.int64, copy=False)
    chains = len(x)
    steps = max(1, _REDUCE_BUDGET // max(chains, 1))
    for start in range(0, n, steps):
        t = min(steps, n - start)
        b = sample_immigration_many(params.immigration, rng.random((t, chains)))
        # Row i of the window is time start + i.  Its nonzero entries in
        # rows 0 .. t-1 start the families; a family's next generation
        # lands one row (``chains`` entries) further on.  ``pos`` stays
        # sorted, so the families that can still step (pos < end) are a
        # prefix of it.
        window = np.concatenate([x[None], b])
        flat = window.reshape(-1)
        pos = np.flatnonzero(window[:t])
        size = flat[pos]
        end = t * chains
        while live := np.searchsorted(pos, end):
            size = step_batch(params, size[:live], rng)
            pos = pos[:live] + chains
            flat[pos] += size
            alive = np.flatnonzero(size)
            size, pos = size[alive], pos[alive]
        if window.max(initial=0) > _OVERFLOW_LIMIT:
            raise TailOverflowError("trajectory exceeded the safe integer range")
        reduce(window)
        x = window[t]
    return x.copy()


def _store(n: int, width: int):
    """A (width, n+1) int64 path matrix and the reducer that fills it,
    window by window: the only code that stores a path.
    """
    paths = np.empty((width, n + 1), dtype=np.int64)
    col = 0

    def reduce(window):
        nonlocal col
        paths[:, col: col + len(window)] = window.T
        col += len(window) - 1

    return paths, reduce


def block_keys(reps: int, seed) -> list[list[int]]:
    """Keys [seed, b] (or [*seed, b]) of ``run_blocks``, one per block.

    ``SeedSequence`` pads its entropy with zero words up to four, so for
    a seed of at most three words block 0 draws ``default_rng(seed)``.
    """
    head = [seed] if np.ndim(seed) == 0 else list(seed)
    return [[*head, b] for b in range(-(-reps // _BLOCK))]


def _run_block(job):
    """One block's stationary start and run: its reducer state."""
    params, n, key, width, reducer = job
    rng = np.random.default_rng(key)
    inits = stationary_init_many(params, width, rng)
    state, reduce = reducer(width)
    simulate_batch(params, n, inits, rng, reduce)
    return state


def run_blocks(params: ModelParams, n: int, reps: int, seed, reducer=None,
               workers: int = 1) -> np.ndarray:
    """Run ``reps`` stationary chains for n steps, ``_BLOCK`` to a block.

    Block b holds chains b*_BLOCK onward; it draws its stationary start
    and its steps from ``default_rng(block_keys(reps, seed)[b])``.  The
    factory ``reducer(width)`` returns a block's ``(state, reduce)``; it
    must pickle (module level, or a ``partial``), and the default
    ``partial(_store, n)`` gives the (reps, n+1) paths.  The states,
    chain first, are joined on axis 0 in block order as they arrive from
    ``workers`` processes, so nothing depends on ``workers``; one block's
    state is returned as it is.  Neither holds a path twice.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    reducer = reducer or partial(_store, n)
    jobs = [(params, n, key, min(_BLOCK, reps - b * _BLOCK), reducer)
            for b, key in enumerate(block_keys(reps, seed))]
    if len(jobs) == 1:
        return _run_block(jobs[0])
    lo = 0  # not enumerate: its reused tuple would hold the last block
    for block in _blocks(jobs, workers):
        if lo == 0:
            out = np.empty((reps, *block.shape[1:]), block.dtype)
        out[lo: lo + _BLOCK] = block
        lo += _BLOCK
        del block  # dropped before the next block runs
    return out


def _blocks(jobs, workers):
    """``_run_block`` of each job, in order, on ``workers`` processes."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            yield from pool.map(_run_block, jobs)
    else:
        yield from map(_run_block, jobs)


def residuals(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Martingale differences M_i = X_i - mu_A*X_{i-1} - mu_B along a path."""
    x = np.asarray(x, dtype=np.float64)
    return x[..., 1:] - params.mu_A * x[..., :-1] - params.mu_B


def simulate(
    params: ModelParams, n: int, init: int, rng: np.random.Generator
) -> np.ndarray:
    """Simulate one path X_0 = init, ..., X_n as an (n+1,) int64 array."""
    paths, reduce = _store(n, 1)
    simulate_batch(params, n, np.array([init]), rng, reduce)
    return paths[0]


def scaling(params: ModelParams, n: int) -> float:
    """Normalising value a_n for horizon n.

    Solves n * (c/theta) * a_n**(-alpha) = 1 with the asymptotic
    stationary tail P(X_0 > x) ~ (c/theta) * x**(-alpha), giving
    a_n = (n*c/theta)**(1/alpha).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return (n * params.c / params.theta) ** (1.0 / params.alpha)
