"""Adaptive Gauss-Kronrod quadrature on a finite interval.

The 7-point Gauss / 15-point Kronrod pair gives an embedded error
estimate per panel; panels whose error exceeds their share of the
budget are bisected, with every pending panel of a generation evaluated
in one vectorised call.  The one caller, ``limitlaw.cdf_ratio``, seeds
the Gil-Pelaez integral with equal panels, at least 8 and more as the
CF's phase turns faster near alpha = 2.  No integral
here has an oscillatory tail: the joint CF is taken along a rotated ray
where its integrand decays.
``euler_accelerated_sum`` (Euler summation of an alternating series)
has no caller in the package; it stays only because
``perfbench/spans.py`` patches it by name.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gauss_kronrod", "QuadratureError", "euler_accelerated_sum"]


class QuadratureError(RuntimeError):
    """Raised when the error target cannot be certified."""


# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights;
# the embedded 7-point Gauss rule uses the odd-indexed abscissae.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full symmetric node/weight vectors
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending
_W_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_w_gauss_half = np.concatenate([_WG[:-1], _WG[::-1]])      # 7 weights
_W_G = np.zeros(15)
_W_G[1:14:2] = _w_gauss_half


_MAX_PANELS = 4096  # accepted plus pending panels allowed before giving up


def gauss_kronrod(f, breaks, tol):
    """Integrate ``f`` over [breaks[0], breaks[-1]] to within ``tol``.

    ``f`` must map an array of points to (possibly complex) values.  The
    ascending ``breaks`` seed the first generation of panels.  Returns
    (value, summed panel error); raises QuadratureError if more than
    ``_MAX_PANELS`` panels would be needed to bring that error below
    ``tol``.
    """
    pts = np.asarray(breaks, dtype=np.float64)
    lo, hi = pts[:-1], pts[1:]
    total = 0.0 + 0.0j
    err_done = 0.0
    n_done = 0
    while True:
        half = 0.5 * (hi - lo)
        nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * _NODES
        vals = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
        # Kronrod value and |Kronrod - Gauss| error per panel
        k15 = (vals * _W_K).sum(axis=1) * half
        err = np.abs(k15 - (vals * _W_G).sum(axis=1) * half)
        order = np.argsort(err)
        # accept the easy panels, keep splitting the hard ones
        budget = tol - err_done
        cum = np.cumsum(err[order])
        n_acc = int(np.searchsorted(cum, 0.5 * budget, side="right"))
        if err.sum() + err_done <= tol:
            return total + k15.sum(), err_done + err.sum()
        acc = order[:n_acc]
        rem = order[n_acc:]
        total += k15[acc].sum()
        err_done += err[acc].sum()
        n_done += len(acc)
        if n_done + 2 * len(rem) > _MAX_PANELS:
            raise QuadratureError("panel budget exhausted before reaching tol")
        mid = 0.5 * (lo[rem] + hi[rem])
        lo = np.concatenate([lo[rem], mid])
        hi = np.concatenate([mid, hi[rem]])


def euler_accelerated_sum(terms, tol):
    """Sum a (complex) series whose tail alternates in sign.

    ``terms`` holds consecutive terms; iterated averaging of the partial
    sums is applied and the first entry whose averaging step moves by
    less than ``tol`` is returned.  Raises QuadratureError when the
    table never settles.
    """
    s = np.cumsum(np.asarray(terms, dtype=np.complex128))
    best = s[-1]
    best_move = np.inf
    row = s
    while len(row) > 1:
        row = 0.5 * (row[:-1] + row[1:])
        move = abs(row[-1] - best)
        if move < best_move:
            best_move = move
            best = row[-1]
        if best_move < tol:
            return best, best_move
    raise QuadratureError("alternating-tail acceleration did not settle")
