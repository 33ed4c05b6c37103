"""Damped Newton centering with feasibility backtracking.

Step length is the classic 1/(1+lambda) damping while the decrement is large,
and a full step in the quadratic phase (lambda < 1/4). Trial points outside
the barrier domain (value = +inf) are handled by halving the step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import regularize

CONVERGED = "converged"
ITERATION_CAP = "iteration-cap"
INFEASIBLE_START = "infeasible-start"
SOLVER_FAILURE = "solver-failure"
BUDGET = "budget"

MAX_BACKTRACK = 40
QUAD_PHASE = 0.25
# lambda^2 = -g.step below -NEG_LAM2_TOL * |g| |step| is not roundoff: the
# system was indefinite or badly solved
NEG_LAM2_TOL = 1e-8


@dataclass
class CenteringResult:
    y: np.ndarray
    iterations: int
    decrement: float
    status: str


def newton_decrement(g, H):
    """lambda = sqrt(g^T H^{-1} g) and the Newton direction -H^{-1} g.

    H is symmetric positive definite, so the regularized Hessian is factored
    with a symmetric ordering (minimum degree on A + A^T) and diagonal pivots,
    which fills in a quarter of what column ordering with partial pivoting
    does. Returns (None, None) if the factorization fails or lambda^2 is
    negative beyond roundoff.
    """
    Hreg = regularize(H)
    try:
        lu = spla.splu(Hreg.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        step = -lu.solve(g)
    except RuntimeError:
        return None, None
    lam2 = float(-g @ step)
    if not np.isfinite(lam2) or (
            lam2 < -NEG_LAM2_TOL * np.linalg.norm(g) * np.linalg.norm(step)):
        return None, None
    return float(np.sqrt(max(lam2, 0.0))), step


def center(level_obj, y0, t, lam_tol=1e-3, max_iters=100, deadline=None):
    """Damped Newton until the decrement drops below lam_tol.

    Returns a CenteringResult; iterations counts accepted Newton steps. With a
    deadline (a time.monotonic() value), an unconverged centering that is
    past it stops before its next step with status BUDGET.
    """
    y = np.asarray(y0, dtype=float).copy()
    val = level_obj.value(y, t)
    if not np.isfinite(val):
        return CenteringResult(y, 0, np.inf, INFEASIBLE_START)

    lam = np.inf
    for it in range(max_iters + 1):
        g, H = level_obj.grad_hess(y, t)
        lam, step = newton_decrement(g, H)
        if lam is None:
            return CenteringResult(y, it, np.inf, SOLVER_FAILURE)
        if lam <= lam_tol:
            return CenteringResult(y, it, lam, CONVERGED)
        if it == max_iters:
            break
        if deadline is not None and time.monotonic() > deadline:
            return CenteringResult(y, it, lam, BUDGET)

        damped = lam >= QUAD_PHASE
        alpha = 1.0 / (1.0 + lam) if damped else 1.0
        accepted = False
        for _ in range(MAX_BACKTRACK):
            y_try = y + alpha * step
            val_try = level_obj.value(y_try, t)
            if np.isfinite(val_try) and (not damped or val_try < val):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return CenteringResult(y, it, lam, SOLVER_FAILURE)
        y, val = y_try, val_try

    return CenteringResult(y, max_iters, lam, ITERATION_CAP)
