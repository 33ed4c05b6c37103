"""Damped Newton centering with feasibility backtracking.

Step length is the classic 1/(1+lambda) damping while the decrement is large,
and a full step in the quadratic phase (lambda < 1/4). Trial points outside
the barrier domain (value = +inf) are handled by halving the step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# SuperLU's options live with the plan, whose order reads them; RELAX stays newton.RELAX
from .assembly import RELAX, SPD_OPTIONS, CondensedHessian, condense  # noqa: F401

CONVERGED = "converged"
ITERATION_CAP = "iteration-cap"
INFEASIBLE_START = "infeasible-start"
SOLVER_FAILURE = "solver-failure"
BUDGET = "budget"

# the stop rule of every centering: the decrement tolerance and iteration cap
LAM_TOL = 1e-3
MAX_CENTER_ITERS = 500
MAX_BACKTRACK = 40
QUAD_PHASE = 0.25
# lambda^2 = -g.step below -NEG_LAM2_TOL * |g| |step| is not roundoff: the
# system was indefinite or badly solved
NEG_LAM2_TOL = 1e-8


class DecrementFailure(Exception):
    """A Newton decrement that has no answer; the message names the check
    that stopped it."""


def scaled_shift(H, d):
    """1e-15 |||D^-1/2 H D^-1/2|||_inf (max absolute row sum) of a CSR matrix
    H with diagonal d > 0, D = diag(d), from one matvec with |H|.

    H + scaled_shift(H, d) D shifts every diagonal entry by the same
    fraction, so it commutes with a diagonal rescaling of the unknowns, as
    Newton's method does. 1e-15 |||H|||_inf, set by the largest rows, can
    exceed the smallest diagonal entries (by up to 7e7 on coarse grids after
    an h-refinement) and turn the Newton step on those rows into a gradient
    step.
    """
    s = 1.0 / np.sqrt(d)
    # |H| over H's own index arrays: abs(H) would check and copy them
    absH = sp.csr_matrix((np.abs(H.data), H.indices, H.indptr), shape=H.shape)
    return 1e-15 * float(np.max(s * (absH @ s), initial=0.0))


def regularize(S, plan):
    """S + scaled_shift(S, d) * diag(d), d = diag(S), for a CSR matrix S on
    the pattern of plan, a TwoStagePlan, in two stages: the stage
    CondensedHessian(R, L, W, uslot) that stands for it in plan's gather
    order, R in plan's CSC pattern (its order), with every parent's interior
    block eliminated by condense into L, W and R's entries. Raises
    DecrementFailure if an entry of d is not positive (or NaN): S is then
    not SPD, and no clamp makes it so. An interior block that is not
    positive definite leaves NaN in L, condense's marking."""
    d = S.data[plan.hdiag]
    if not (d > 0).all():
        row = np.flatnonzero(~(d > 0))[0]
        raise DecrementFailure(f"diagonal of S not positive, row {row}: {float(d[row])!r}")
    # the shifted S, then a 0 for the entries of R that S lacks
    entries = np.append(S.data, 0.0)
    entries[plan.hdiag] *= 1.0 + scaled_shift(S, d)
    L, W = np.zeros((0, 0)), np.zeros((0, 0, 0))
    if plan.interior is not None:
        n_int, ii, ib, wslot, src = plan.interior
        SW, L, W = condense(0.0, np.take(entries, ib), np.take(entries, ii), n_int)
        entries = np.take(entries, src)
        entries += np.bincount(wslot, weights=SW.ravel(), minlength=src.size)
    # the int32 slots save memory, not time: np.take converts them to intp
    nr = len(plan.indptr) - 1
    R = sp.csc_matrix((np.take(entries, plan.slots), plan.indices, plan.indptr),
                      shape=(nr, nr))
    return CondensedHessian(R, L, W, plan.uslot)


@dataclass
class CenteringResult:
    y: np.ndarray
    iterations: int
    decrement: float
    status: str
    value: float  # f at y, the value the line search last accepted
    detail: str = ""  # which check stopped a SOLVER_FAILURE
    solved: np.ndarray | None = None  # H^{-1} rhs at y, if converged with an rhs

    @property
    def outcome(self):
        """The status, followed by its detail in parentheses if it has one."""
        return f"{self.status} ({self.detail})" if self.detail else self.status


def _first_nan(L):
    """The first element (column) of condense's L with a NaN entry."""
    return np.flatnonzero(np.isnan(L).any(axis=0))[0]


def newton_decrement(g, H):
    """lambda = sqrt(g^T H^{-1} g) and the Newton direction -H^{-1} g.

    H is a CondensedHessian whose plan is a TwoStagePlan of its S. S is
    shifted, and every parent's interior block is eliminated from it, into
    R's pattern in the plan's order (regularize); R is SPD, so it is
    factored with diagonal pivots, in natural order: its rows are already in
    the plan's minimum-degree order. The two-stage solve with that factor
    is left in H.solve_s, so that H.solve(b) is H^{-1} b. Raises
    DecrementFailure, naming the check, if a slack block or an interior
    block is not positive definite or a diagonal entry of S is missing or
    not positive (before any factorization), if the factorization fails or
    if lambda^2 is negative beyond roundoff, without leaving a factor on H.
    """
    if not H.slack_spd():
        raise DecrementFailure(f"slack block not SPD, element {_first_nan(H.L)}")
    S, plan = H.S, H.plan
    if plan.hdiag.size < S.shape[0]:
        raise DecrementFailure("S lacks a diagonal entry")
    stage = regularize(S, plan)
    if not stage.slack_spd():
        raise DecrementFailure(f"interior block not SPD, parent {_first_nan(stage.L)}")
    try:
        stage.solve_s = spla.splu(stage.S, permc_spec="NATURAL", **SPD_OPTIONS).solve
    except RuntimeError as exc:
        raise DecrementFailure(f"splu failed: {exc}") from None

    def solve_s(r):
        """The shifted S^{-1} r in two stages: every parent's interior
        condensed out of r, a solve with R's factor, and the interior
        back-substituted."""
        x = np.empty_like(r)
        x[plan.gather] = stage.solve(r[plan.gather])
        return x

    H.solve_s = solve_s
    step = -H.solve(g)
    lam2 = float(-g @ step)
    if not np.isfinite(lam2) or (
            lam2 < -NEG_LAM2_TOL * np.linalg.norm(g) * np.linalg.norm(step)):
        H.solve_s = None
        raise DecrementFailure(f"lambda^2 = {lam2!r}"
                               + (" is negative beyond roundoff" if np.isfinite(lam2) else ""))
    return float(np.sqrt(max(lam2, 0.0))), step


def center(level_obj, y0, t, lam_tol=LAM_TOL, max_iters=MAX_CENTER_ITERS,
           deadline=None, rhs=None):
    """Damped Newton until the decrement drops below lam_tol.

    Returns a CenteringResult; iterations counts accepted Newton steps. With a
    deadline (a time.monotonic() value), an unconverged centering that is
    past it stops before its next step with status BUDGET. A converged
    centering with an rhs solves H^{-1} rhs at y, in its solved, with the
    factor that checked lam <= lam_tol; every other factor is freed before
    its line search.
    """
    y = np.asarray(y0, dtype=float).copy()
    val = level_obj.value(y, t)
    if not np.isfinite(val):
        return CenteringResult(y, 0, np.inf, INFEASIBLE_START, val)

    for it in range(max_iters + 1):
        g, H = level_obj.grad_hess(y, t)
        try:
            lam, step = newton_decrement(g, H)
        except DecrementFailure as exc:
            return CenteringResult(y, it, np.inf, SOLVER_FAILURE, val, str(exc))
        if lam <= lam_tol:
            return CenteringResult(y, it, lam, CONVERGED, val,
                                   solved=None if rhs is None else H.solve(rhs))
        # H holds the factor: freed here, before the line search and the next assembly
        del g, H
        if it == max_iters:
            return CenteringResult(y, it, lam, ITERATION_CAP, val)
        if deadline is not None and time.monotonic() > deadline:
            return CenteringResult(y, it, lam, BUDGET, val)

        damped = lam >= QUAD_PHASE
        alpha = 1.0 / (1.0 + lam) if damped else 1.0
        for _ in range(MAX_BACKTRACK):
            y_try = y + alpha * step
            val_try = level_obj.value(y_try, t)
            if np.isfinite(val_try) and (not damped or val_try < val):
                break
            alpha *= 0.5
        else:
            return CenteringResult(y, it, lam, SOLVER_FAILURE, val,
                                   f"no step accepted in {MAX_BACKTRACK} halvings")
        y, val = y_try, val_try
