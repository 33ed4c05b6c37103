"""Damped Newton centering with feasibility backtracking.

Step length is the classic 1/(1+lambda) damping while the decrement is large,
and a full step in the quadratic phase (lambda < 1/4). Trial points outside
the barrier domain (value = +inf) are handled by halving the step.
"""

from __future__ import annotations

import contextvars
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import CondensedHessian, condense

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
# SuperLU supernode relaxation. Larger values pad the factor of R (see
# TwoStagePlan) with explicit zeros: at L=4 the fill is 193 k entries with the
# default (10), 171 k with 4 and 170 k with 2 or 1; at L=5 1.40 M, 1.17 M and
# 0.98 M. relax=1 and 2 fill alike and factor fastest at L=4 and L=5.
RELAX = 1
SPD_OPTIONS = dict(diag_pivot_thresh=0.0, relax=RELAX,
                   options=dict(SymmetricMode=True))

# the solver of the running center call, read by newton_decrement. It is not
# an argument because perfbench's traced mode wraps newton.newton_decrement by
# name and calls it with exactly (g, H); only center sets it
_solver = contextvars.ContextVar("solver", default=None)


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
    return 1e-15 * float(np.max(s * (abs(H) @ s), initial=0.0))


def regularize(S, order):
    """S + scaled_shift(S, d) * diag(d), d = diag(S), for a CSR matrix S on
    the pattern of order, a TwoStagePlan or a reordered one, in two stages:
    the stage CondensedHessian(R, L, W, uslot) that stands for it in
    order's gather order, R in order's CSC pattern, with every parent's interior
    block eliminated by condense into L, W and R's entries; or None if an
    entry of d is not positive (or NaN): S is then not SPD, and no clamp
    makes it so. An interior block that is not positive definite leaves
    NaN in L, condense's marking."""
    d = S.data[order.hdiag]
    if not (d > 0).all():
        return None
    # the shifted S, then a 0 for the entries of R that S lacks
    entries = np.append(S.data, 0.0)
    entries[order.hdiag] *= 1.0 + scaled_shift(S, d)
    L, W = np.zeros((0, 0)), np.zeros((0, 0, 0))
    if order.interior is not None:
        n_int, ii, ib, wslot, src = order.interior
        SW, L, W = condense(0.0, np.take(entries, ib), np.take(entries, ii), n_int)
        entries = np.take(entries, src)
        entries += np.bincount(wslot, weights=SW.ravel(), minlength=src.size)
    # the int32 slots let np.take gather without the intp copy that indexing makes
    nr = len(order.indptr) - 1
    R = sp.csc_matrix((np.take(entries, order.slots), order.indices, order.indptr),
                      shape=(nr, nr))
    return CondensedHessian(R, L, W, order.uslot)


@dataclass
class CenteringResult:
    y: np.ndarray
    iterations: int
    decrement: float
    status: str
    value: float  # f at y, the value the line search last accepted
    detail: str = ""  # which check stopped a SOLVER_FAILURE

    @property
    def outcome(self):
        """The status, followed by its detail in parentheses if it has one."""
        return f"{self.status} ({self.detail})" if self.detail else self.status


class DirectSolver:
    """The sparse direct Newton solves of one path-following run: it orders
    each TwoStagePlan's R once, and keeps the factor of its last decrement
    for solve(b) until release() or the next decrement."""

    def __init__(self):
        self.orderings = {}  # TwoStagePlan -> the plan reordered as its R was factored
        # the last decrement's CondensedHessian, its interior stage (over the
        # factored R) with the gather order of its unknowns, and R's factor
        self._H = self._stage = self._gather = self._lu = None
        self.failure = ""  # why the last decrement returned (None, None)

    def decrement(self, g, H):
        """lambda = sqrt(g^T H^{-1} g) and the Newton direction -H^{-1} g.

        H is a CondensedHessian whose plan is a TwoStagePlan of its S. S is
        shifted, and every parent's interior block is eliminated from it,
        into R's pattern (regularize); R is SPD, so it is factored with
        diagonal pivots. A plan new to this solver is gathered into the
        plan itself and factored with minimum degree on A + A^T, at a
        quarter of the fill of column ordering with partial pivoting; the
        plan reordered as that chose is recorded, and every later S with
        that plan is gathered into it and factored in natural order.
        Returns (None, None) and keeps no factor if a slack block or an
        interior block is not positive definite or a diagonal entry of S is
        missing or not positive (before any factorization), if the
        factorization fails or if lambda^2 is negative beyond roundoff;
        self.failure then names which.
        """
        self.release()
        self.failure = ""
        if not H.slack_spd():
            return self._fail(f"slack block not SPD, element {_first_nan(H.L)}")
        S, plan = H.S, H.plan
        if plan.hdiag.size < S.shape[0]:
            return self._fail("S lacks a diagonal entry")
        order = self.orderings.get(plan, plan)
        new = order is plan
        stage = regularize(S, order)
        if stage is None:
            d = S.data[plan.hdiag]
            row = np.flatnonzero(~(d > 0))[0]
            return self._fail(f"diagonal of S not positive, row {row}: {float(d[row])!r}")
        if not stage.slack_spd():
            return self._fail(f"interior block not SPD, parent {_first_nan(stage.L)}")
        try:
            self._lu = spla.splu(stage.S, permc_spec="MMD_AT_PLUS_A" if new else "NATURAL",
                                 **SPD_OPTIONS)
            self._H, self._stage, self._gather = H, stage, order.gather
            step = -self.solve(g)
        except RuntimeError as exc:
            return self._fail(f"splu failed: {exc}")
        if new:
            # a copy: SuperLU's perm_c is a view that keeps the whole factor alive
            self.orderings[plan] = plan.reordered(self._lu.perm_c.copy())
        lam2 = float(-g @ step)
        if not np.isfinite(lam2) or (
                lam2 < -NEG_LAM2_TOL * np.linalg.norm(g) * np.linalg.norm(step)):
            return self._fail(f"lambda^2 = {lam2!r}"
                              + (" is negative beyond roundoff" if np.isfinite(lam2) else ""))
        return float(np.sqrt(max(lam2, 0.0))), step

    def _fail(self, why):
        """Keep no factor and record why: the (None, None) of decrement."""
        self.release()
        self.failure = why
        return None, None

    def solve(self, b):
        """H^{-1} b with the factor of the last decrement: b condensed, a
        solve with S, and the slack back-substituted."""
        if self._lu is None:
            raise RuntimeError("no factor: the last decrement failed or was released")
        return self._H.solve(b, self._solve_s)

    def _solve_s(self, r):
        """The shifted S^{-1} r in two stages: every parent's interior
        condensed out of r, a solve with R's factor, and the interior
        back-substituted."""
        x = np.empty_like(r)
        x[self._gather] = self._stage.solve(r[self._gather], self._lu.solve)
        return x

    def release(self):
        """Drop the factor of the last decrement."""
        self._H = self._stage = self._gather = self._lu = None


def _first_nan(L):
    """The first element (column) of condense's L with a NaN entry."""
    return np.flatnonzero(np.isnan(L).any(axis=0))[0]


def newton_decrement(g, H):
    """The decrement of (g, H) on the running center call's solver; outside
    a center call, on a new DirectSolver, which records no order."""
    return (_solver.get() or DirectSolver()).decrement(g, H)


def center(level_obj, y0, t, lam_tol=LAM_TOL, max_iters=MAX_CENTER_ITERS,
           deadline=None, solver=None):
    """Damped Newton until the decrement drops below lam_tol.

    Returns a CenteringResult; iterations counts accepted Newton steps. With a
    deadline (a time.monotonic() value), an unconverged centering that is
    past it stops before its next step with status BUDGET. The decrements
    run on solver (a new DirectSolver if None). A converged centering leaves
    the factor that checked lam <= lam_tol in it, for solver.solve at y;
    every other factor is released before its line search.
    """
    solver = DirectSolver() if solver is None else solver
    token = _solver.set(solver)
    try:
        y = np.asarray(y0, dtype=float).copy()
        val = level_obj.value(y, t)
        if not np.isfinite(val):
            return CenteringResult(y, 0, np.inf, INFEASIBLE_START, val)

        for it in range(max_iters + 1):
            # no names hold g and H, so they are freed before the next assembly
            lam, step = newton_decrement(*level_obj.grad_hess(y, t))
            if lam is None:
                return CenteringResult(y, it, np.inf, SOLVER_FAILURE, val, solver.failure)
            if lam <= lam_tol:
                return CenteringResult(y, it, lam, CONVERGED, val)
            solver.release()
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
    finally:
        _solver.reset(token)
