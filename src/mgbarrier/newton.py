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
# SuperLU supernode relaxation. Larger values pad the factor of S with
# explicit zeros: at L=4 the fill is 287 k entries with the default (10), 276 k
# with 4 and 214 k with 1; at L=5 2.27 M, 2.18 M and 1.19 M. relax=1 factors
# fastest at every size measured (L=2..5).
RELAX = 1
SPD_OPTIONS = dict(diag_pivot_thresh=0.0, relax=RELAX,
                   options=dict(SymmetricMode=True))

# the solver of the running center call, read by newton_decrement. It is not
# an argument because perfbench's traced mode wraps newton.newton_decrement by
# name and calls it with exactly (g, H); only center sets it
_solver = contextvars.ContextVar("solver", default=None)


class Ordering:
    """A fill-reducing order of one CSR sparsity pattern, as a permuted CSC
    pattern that the matrix data is gathered into.

    Entry (i, j) moves to (perm[i], perm[j]) (SuperLU's perm_c convention).
    """

    def __init__(self, H, perm, slots, indices, indptr, diag):
        self.pattern = (H.indptr, H.indices)  # H's own arrays, not copies
        self.perm = perm
        self.slots = slots      # int32: permuted data = H.data[slots]
        self.indices = indices  # row indices of the permuted CSC pattern
        self.indptr = indptr
        self.diag = diag        # positions of the diagonal in the permuted data
        # positions of the diagonal in H.data, in H's own row order
        self.hdiag = slots[diag][perm]

    @classmethod
    def of(cls, H, perm):
        """The Ordering of H's pattern by perm, or None if H lacks a diagonal
        entry (the shifted diagonal would have no slot)."""
        # H's entries numbered from 1, so that none is an explicit zero, at
        # (perm[i], perm[j]); scipy sorts and compresses them by column
        P = sp.csc_matrix((np.arange(1, H.nnz + 1, dtype=np.int32),
                           (np.repeat(perm, np.diff(H.indptr)), perm[H.indices])), shape=H.shape)
        cols = np.repeat(np.arange(H.shape[0]), np.diff(P.indptr))
        diag = np.flatnonzero(P.indices == cols).astype(np.int32)
        if diag.size != H.shape[0]:
            return None
        return cls(H, perm, P.data - 1, P.indices, P.indptr, diag)

    def matches(self, H):
        indptr, indices = self.pattern
        return np.array_equal(H.indptr, indptr) and np.array_equal(H.indices, indices)


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
    abs_h = sp.csr_matrix((np.abs(H.data), H.indices, H.indptr), shape=H.shape)
    return 1e-15 * float(np.max(s * (abs_h @ s), initial=0.0))


def regularize(S, order):
    """S + scaled_shift(S, d) * diag(d), d = diag(S), for a CSR matrix S,
    gathered into order's permuted CSC pattern, or None if an entry of d is
    not positive (or NaN): S is then not SPD, and no clamp makes it so."""
    d = S.data[order.hdiag]
    if not (d > 0).all():
        return None
    data = S.data[order.slots]
    data[order.diag] *= 1.0 + scaled_shift(S, d)
    return sp.csc_matrix((data, order.indices, order.indptr), shape=S.shape)


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
    each Schur complement sparsity pattern once, and keeps the factor of its
    last decrement for solve(b) until release() or the next decrement."""

    def __init__(self):
        self.orderings = {}  # (shape, nnz) -> the Ordering last computed for such a pattern
        # the last decrement's CondensedHessian, factor of S and its Ordering.perm
        self._H = self._lu = self._perm = None
        self.failure = ""  # why the last decrement returned (None, None)

    def decrement(self, g, H):
        """lambda = sqrt(g^T H^{-1} g) and the Newton direction -H^{-1} g.

        H is a CondensedHessian. Its Schur complement S, shifted and gathered
        into the permuted pattern of an Ordering (regularize), is SPD, so it
        is factored with diagonal pivots. A new sparsity pattern is gathered
        in its own order and factored with minimum degree on A + A^T, at a
        quarter of the fill of column ordering with partial pivoting; the
        order that chose is recorded, and every later S on that pattern is
        gathered into it and factored in natural order. Returns (None, None)
        and keeps no factor if a slack block is not positive definite or a
        diagonal entry of S is not positive (before any factorization), if
        the factorization fails or if lambda^2 is negative beyond roundoff;
        self.failure then names which.
        """
        self.release()
        self.failure = ""
        if not H.slack_spd():
            bad = np.flatnonzero(np.isnan(H.L).any(axis=0))[0]
            return self._fail(f"slack block not SPD, element {bad}")
        S = H.S
        key = (S.shape, S.nnz)
        order = self.orderings.get(key)
        new = order is None or not order.matches(S)
        if new:
            order = Ordering.of(S, np.arange(S.shape[0]))
            if order is None:
                return self._fail("S lacks a diagonal entry")
        A = regularize(S, order)
        if A is None:
            d = S.data[order.hdiag]
            row = np.flatnonzero(~(d > 0))[0]
            return self._fail(f"diagonal of S not positive, row {row}: {float(d[row])!r}")
        try:
            self._lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A" if new else "NATURAL",
                                 **SPD_OPTIONS)
            self._H, self._perm = H, order.perm
            step = -self.solve(g)
        except RuntimeError as exc:
            return self._fail(f"splu failed: {exc}")
        if new:
            # a copy: SuperLU's perm_c is a view that keeps the whole factor alive
            self.orderings[key] = Ordering.of(S, self._lu.perm_c.copy())
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
        rp = np.empty_like(r)
        rp[self._perm] = r
        return self._lu.solve(rp)[self._perm]

    def release(self):
        """Drop the factor of the last decrement."""
        self._H = self._lu = self._perm = None


def newton_decrement(g, H):
    """The decrement of (g, H) on the running center call's solver; outside
    a center call, on a new DirectSolver, which keeps nothing."""
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
