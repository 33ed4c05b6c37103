"""Damped Newton centering with feasibility backtracking.

Step length is the classic 1/(1+lambda) damping while the decrement is large,
and a full step in the quadratic phase (lambda < 1/4). Trial points outside
the barrier domain (value = +inf) are handled by halving the step.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# not called here: perfbench's traced mode wraps newton.regularize by name
from .assembly import regularize  # noqa: F401

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
# SuperLU supernode relaxation. The default (10) pads the factor with explicit
# zeros: at L=4 the fill is 473 k entries with 10 and 315 k with 4.
RELAX = 4
SPD_OPTIONS = dict(diag_pivot_thresh=0.0, relax=RELAX,
                   options=dict(SymmetricMode=True))

# orderings newton_decrement may reuse and record; None outside ordering_scope
_orderings = contextvars.ContextVar("orderings", default=None)
# a list newton_decrement appends the solve of its factor to; None unless a
# center call asked for a solve at its center
_factor_slot = contextvars.ContextVar("factor_slot", default=None)


@contextlib.contextmanager
def ordering_scope(orderings):
    """Within the block, newton_decrement orders each sparsity pattern once.

    orderings is a dict owned by the caller (one per path-following run); it
    maps (shape, nnz) to the Ordering last computed for such a pattern.
    """
    token = _orderings.set(orderings)
    try:
        yield
    finally:
        _orderings.reset(token)


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
        n = H.shape[0]
        prow = np.repeat(perm, np.diff(H.indptr))
        pcol = perm[H.indices]
        # CSC order: by column, then row (the keys are unique)
        slots = np.argsort(pcol.astype(np.int64) * n + prow).astype(np.int32)
        prow, pcol = prow[slots], pcol[slots]
        diag = np.flatnonzero(prow == pcol).astype(np.int32)
        if diag.size != n:
            return None
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(pcol, minlength=n), out=indptr[1:])
        return cls(H, perm, slots, prow.astype(np.int32), indptr, diag)

    def matches(self, H):
        indptr, indices = self.pattern
        return np.array_equal(H.indptr, indptr) and np.array_equal(H.indices, indices)

    def permuted(self, H):
        """The shifted H (shifted_csc) in the permuted CSC pattern, or None if
        a diagonal entry of H is not positive."""
        d = H.data[self.hdiag]
        if not (d > 0).all():
            return None
        data = H.data[self.slots]
        data[self.diag] *= 1.0 + scaled_shift(H, d)
        return sp.csc_matrix((data, self.indices, self.indptr), shape=H.shape)


def scaled_shift(H, d):
    """1e-15 |||D^-1/2 H D^-1/2|||_inf (max absolute row sum) of a CSR matrix
    H with diagonal d > 0, D = diag(d), from one matvec with |H|.

    H + scaled_shift(H, d) D is D^1/2 regularize(D^-1/2 H D^-1/2) D^1/2: the
    shift is a fixed fraction of every diagonal entry. 1e-15 |||H|||_inf,
    set by the largest rows, can exceed the smallest diagonal entries (by up
    to 7e7 on coarse grids after an h-refinement) and turn the Newton step
    on those rows into a gradient step.
    """
    s = 1.0 / np.sqrt(d)
    abs_h = sp.csr_matrix((np.abs(H.data), H.indices, H.indptr), shape=H.shape)
    return 1e-15 * float(np.max(s * (abs_h @ s), initial=0.0))


def shifted_csc(H):
    """H + scaled_shift(H, d) * diag(d), d = diag(H), as a CSC matrix, or None
    if an entry of d is not positive (or NaN): H is then not SPD, and no
    clamp makes it so."""
    H = H.tocsr()
    d = H.diagonal()
    if not (d > 0).all():
        return None
    R = H.tocsc()
    R.setdiag(d * (1.0 + scaled_shift(H, d)))
    return R


@dataclass
class CenteringResult:
    y: np.ndarray
    iterations: int
    decrement: float
    status: str
    value: float  # f at y, the value the line search last accepted
    solved: np.ndarray | None = None  # H(y)^{-1} solve_rhs, if center was given one


def _permuted_solve(lu, perm, b):
    """Solve with lu, the factor of a matrix permuted by perm (Ordering.permuted)."""
    bp = np.empty_like(b)
    bp[perm] = b
    return lu.solve(bp)[perm]


def newton_decrement(g, H):
    """lambda = sqrt(g^T H^{-1} g) and the Newton direction -H^{-1} g.

    H is symmetric positive definite, so the shifted Hessian H + sigma diag(H)
    (shifted_csc) is factored with a symmetric ordering (minimum degree on
    A + A^T) and diagonal pivots, which fills in a quarter of what column
    ordering with partial pivoting does. Inside ordering_scope, a CSR pattern
    seen before is not ordered again: its data is gathered into the recorded
    permuted pattern and factored in that order. Returns (None, None), before
    any factorization, if a diagonal entry of H is not positive, and also if
    the factorization fails or lambda^2 is negative beyond roundoff. Inside a
    center call given a solve_rhs, the solve of the factor is appended to its
    slot; elsewhere the factor is dropped on return.
    """
    orderings = _orderings.get() if H.format == "csr" else None
    key = (H.shape, H.nnz)
    order = orderings.get(key) if orderings is not None else None
    if order is not None and not order.matches(H):
        order = None
    A = shifted_csc(H) if order is None else order.permuted(H)
    if A is None:
        return None, None
    try:
        if order is None:
            lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", **SPD_OPTIONS)
            solve = lu.solve
        else:
            lu = spla.splu(A, permc_spec="NATURAL", **SPD_OPTIONS)
            solve = functools.partial(_permuted_solve, lu, order.perm)
        step = -solve(g)
    except RuntimeError:
        return None, None
    if order is None and orderings is not None:
        # a copy: SuperLU's perm_c is a view that keeps the whole factor alive
        order = Ordering.of(H, lu.perm_c.copy())
        if order is not None:
            orderings[key] = order
    lam2 = float(-g @ step)
    if not np.isfinite(lam2) or (
            lam2 < -NEG_LAM2_TOL * np.linalg.norm(g) * np.linalg.norm(step)):
        return None, None
    slot = _factor_slot.get()
    if slot is not None:
        slot.append(solve)
    return float(np.sqrt(max(lam2, 0.0))), step


def center(level_obj, y0, t, lam_tol=1e-3, max_iters=100, deadline=None,
           solve_rhs=None):
    """Damped Newton until the decrement drops below lam_tol.

    Returns a CenteringResult; iterations counts accepted Newton steps. With a
    deadline (a time.monotonic() value), an unconverged centering that is
    past it stops before its next step with status BUDGET. With solve_rhs, a
    converged result carries H^{-1} solve_rhs at its y, solved with the
    factor that checked lam <= lam_tol; every other factor is dropped right
    after its decrement, and none outlives the call.
    """
    slot = None if solve_rhs is None else []
    token = _factor_slot.set(slot)
    try:
        return _damped_newton(level_obj, y0, t, lam_tol, max_iters, deadline,
                              slot, solve_rhs)
    finally:
        _factor_slot.reset(token)


def _damped_newton(level_obj, y0, t, lam_tol, max_iters, deadline, slot, solve_rhs):
    y = np.asarray(y0, dtype=float).copy()
    val = level_obj.value(y, t)
    if not np.isfinite(val):
        return CenteringResult(y, 0, np.inf, INFEASIBLE_START, val)

    lam = np.inf
    for it in range(max_iters + 1):
        # no names hold g and H, so they are freed before the next assembly
        lam, step = newton_decrement(*level_obj.grad_hess(y, t))
        if lam is None:
            return CenteringResult(y, it, np.inf, SOLVER_FAILURE, val)
        if lam <= lam_tol:
            solved = slot.pop()(solve_rhs) if slot else None
            return CenteringResult(y, it, lam, CONVERGED, val, solved)
        if slot:
            slot.clear()
        if it == max_iters:
            break
        if deadline is not None and time.monotonic() > deadline:
            return CenteringResult(y, it, lam, BUDGET, val)

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
            return CenteringResult(y, it, lam, SOLVER_FAILURE, val)
        y, val = y_try, val_try

    return CenteringResult(y, max_iters, lam, ITERATION_CAP, val)
