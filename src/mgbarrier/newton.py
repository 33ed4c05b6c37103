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

from .assembly import CondensedHessian, clique_pattern, condense
from .femspace import sym_entries

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
# Ordering) with explicit zeros: at L=4 the fill is 193 k entries with the
# default (10), 171 k with 4 and 170 k with 2 or 1; at L=5 1.40 M, 1.17 M and
# 0.98 M. relax=1 and 2 fill alike and factor fastest at L=4 and L=5.
RELAX = 1
SPD_OPTIONS = dict(diag_pivot_thresh=0.0, relax=RELAX,
                   options=dict(SymmetricMode=True))

# the solver of the running center call, read by newton_decrement. It is not
# an argument because perfbench's traced mode wraps newton.newton_decrement by
# name and calls it with exactly (g, H); only center sets it
_solver = contextvars.ContextVar("solver", default=None)


class Ordering:
    """A fill-reducing order of the matrix R that is factored for one CSR
    sparsity pattern of S, as a permuted CSC pattern that R's entries are
    gathered into, and the tables that form those entries from S.

    R is the Schur complement of the shifted S on its skeleton, the free u
    dofs outside every parent's interior (Objective.parent_dofs); without
    parents the skeleton is every dof, and R is the shifted S itself.
    Eliminating parent c's interior couples all of its boundary dofs, so R's
    pattern is the union of those cliques, which holds S's skeleton
    entries. Skeleton entry (i, j) moves to (perm[i], perm[j]) (SuperLU's
    perm_c convention).
    """

    def __init__(self, S, parents, plan, perm=None):
        """The Ordering of S's pattern from its plan (Ordering.plan with
        parents), R's skeleton ordered by perm (the identity if None)."""
        self.hdiag, skeleton, (r, c, slots), interior = plan
        self.pattern = (S.indptr, S.indices)  # S's own arrays, not copies
        self.parents = parents
        nr = skeleton.size
        self.perm = perm = np.arange(nr) if perm is None else perm
        # the free u dofs in the order of the stage solve: R's rows, then
        # every parent's interior, parent by parent
        self.gather = np.empty(S.shape[0], dtype=np.intp)
        self.gather[perm] = skeleton
        # None without parents, else (ii, ib, uslot, wslot, src): the
        # positions in S.data of every parent's interior block (distinct
        # entries) and interior-boundary block, laid out as condense takes
        # H_ss and H_su; the boundary dofs' rows of R (R's size where
        # fixed); the distinct entry of R that each distinct boundary entry
        # of condense's Schur complement adds to; and the S.data position
        # that each distinct entry of R starts from. Position S.nnz stands
        # for a 0: an entry that S lacks or that meets a fixed dof.
        self.interior = interior
        if interior is not None:
            self.gather[nr:] = parents[0].T.ravel()
            ii, ib, bnum, wslot, src = interior
            self.interior = (ii, ib, np.append(perm, nr)[bnum], wslot, src)
        # R's entries numbered from 1, so that none is an explicit zero, at
        # (perm[i], perm[j]); scipy sorts and compresses them by column
        P = sp.csc_matrix((np.arange(1, r.size + 1, dtype=np.int32), (perm[r], perm[c])),
                          shape=(nr, nr))
        # int32, as every position table here: R's permuted data =
        # entries[slots], which np.take gathers without the intp copy that
        # indexing makes. Without parents the entries are S.data, shifted;
        # with them, R's distinct entries (interior)
        self.slots = slots[P.data - 1].astype(np.int32)
        self.indices = P.indices  # row indices of the permuted CSC pattern
        self.indptr = P.indptr

    @staticmethod
    def plan(S, parents=None):
        """What no order changes in the Ordering of S's pattern with
        parents' interiors eliminated: (hdiag, the positions of the diagonal
        in S.data, in S's row order; skeleton; R's entries (r, c, entry) in
        skeleton numbering; Ordering.interior with the boundary dofs'
        skeleton numbers for its uslot), or None if S lacks a diagonal entry
        (the shifted diagonal would have no slot)."""
        nu = S.shape[0]
        rows = np.repeat(np.arange(nu), np.diff(S.indptr))
        hdiag = np.flatnonzero(rows == S.indices)
        if hdiag.size != nu:
            return None
        if parents is None:
            return hdiag, np.arange(nu), (rows, S.indices, np.arange(S.nnz)), None
        return hdiag, *_interior_plan(S, rows, parents)

    @classmethod
    def of(cls, S, perm=None, parents=None):
        """Ordering(S, parents, its plan, perm), or None if S lacks a diagonal entry."""
        plan = cls.plan(S, parents)
        return None if plan is None else cls(S, parents, plan, perm)

    def matches(self, S, parents):
        indptr, indices = self.pattern
        return (parents is self.parents and np.array_equal(S.indptr, indptr)
                and np.array_equal(S.indices, indices))


def _interior_plan(S, rows, parents):
    """Ordering.plan's skeleton, R's entries and interior stage under
    parents = (interior, boundary) (Objective.parent_dofs).

    S is symmetric with its column indices sorted within rows, as
    Objective.scatter builds it, so one search of its (row, column) keys
    finds the position of any entry.
    """
    inner, boundary = parents
    nu, nnz = S.shape[0], S.nnz
    keys = np.append(rows * (nu + 1) + S.indices, (nu + 1) ** 2)

    def at(r, c):
        """The position in S.data of every entry (r, c), nnz where S lacks it."""
        q = r * (nu + 1) + c
        k = np.searchsorted(keys, q)
        return np.where(keys[k] == q, k, nnz).astype(np.int32)

    # the skeleton, and the boundary dofs' skeleton numbers, R's size at the fixed slot nu
    outside = np.bincount(inner.ravel(), minlength=nu + 1) == 0
    skeleton = np.flatnonzero(outside[:nu])
    bnum = (np.cumsum(outside) - 1)[boundary]
    # every parent's boundary clique, as distinct entries of R
    wslot, r, c, entry = clique_pattern(bnum, skeleton.size)
    src = np.append(at(skeleton[r[r <= c]], skeleton[c[r <= c]]), nnz)
    # every parent's interior block, and its interior-boundary block with
    # rows (interior dof, boundary dof), searched parent by parent, whose keys lie together
    i, j, _ = sym_entries(len(inner))
    ii = at(inner[i], inner[j])
    ib = at(inner.T[..., None], boundary.T[:, None]).transpose(1, 2, 0).reshape(-1, len(inner.T))
    return skeleton, (r, c, entry), (ii, ib, bnum, wslot.ravel().astype(np.int32), src)


class Skeleton(sp.csc_matrix):
    """R, the matrix that is factored: the shifted S with every parent's
    interior eliminated, in an Ordering's permuted CSC pattern. It carries
    that interior stage as condense lays it out over the parents: L (the
    interior blocks' factors), W and uslot (the boundary dofs' rows of R,
    R's size where fixed), so that CondensedHessian(R, L, W, uslot) stands
    for the shifted S in the Ordering's gather order."""

    L: np.ndarray      # (n_int(n_int+1)/2, P)
    W: np.ndarray      # (n_int, n_bnd, P)
    uslot: np.ndarray  # (n_bnd, P)


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
    with order's parent interiors eliminated: the Skeleton R in order's
    permuted CSC pattern, or None if an entry of d is not positive (or NaN):
    S is then not SPD, and no clamp makes it so."""
    d = S.data[order.hdiag]
    if not (d > 0).all():
        return None
    # the shifted S, then a 0 for the entries of R that S lacks
    entries = np.append(S.data, 0.0)
    entries[order.hdiag] *= 1.0 + scaled_shift(S, d)
    entries, L, W, uslot = eliminate_interior(entries, order)
    nr = len(order.indptr) - 1
    R = Skeleton((np.take(entries, order.slots), order.indices, order.indptr), shape=(nr, nr))
    R.L, R.W, R.uslot = L, W, uslot
    return R


def eliminate_interior(entries, order):
    """R's entries, for Ordering.slots, from the entries of a matrix on
    order's pattern of S followed by a 0, and the interior stage (L, W,
    uslot) of Skeleton: each parent's interior block eliminated with
    condense, its Schur complement added to R's distinct entries. Without
    parents, the entries themselves and an empty stage. An interior block
    that is not positive definite leaves NaN in L, condense's marking."""
    if order.interior is None:
        return entries, np.zeros((0, 0)), np.zeros((0, 0, 0)), np.zeros((0, 0), dtype=np.intp)
    ii, ib, uslot, wslot, src = order.interior
    SW, L, W = condense(0.0, np.take(entries, ib), np.take(entries, ii), len(order.parents[0]))
    entries = np.take(entries, src)
    entries += np.bincount(wslot, weights=SW.ravel(), minlength=src.size)
    return entries, L, W, uslot


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
        # the last decrement's CondensedHessian, its interior stage (over the
        # factored R) with the Ordering.gather of its unknowns, and R's factor
        self._H = self._stage = self._gather = self._lu = None
        self.failure = ""  # why the last decrement returned (None, None)

    def decrement(self, g, H):
        """lambda = sqrt(g^T H^{-1} g) and the Newton direction -H^{-1} g.

        H is a CondensedHessian. Its Schur complement S is shifted, and
        every parent's interior block is eliminated from it, into the
        permuted pattern of an Ordering (regularize); the result R is SPD,
        so it is factored with diagonal pivots. A new sparsity pattern is
        gathered in its own order and factored with minimum degree on
        A + A^T, at a quarter of the fill of column ordering with partial
        pivoting; the order that chose re-permutes the pattern's plan
        (Ordering.plan, built once), and every later S on that pattern is
        gathered into it and factored in natural order.
        Returns (None, None) and keeps no factor if a slack block or an
        interior block is not positive definite or a diagonal entry of S is
        not positive (before any factorization), if the factorization
        fails or if lambda^2 is negative beyond roundoff; self.failure then
        names which.
        """
        self.release()
        self.failure = ""
        if not H.slack_spd():
            return self._fail(f"slack block not SPD, element {_first_nan(H.L)}")
        S = H.S
        key = (S.shape, S.nnz)
        order = self.orderings.get(key)
        new = order is None or not order.matches(S, H.parents)
        if new:
            plan = Ordering.plan(S, H.parents)
            if plan is None:
                return self._fail("S lacks a diagonal entry")
            order = Ordering(S, H.parents, plan)
        R = regularize(S, order)
        if R is None:
            d = S.data[order.hdiag]
            row = np.flatnonzero(~(d > 0))[0]
            return self._fail(f"diagonal of S not positive, row {row}: {float(d[row])!r}")
        stage = CondensedHessian(R, R.L, R.W, R.uslot)
        if not stage.slack_spd():
            return self._fail(f"interior block not SPD, parent {_first_nan(R.L)}")
        try:
            self._lu = spla.splu(R, permc_spec="MMD_AT_PLUS_A" if new else "NATURAL",
                                 **SPD_OPTIONS)
            self._H, self._stage, self._gather = H, stage, order.gather
            step = -self.solve(g)
        except RuntimeError as exc:
            return self._fail(f"splu failed: {exc}")
        if new:
            # a copy: SuperLU's perm_c is a view that keeps the whole factor alive
            self.orderings[key] = Ordering(S, H.parents, plan, self._lu.perm_c.copy())
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
