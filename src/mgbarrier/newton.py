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

    def __init__(self, S, perm, slots, indices, indptr, hdiag, parents, gather, interior):
        self.pattern = (S.indptr, S.indices)  # S's own arrays, not copies
        self.perm = perm
        # int32, as every position table here: R's permuted data =
        # entries[slots], which np.take gathers without the intp copy that
        # indexing makes. Without parents the entries are S.data, shifted;
        # with them, R's distinct entries (interior)
        self.slots = slots
        self.indices = indices  # row indices of the permuted CSC pattern
        self.indptr = indptr
        self.hdiag = hdiag      # positions of the diagonal in S.data, in S's row order
        self.parents = parents
        # the free u dofs in the order of the stage solve: R's rows, then
        # every parent's interior, parent by parent
        self.gather = gather
        # None without parents, else (ii, ib, uslot, wslot, src): the
        # positions in S.data of every parent's interior block (distinct
        # entries) and interior-boundary block, laid out as condense takes
        # H_ss and H_su; the boundary dofs' rows of R (R's size where
        # fixed); the distinct entry of R that each distinct boundary entry
        # of condense's Schur complement adds to; and the S.data position
        # that each distinct entry of R starts from. Position S.nnz stands
        # for a 0: an entry that S lacks or that meets a fixed dof.
        self.interior = interior

    @classmethod
    def of(cls, S, perm=None, parents=None):
        """The Ordering of S's pattern with parents' interiors eliminated,
        R's skeleton ordered by perm (the identity if None), or None if S
        lacks a diagonal entry (the shifted diagonal would have no slot)."""
        nu = S.shape[0]
        rows = np.repeat(np.arange(nu), np.diff(S.indptr))
        hdiag = np.flatnonzero(rows == S.indices)
        if hdiag.size != nu:
            return None
        if parents is None:
            skeleton, r, c, slots, interior = np.arange(nu), rows, S.indices, np.arange(S.nnz), None
        else:
            skeleton, (r, c, slots), interior = _interior_plan(S, rows, parents)
        nr = skeleton.size
        perm = np.arange(nr) if perm is None else perm
        gather = np.empty(nu, dtype=np.intp)
        gather[perm] = skeleton
        if interior is not None:
            gather[nr:] = parents[0].T.ravel()
            ii, ib, bnum, wslot, src = interior
            interior = (ii, ib, np.append(perm, nr)[bnum], wslot, src)
        # R's entries numbered from 1, so that none is an explicit zero, at
        # (perm[i], perm[j]); scipy sorts and compresses them by column
        P = sp.csc_matrix((np.arange(1, r.size + 1, dtype=np.int32), (perm[r], perm[c])),
                          shape=(nr, nr))
        return cls(S, perm, slots[P.data - 1].astype(np.int32), P.indices, P.indptr, hdiag,
                   parents, gather, interior)

    def matches(self, S, parents):
        indptr, indices = self.pattern
        return (parents is self.parents and np.array_equal(S.indptr, indptr)
                and np.array_equal(S.indices, indices))


def _interior_plan(S, rows, parents):
    """The skeleton of S's pattern under parents = (interior, boundary)
    (Objective.parent_dofs), R's entries (r, c, distinct entry) in skeleton
    numbering, and Ordering.interior with the boundary dofs' skeleton
    numbers for its uslot.

    S is symmetric with its column indices sorted within rows, as
    Objective.scatter builds it, so each distinct entry of R starts from
    S's entry (r, c), r <= c.
    """
    inner, boundary = parents
    (n_in, n_p), n_bd = inner.shape, len(boundary)
    nu, nnz = S.shape[0], S.nnz
    owner = np.full(nu, -1)
    owner[inner] = np.arange(n_p)
    skeleton = np.flatnonzero(owner < 0)
    nr = skeleton.size
    num = np.full(nu + 1, nr)
    num[skeleton] = np.arange(nr)
    bnum = num[boundary]
    # every parent's boundary clique as distinct entries (r <= c) of R,
    # each stored at (r, c) and (c, r)
    i, j, _ = sym_entries(n_bd)
    lo, hi = np.minimum(bnum[i], bnum[j]), np.maximum(bnum[i], bnum[j])
    keep = hi < nr
    keys, inv = np.unique(lo[keep] * nr + hi[keep], return_inverse=True)
    wslot = np.full(lo.shape, keys.size, dtype=np.int32)
    wslot[keep] = inv
    r, c = np.divmod(keys, nr)
    off = np.flatnonzero(r != c)
    # the S entries of R, in increasing (r, c), as keys are
    cols = S.indices
    upper = np.flatnonzero((rows <= cols) & (owner[rows] < 0) & (owner[cols] < 0))
    src = np.full(keys.size + 1, nnz, dtype=np.int32)
    src[np.searchsorted(keys, num[rows[upper]] * nr + num[cols[upper]])] = upper
    # the S entries in interior rows, placed by the row's rank j among its
    # parent's interior dofs and the column's position k among the parent's
    # dofs, interior first
    e = np.flatnonzero(owner[rows] >= 0)
    par = owner[rows[e]]
    rank = np.empty(nu, dtype=np.intp)
    rank[inner] = np.arange(n_in)[:, None]
    j = rank[rows[e]]
    k = (np.concatenate([inner, boundary])[:, par] == cols[e]).argmax(axis=0)
    ii = np.full((n_in * (n_in + 1) // 2, n_p), nnz, dtype=np.int32)
    ib = np.full((n_in * n_bd, n_p), nnz, dtype=np.int32)
    at, in_in = sym_entries(n_in)[2], k < n_in
    ii[at[j[in_in], k[in_in]], par[in_in]] = e[in_in]
    ib[j[~in_in] * n_bd + k[~in_in] - n_in, par[~in_in]] = e[~in_in]
    return (skeleton, (np.r_[r, c[off]], np.r_[c, r[off]], np.r_[np.arange(keys.size), off]),
            (ii, ib, bnum, wslot.ravel(), src))


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
        pivoting; the order that chose is recorded, and every later S on
        that pattern is gathered into it and factored in natural order.
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
            order = Ordering.of(S, parents=H.parents)
            if order is None:
                return self._fail("S lacks a diagonal entry")
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
            self.orderings[key] = Ordering.of(S, self._lu.perm_c.copy(), H.parents)
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
