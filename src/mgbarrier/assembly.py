"""Discrete barrier functional f_h(z, t) = int^(h) t c[z] + F(Dz).

Value, gradient and sparse Hessian in fine-grid coefficients, the Hessian
with its element-local slack condensed out, and element-by-element Galerkin
restriction to coarse subspaces for the shifted-central-path subproblems
(coarse test space, fine-grid quadrature).
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .femspace import restriction_tables, sym_entries
from .mesh import CHILDREN

INFEASIBLE = np.inf

# SuperLU supernode relaxation. Larger values pad the factor of R (see
# TwoStagePlan) with explicit zeros: at L=4 the fill is 193 k entries with the
# default (10), 171 k with 4 and 170 k with 2 or 1; at L=5 1.40 M, 1.17 M and
# 0.98 M. relax=1 and 2 fill alike and factor fastest at L=4 and L=5.
RELAX = 1
# SuperLU's options for R, which is SPD: diagonal pivots in symmetric mode,
# for R's order (min_degree_order) and for every factor of R
SPD_OPTIONS = dict(diag_pivot_thresh=0.0, relax=RELAX,
                   options=dict(SymmetricMode=True))


def substitute(L, at, x, transpose=False):
    """x <- L_K^-1 x, or L_K^-T x if transpose, in place on every element:
    L holds L_K's entries as condense lays them out, at = sym_entries(n_ls)[2],
    and x is laid out (row, ..., elements) over the leading rows of L_K. A NaN
    diagonal entry carries into every later row, without a warning."""
    n = len(x)
    for j in reversed(range(n)) if transpose else range(n):
        for k in range(j + 1, n) if transpose else range(j):
            x[j] -= L[at[j, k]] * x[k]
        x[j] /= L[at[j, j]]
    return x


def condense(uu, su, ss, n_ls):
    """Eliminate the slack from element blocks laid out (entries, elements)
    as reference_tables lays them out: uu and ss the distinct entries of
    H_uu,K and H_ss,K (sym_entries order), su the entries of H_su,K, rows
    (slack j, u dof i). Returns (S, L, W), laid out alike: S the distinct
    entries of S_K = H_uu,K - W_K^T W_K, with H_ss,K = L_K L_K^T (entry
    (i, j), i >= j, of L_K at the position of (i, j)) and W_K = L_K^-1
    H_su,K, of shape (n_ls, n_lu, elements).

    A Cholesky of every slack block at once, row by row, on contiguous rows
    over the elements. A non-positive (or NaN) pivot gives a NaN diagonal
    entry of L_K without a floating-point warning, and the NaN carries into
    every later pivot, into W_K and into S_K: it marks the block as not
    positive definite.
    """
    n_lu, ne = len(su) // n_ls, su.shape[1]
    iu, ju, _ = sym_entries(n_lu)
    _, _, at = sym_entries(n_ls)
    L = np.full(ss.shape, np.nan)
    for j in range(n_ls):
        row = substitute(L, at, ss[at[j, :j]])
        piv = ss[at[j, j]]
        for ljk in row:
            piv = piv - ljk * ljk
        L[at[j, :j]] = row
        np.sqrt(piv, out=L[at[j, j]], where=piv > 0)
    W = substitute(L, at, su.reshape(n_ls, n_lu, ne).copy())
    # S = H_uu - sum_j W_j^T W_j on the distinct entries, one slack row j at a time
    S = uu - W[0, iu] * W[0, ju]
    for Wj in W[1:]:
        S -= Wj[iu] * Wj[ju]
    return S, L, W


def compress(rows, cols, n):
    """Sort the distinct entries (rows[k], cols[k]) of an n x n pattern by
    row, then column, and compress them by row: (order, indices, indptr),
    entry order[k] stored k-th, and the int32 CSR arrays. (cols, rows)
    compress it by column, as CSC. The keys are int64: int32 ones wrap
    silently from n = 46,341 on. No scipy constructor: its ~45 us a call is
    five times this sort on a coarsest pattern."""
    order = np.argsort(rows.astype(np.int64) * n + cols)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return order, cols[order].astype(np.int32), indptr


def clique_pattern(slot, n):
    """The union of the cliques of slot (local dofs, cliques), whose entries
    number dofs among n, n where dropped: (pslot, rows, cols, entry). pslot,
    laid out (sym_entries(local dofs) order, cliques), is the distinct entry
    (r, c), r <= c, of the union that each distinct local pair adds to, and
    the number of distinct entries where it meets a dropped dof. The union
    stores entry (rows[k], cols[k]), the distinct entry entry[k]; the
    distinct entries come first, in increasing (r, c)."""
    i, j, _ = sym_entries(len(slot))
    lo, hi = np.minimum(slot[i], slot[j]), np.maximum(slot[i], slot[j])
    keep = hi < n
    keys, inv = np.unique(lo[keep] * n + hi[keep], return_inverse=True)
    pslot = np.full(lo.shape, keys.size)
    pslot[keep] = inv
    # every distinct entry (r, c), r <= c, is stored at (r, c) and (c, r)
    r, c = np.divmod(keys, n)
    off = np.flatnonzero(r != c)
    return pslot, np.r_[r, c[off]], np.r_[c, r[off]], np.r_[np.arange(keys.size), off]


def min_degree_order(rows, cols, n):
    """SuperLU's minimum-degree order, under SPD_OPTIONS, of an n x n matrix
    on the symmetric pattern of distinct entries (rows[k], cols[k]): perm
    (intp) moves dof i to row and column perm[i]. Minimum degree on R + R^T
    fills about a quarter of what column ordering with partial pivoting
    does. The order reads the pattern alone, so it is read off an
    incomplete factor that drops all it can of a diagonally dominant matrix
    on the pattern. That is an ordering, not a Newton factorization: spilu,
    not the splu that perfbench counts. astype copies perm_c, a view that
    keeps the factor alive."""
    A = sp.csc_matrix((np.where(rows == cols, n + 1.0, -1.0), (rows, cols)), shape=(n, n))
    return spla.spilu(A, drop_tol=1.0, fill_factor=1, permc_spec="MMD_AT_PLUS_A",
                      **SPD_OPTIONS).perm_c.astype(np.intp)


class TwoStagePlan:
    """The two-stage factorization of the shifted S on one CSR sparsity
    pattern (indptr, indices) of S, symmetric with its column indices
    sorted within rows, as Objective.scatter builds it, with R in a
    fill-reducing order that its pattern alone fixes.

    The first stage eliminates every parent's interior u dofs, parents =
    (interior, boundary) (Objective.parent_dofs), with condense; the second
    factors R, the Schur complement on the skeleton, the free u dofs outside
    every interior. Without parents the skeleton is every dof, and R is the
    shifted S itself. Eliminating parent c's interior couples all of its
    boundary dofs, so R's pattern is the union of those cliques, which holds
    S's skeleton entries.

    - hdiag: the positions of the diagonal in S.data, in S's row order;
      fewer than S's rows if S lacks a diagonal entry.
    - perm: R's order, which moves skeleton dof i to R's row and column
      perm[i]: SuperLU's minimum degree on R + R^T under SPD_OPTIONS, which
      reads R's pattern alone, so every factor of R runs in natural order.
    - gather: the free u dofs in the order of the stage solve: R's
      unknowns, then every parent's interior, parent by parent.
    - (indptr, indices, slots): R's pattern, as int32 CSC; its data is
      entries[slots], the entries being the shifted S.data without
      parents, else R's distinct entries (interior).
    - uslot: the boundary dofs' rows of R (n_bnd, P), R's size where fixed.
    - interior: None without parents, else (n_int, ii, ib, wslot, src): the
      positions in S.data of every parent's interior block (distinct
      entries) and interior-boundary block, laid out as condense takes H_ss
      and H_su; the distinct entry of R that each distinct boundary entry of
      condense's Schur complement adds to; and the S.data position that each
      distinct entry of R starts from. Position S.nnz stands for a 0: an
      entry that S lacks or that meets a fixed dof.
    """

    def __init__(self, indptr, indices, parents=None):
        nu, nnz = len(indptr) - 1, len(indices)
        rows = np.repeat(np.arange(nu), np.diff(indptr))
        self.hdiag = np.flatnonzero(rows == indices)
        if parents is None:
            skeleton, self.interior = np.arange(nu), None
            inner = uslot = np.zeros((0, 0), dtype=np.intp)
            r, c, entry = rows, indices, np.arange(nnz)
        else:
            inner, boundary = parents
            # one search of S's (row, column) keys finds any entry's position
            keys = np.append(rows * (nu + 1) + indices, (nu + 1) ** 2)

            def at(r, c):
                """The position in S.data of every entry (r, c), nnz where S lacks it."""
                q = r * (nu + 1) + c
                k = np.searchsorted(keys, q)
                return np.where(keys[k] == q, k, nnz).astype(np.int32)

            # the skeleton, and the boundary dofs' skeleton numbers, R's size at the fixed slot nu
            outside = np.bincount(inner.ravel(), minlength=nu + 1) == 0
            skeleton = np.flatnonzero(outside[:nu])
            uslot = (np.cumsum(outside) - 1)[boundary]
            # every parent's boundary clique, as distinct entries of R
            wslot, r, c, entry = clique_pattern(uslot, skeleton.size)
            src = np.append(at(skeleton[r[r <= c]], skeleton[c[r <= c]]), np.int32(nnz))
            # every parent's interior block, and its interior-boundary block with
            # rows (interior dof, boundary dof), searched parent by parent, whose keys lie together
            i, j, _ = sym_entries(len(inner))
            ii = at(inner[i], inner[j])
            ib = at(inner.T[..., None], boundary.T[:, None]).transpose(1, 2, 0).reshape(-1, len(inner.T))
            self.interior = (len(inner), ii, ib, wslot.ravel().astype(np.int32), src)
        nr = skeleton.size
        self.perm = min_degree_order(r, c, nr)
        self.gather = np.r_[skeleton[np.argsort(self.perm)], inner.T.ravel()]
        self.uslot = np.append(self.perm, nr)[uslot]
        # R's pattern by column, in that order. The tables that np.take reads
        # are int32 to halve their memory only: numpy converts an int32 index
        # to intp on every call, so hdiag, gather and uslot stay intp
        order, self.indices, self.indptr = compress(self.perm[c], self.perm[r], nr)
        self.slots = entry[order].astype(np.int32)


@dataclass
class CondensedHessian:
    """The free-dof Hessian [[H_uu, H_us], [H_su, H_ss]], free dofs ordered
    u then slack element by element, with the element-local slack
    eliminated: H_ss = blockdiag(L_K L_K^T), W_K = L_K^-1 H_su,K, and S =
    H_uu - sum_K W_K^T W_K, the Schur complement over the free u dofs. The
    element arrays are laid out (entries, elements), as condense returns them.
    """

    S: sp.spmatrix     # (nu, nu) CSR; CSC on the stage that newton.regularize returns
    L: np.ndarray      # (n_ls(n_ls+1)/2, ne) L_K's entries, as condense lays them
                       # out; NaN if H_ss,K is not SPD
    W: np.ndarray      # (n_ls, n_lu, ne)
    uslot: np.ndarray  # (n_lu, ne) position of each local u dof among the free u; nu if fixed
    # the TwoStagePlan of S's pattern, by which the solver factors S; a
    # level's own (Objective.factor_plan), None on the stage that factors it
    plan: TwoStagePlan | None = None
    # r -> S^-1 r (shifted), left by the decrement that factored S; the
    # stage's is the solve with R's factor
    solve_s: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def nnz(self):
        return self.S.nnz

    def slack_spd(self):
        """Whether every element slack block is positive definite."""
        return not np.isnan(self.L).any()

    def solve(self, b):
        """H^-1 b over the free dofs with solve_s(r) = S^-1 r: the slack is
        condensed out of b element by element, and back-substituted."""
        nu = self.S.shape[0]
        n_ls, _, ne = self.W.shape
        _, _, at = sym_entries(n_ls)
        L, W, uslot = self.L, self.W, self.uslot
        # y = L^-1 b_s, and the condensed right-hand side b_u - sum W^T y
        y = substitute(L, at, b[nu:].reshape(ne, n_ls).T.copy())
        wy = np.einsum("jie,je->ie", W, y)
        x = np.empty_like(b)
        x[:nu] = self.solve_s(b[:nu] - np.bincount(uslot.ravel(), weights=wy.ravel(),
                                                   minlength=nu + 1)[:nu])
        # x_s = L^-T (y - W x_u) on every element; a fixed u dof's slot nu
        # reads the 0 put there (uslot is empty when x has no slack)
        x[nu:nu + 1] = 0.0
        y -= np.einsum("jie,ie->je", W, x[uslot])
        x[nu:].reshape(ne, n_ls).T[...] = substitute(L, at, y, transpose=True)
        return x


@dataclass
class Objective:
    """f_h on the full coefficient vector; derivatives over free dofs only."""

    fesys: object
    sampler: object
    barrier: object
    forcing: object = None  # callable f(x...) or None for f = 0

    def __post_init__(self):
        fes, smp = self.fesys, self.sampler
        ne, nq = smp.wq.shape
        self._free = fes.free_idx()

        # cost vector: grad of int^(h) c[z] = int^(h) f u + s  (linear in z)
        if self.forcing is None:
            fvals = np.zeros((ne, nq))
        else:
            fvals = np.apply_along_axis(lambda x: self.forcing(*x), 2, smp.xq)
        cloc = np.concatenate([(smp.wq * fvals) @ smp.uvals, smp.wq @ smp.gs_table.T], axis=1)
        self.cost_vector = np.bincount(fes.elem_dofs().ravel(), weights=cloc.ravel(),
                                       minlength=fes.total_dim)
        self.cost_free = self.cost_vector[self._free]

    @property
    def n(self):
        return self.fesys.total_dim

    def free_idx(self):
        return self._free

    def cost_integral(self, z):
        """int^(h) c[z] = int^(h) f u + s."""
        return float(self.cost_vector @ z)

    def dz(self, z):
        """Dz at every quadrature node, in (node, element) order: q (N, d) and
        s (N,), views of the sampled arrays."""
        grad_u, s_val = self.sampler.sample(z)
        return grad_u.T.reshape(self.fesys.d, -1).T, s_val.T.ravel()

    def margin(self, z):
        """The barrier margin of Dz at every quadrature node, > 0 exactly on
        the domain interior."""
        return self.barrier.margin(*self.dz(z))

    def value(self, z, t):
        """f_h(z, t), or +inf if Dz leaves the barrier domain at any node."""
        wq = self.sampler.wq
        F = self.barrier.value(*self.dz(z)).reshape(wq.shape[::-1])
        # summed element by element, the order that the pinned traces round in
        barrier_integral = float(np.sum(wq * F.T))
        # +inf from a node outside the domain; -inf or NaN only from s = inf
        if not np.isfinite(barrier_integral):
            return INFEASIBLE
        return t * self.cost_integral(z) + barrier_integral

    @functools.cached_property
    def _assembly_plan(self):
        """Fixed-pattern assembly data, built once on first use.

        Returns (gslot, uslot, sslot, src, indices, indptr): the position of
        every element gradient entry in the free gradient, of every local u
        dof among the free u dofs, and of every distinct element u-u entry
        among the distinct entries of the free-u pattern, all laid out
        (entries, elements); and that pattern in CSR form (indices, indptr),
        each of its entries the distinct entry src, read-only: every S that
        scatter builds shares them. Entries on a fixed dof go to one extra,
        dropped slot.
        """
        nf, n_lu = len(self._free), self.fesys.u_elem.shape[1]
        nu = nf - self.fesys.n_s  # free dofs are the free u, then all slack
        pos = np.full(self.n, nf)
        pos[self._free] = np.arange(nf)
        gslot = pos[self.fesys.elem_dofs().T]
        uslot = np.minimum(gslot[:n_lu], nu)
        sslot, rows, cols, src = clique_pattern(uslot, nu)
        order, indices, indptr = compress(rows, cols, nu)
        indices.flags.writeable = indptr.flags.writeable = False
        return gslot.ravel(), uslot, sslot.ravel(), src[order], indices, indptr

    @functools.cached_property
    def parent_dofs(self):
        """(interior, boundary), built on first use: for every element of
        the mesh that this level's mesh refines (a parent, P of them), the
        free u dofs inside it (n_int, P) and the other u dofs of its
        children (n_bnd, P), numbered among the free u dofs, nu where fixed.
        None on a mesh that refine_uniform did not build, or where no u dof
        lies inside a parent (alpha = 1 in 2-D).

        A dof lies inside a parent when all its elements are that parent's
        children. No two parents share one, so the block of S on them is
        block-diagonal by parent, and each block couples only to its
        parent's other u dofs.
        """
        fes = self.fesys
        if not fes.mesh.refined:
            return None
        ne, n_lu = fes.u_elem.shape
        m = len(CHILDREN[fes.d])
        # the u dofs of every parent's children, child-major: refine_uniform
        # lays every parent out alike, so parent 0 locates the distinct ones
        ids = fes.u_elem.reshape(ne // m, m * n_lu)
        _, first, count = np.unique(ids[0], return_index=True, return_counts=True)
        order = np.argsort(first)
        local = ids[:, first[order]]
        inside = ((np.bincount(fes.u_elem.ravel())[local] == count[order])
                  & ~fes.u_boundary[local]).all(axis=0)
        if not inside.any():
            return None
        # the same columns of the element u slots number them among the free u
        slots = self._assembly_plan[1].T.reshape(ne // m, m * n_lu)[:, first[order]]
        return (np.ascontiguousarray(slots[:, inside].T),
                np.ascontiguousarray(slots[:, ~inside].T))

    @functools.cached_property
    def factor_plan(self):
        """The TwoStagePlan of S's pattern with the interiors of parent_dofs
        eliminated, built on first use; it depends on the pattern alone, R's
        order included, so every run on this level shares it."""
        *_, indices, indptr = self._assembly_plan
        return TwoStagePlan(indptr, indices, self.parent_dofs)

    def element_blocks(self, z):
        """Gradient and Hessian of the barrier integral on every element at a
        feasible z, over the element's local dofs fesys.elem_dofs(), laid out
        (entries, elements): (g, uu, su, ss), g of shape (nloc, ne) and the
        Hessian blocks as reference_tables lays them out.

        Per-node features, laid out (feature, node, element), times the
        sampler's reference tables: in reference coordinates F'' has q-q
        block c A^-1 A^-T + a^ a^T and q-s block b a^, a^ = A^-1 a, and F'
        has q part a^."""
        smp, d = self.sampler, self.fesys.d
        (ne, nq), (k, l) = smp.wq.shape, smp.pairs
        # grad_hess_terms raises ValueError outside the barrier domain; its
        # terms come in dz's (node, element) order
        a, f_s, c, b, h_ss = self.barrier.grad_hess_terms(*self.dz(z))
        f_s, c, b, h_ss = (x.reshape(nq, ne) for x in (f_s, c, b, h_ss))
        w = np.ascontiguousarray(smp.wq.T)
        ah = np.einsum("ije,jqe->iqe", smp.ainv, a.T.reshape(d, nq, ne))
        wah = w * ah
        fuu = wah[k]
        fuu *= ah[l]
        fuu += w * c * smp.metric[:, None]
        n_lu = len(smp.gu_table)
        g = np.empty((n_lu + len(smp.gs_table), ne))
        np.matmul(smp.gu_table, wah.reshape(-1, ne), out=g[:n_lu])
        np.matmul(smp.gs_table, w * f_s, out=g[n_lu:])
        return (g, smp.uu_table @ fuu.reshape(-1, ne),
                smp.su_table @ (wah * b).reshape(-1, ne), smp.ss_table @ (w * h_ss))

    def scatter(self, gloc, uloc, g0):
        """g0 plus the free gradient of element gradients (nloc, ne), and the
        free-u CSR matrix of the distinct entries of element u-u blocks
        (n_lu(n_lu+1)/2, ne)."""
        gslot, _, sslot, src, indices, indptr = self._assembly_plan
        nf, nu = len(self._free), len(indptr) - 1
        g = g0 + np.bincount(gslot, weights=gloc.ravel(), minlength=nf + 1)[:nf]
        data = np.bincount(sslot, weights=uloc.ravel())[src]
        return g, sp.csr_matrix((data, indices, indptr), shape=(nu, nu))

    def assemble(self, gloc, uu, su, ss, g0):
        """g0 plus the free gradient, and the CondensedHessian of element
        blocks laid out as element_blocks returns them: each element's slack
        is eliminated before the scatter."""
        plan = self.factor_plan
        S, L, W = condense(uu, su, ss, self.fesys.n_ls)
        g, S = self.scatter(gloc, S, g0)
        return g, CondensedHessian(S, L, W, self._assembly_plan[1], plan)

    def grad_hess(self, z, t):
        """(gradient, CondensedHessian) over free dofs at a feasible z."""
        # the plan first: its first build and its ordering's temporaries then
        # meet no element block, which at L=4 would raise the run's peak memory
        self.factor_plan
        return self.assemble(*self.element_blocks(z), t * self.cost_free)

    def embed_free(self, y):
        """Free-dof vector -> full vector with zeros on fixed dofs."""
        z = np.zeros(self.n)
        z[self._free] = y
        return z


class Galerkin:
    """P^T g and P^T H P of the fine barrier gradient and Hessian on the free
    dofs of a coarse level, formed element by element.

    A parent's blocks are restriction_tables times its m children's blocks;
    in refine_uniform's element order the children of parent c are the m
    elements from c*m on. This runs level by level down to the coarse one,
    whose assemble condenses the coarse slack and scatters the result into
    its own fixed pattern. Fixed fine dofs need no mask: an interior coarse
    basis function vanishes at boundary nodes, so their rows reach only
    fixed coarse dofs, which the scatter drops.
    """

    def __init__(self, coarse, P, cost):
        self.coarse = coarse      # the coarse level's Objective, for its pattern
        self.P = P                # free prolongation, coarse level -> fine
        self.cost = cost          # P^T c_free
        d = coarse.fesys.d
        self.m = len(CHILDREN[d])
        self.tables = restriction_tables(d, coarse.fesys.alpha)  # cached, shared

    def restrict(self, gloc, uu, su, ss, t):
        """(gradient, CondensedHessian) over the coarse free dofs of fine
        element blocks, plus t times the restricted cost vector."""
        blocks, m = (gloc, uu, su, ss), self.m
        while blocks[0].shape[1] > self.coarse.fesys.mesh.num_elements:
            ne = blocks[0].shape[1] // m
            # the children's entries of every parent, as rows (entry, rank)
            blocks = [K @ x.reshape(len(x), ne, m).transpose(0, 2, 1).reshape(-1, ne)
                      for K, x in zip(self.tables, blocks)]
        return self.coarse.assemble(*blocks, t * self.cost)


class LevelObjective:
    """f_h restricted to the affine subspace base + span(P) (coarse free dofs).

    The finest level has no Galerkin restriction and P = None (identity):
    coordinates are the fine free dofs themselves. Quadrature always lives on
    the fine grid.
    """

    def __init__(self, objective, base, galerkin=None):
        self.obj = objective
        self.base = np.asarray(base, dtype=float)
        self.galerkin = galerkin
        # sparse (n_fine_free, n_level_free) or None
        self.P = None if galerkin is None else galerkin.P

    @property
    def dim(self):
        return self.P.shape[1] if self.P is not None else len(self.obj.free_idx())

    def full_point(self, y):
        inc = y if self.P is None else self.P @ y
        return self.base + self.obj.embed_free(inc)

    def value(self, y, t):
        return self.obj.value(self.full_point(y), t)

    def grad_hess(self, y, t):
        z = self.full_point(y)
        if self.galerkin is None:
            return self.obj.grad_hess(z, t)
        return self.galerkin.restrict(*self.obj.element_blocks(z), t)
