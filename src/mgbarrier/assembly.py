"""Discrete barrier functional f_h(z, t) = int^(h) t c[z] + F(Dz).

Value, gradient and sparse Hessian in fine-grid coefficients, the Hessian
with its element-local slack condensed out, and element-by-element Galerkin
restriction to coarse subspaces for the shifted-central-path subproblems
(coarse test space, fine-grid quadrature).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .femspace import restriction_tables, sym_entries
from .mesh import CHILDREN

INFEASIBLE = np.inf


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
    # S = H_uu - sum_j W_j^T W_j on the distinct entries, in place
    WW = np.take(W, iu, axis=1)
    WW *= np.take(W, ju, axis=1)
    S = uu - WW[0]
    for j in range(1, n_ls):
        S -= WW[j]
    return S, L, W


@dataclass
class CondensedHessian:
    """The free-dof Hessian [[H_uu, H_us], [H_su, H_ss]], free dofs ordered
    u then slack element by element, with the element-local slack
    eliminated: H_ss = blockdiag(L_K L_K^T), W_K = L_K^-1 H_su,K, and S =
    H_uu - sum_K W_K^T W_K, the Schur complement over the free u dofs. The
    element arrays are laid out (entries, elements), as condense returns them.
    """

    S: sp.csr_matrix   # (nu, nu)
    L: np.ndarray      # (n_ls(n_ls+1)/2, ne) L_K's entries, as condense lays them
                       # out; NaN if H_ss,K is not SPD
    W: np.ndarray      # (n_ls, n_lu, ne)
    uslot: np.ndarray  # (n_lu, ne) position of each local u dof among the free u; nu if fixed
    # Objective.parent_dofs of the level: (interior, boundary) u dofs of every
    # parent element, which the solver eliminates from S in a second stage
    parents: tuple | None = None

    @property
    def nnz(self):
        return self.S.nnz

    def slack_spd(self):
        """Whether every element slack block is positive definite."""
        return not np.isnan(self.L).any()

    def solve(self, b, solve_s):
        """H^-1 b over the free dofs, given solve_s(r) = S^-1 r: the slack is
        condensed out of b element by element, and back-substituted."""
        nu = self.S.shape[0]
        n_ls, _, ne = self.W.shape
        _, _, at = sym_entries(n_ls)
        L, W, uslot = self.L, self.W, self.uslot
        # y = L^-1 b_s, and the condensed right-hand side b_u - sum W^T y
        y = substitute(L, at, b[nu:].reshape(ne, n_ls).T.copy())
        wy = np.einsum("jie,je->ie", W, y)
        x = np.empty_like(b)
        x[:nu] = solve_s(b[:nu] - np.bincount(uslot.ravel(), weights=wy.ravel(),
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
        each of its entries the distinct entry src. Entries on a fixed dof go
        to one extra, dropped slot.
        """
        nf, n_lu = len(self._free), self.fesys.u_elem.shape[1]
        nu = nf - self.fesys.n_s  # free dofs are the free u, then all slack
        pos = np.full(self.n, nf)
        pos[self._free] = np.arange(nf)
        gslot = pos[self.fesys.elem_dofs().T]
        uslot = np.minimum(gslot[:n_lu], nu)
        i, j, _ = sym_entries(n_lu)
        lo, hi = np.minimum(uslot[i], uslot[j]), np.maximum(uslot[i], uslot[j])
        keep = hi < nu
        keys, inv = np.unique(lo[keep] * nu + hi[keep], return_inverse=True)
        sslot = np.full(lo.shape, keys.size)
        sslot[keep] = inv
        # every distinct entry (r, c), r <= c, is stored at (r, c) and (c, r)
        r, c = np.divmod(keys, nu)
        off = np.flatnonzero(r != c)
        rows, cols = np.r_[r, c[off]], np.r_[c, r[off]]
        order = np.argsort(rows * nu + cols)
        indptr = np.zeros(nu + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=nu), out=indptr[1:])
        return (gslot.ravel(), uslot, sslot.ravel(), np.r_[np.arange(keys.size), off][order],
                cols[order].astype(np.int32), indptr)

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
        free = ~fes.u_boundary
        nu = int(np.count_nonzero(free))
        pos = np.full(fes.n_u, nu)
        pos[free] = np.arange(nu)
        return (np.ascontiguousarray(pos[local[:, inside]].T),
                np.ascontiguousarray(pos[local[:, ~inside]].T))

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
        # the caller owns the returned matrix, so it gets its own index arrays
        return g, sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(nu, nu))

    def assemble(self, gloc, uu, su, ss, g0):
        """g0 plus the free gradient, and the CondensedHessian of element
        blocks laid out as element_blocks returns them: each element's slack
        is eliminated before the scatter."""
        S, L, W = condense(uu, su, ss, self.fesys.n_ls)
        g, S = self.scatter(gloc, S, g0)
        return g, CondensedHessian(S, L, W, self._assembly_plan[1], self.parent_dofs)

    def grad_hess(self, z, t):
        """(gradient, CondensedHessian) over free dofs at a feasible z."""
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
