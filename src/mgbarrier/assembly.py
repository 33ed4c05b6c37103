"""Discrete barrier functional f_h(z, t) = int^(h) t c[z] + F(Dz).

Value, gradient and sparse Hessian in fine-grid coefficients, the Hessian
with its element-local slack condensed out, and element-by-element Galerkin
restriction to coarse subspaces for the shifted-central-path subproblems
(coarse test space, fine-grid quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .femspace import child_prolongation

INFEASIBLE = np.inf


def condense(hloc, n_ls):
    """Eliminate the slack from element blocks (ne, nloc, nloc), laid out u
    then n_ls slack dofs: (S_K, L_K, W_K) with H_ss,K = L_K L_K^T,
    W_K = L_K^-1 H_su,K and S_K = H_uu,K - W_K^T W_K.

    A right-looking Cholesky over the slack columns of the block reordered
    slack first: after column j its trailing block is the Schur complement
    of the first j+1 slack dofs. A batched solve costs more than this loop at
    n_ls <= 3. From a non-positive (or NaN) pivot on, L_K's diagonal is NaN,
    which marks the block as not positive definite; its pivots are replaced
    by 1, so that no floating-point warning is raised.
    """
    n_lu = hloc.shape[1] - n_ls
    order = np.r_[n_lu:n_lu + n_ls, :n_lu]
    A = hloc[:, order[:, None], order]
    bad = np.zeros(len(A), dtype=bool)
    for j in range(n_ls):
        piv = A[:, j, j]
        bad |= ~(piv > 0)
        root = np.sqrt(np.where(bad, 1.0, piv))
        A[:, j, j] = np.where(bad, np.nan, root)
        col = A[:, j + 1:, j]
        col /= root[:, None]
        A[:, j + 1:, j + 1:] -= col[:, :, None] * col[:, None, :]
    W = A[:, n_ls:, :n_ls].transpose(0, 2, 1)
    return A[:, n_ls:, n_ls:], np.tril(A[:, :n_ls, :n_ls]), np.ascontiguousarray(W)


@dataclass
class CondensedHessian:
    """The free-dof Hessian [[H_uu, H_us], [H_su, H_ss]], free dofs ordered
    u then slack element by element, with the element-local slack
    eliminated: H_ss = blockdiag(L_K L_K^T), W_K = L_K^-1 H_su,K, and S =
    H_uu - sum_K W_K^T W_K, the Schur complement over the free u dofs.
    """

    S: sp.csr_matrix   # (nu, nu)
    L: np.ndarray      # (ne, n_ls, n_ls) lower triangular; NaN if H_ss,K is not SPD
    W: np.ndarray      # (ne, n_ls, n_lu)
    uslot: np.ndarray  # (ne, n_lu) position of each local u dof among the free u; nu if fixed

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
        ne, n_ls, _ = self.L.shape
        # y = L^-1 b_s, and the condensed right-hand side b_u - sum W^T y
        y = b[nu:].reshape(ne, n_ls).copy()
        for j in range(n_ls):
            y[:, j] -= np.einsum("ek,ek->e", self.L[:, j, :j], y[:, :j])
            y[:, j] /= self.L[:, j, j]
        wy = np.einsum("eji,ej->ei", self.W, y)
        x_u = solve_s(b[:nu] - np.bincount(self.uslot.ravel(), weights=wy.ravel(),
                                           minlength=nu + 1)[:nu])
        # x_s = L^-T (y - W x_u) on every element
        x_s = y - np.einsum("eji,ei->ej", self.W, np.append(x_u, 0.0)[self.uslot])
        for j in reversed(range(n_ls)):
            x_s[:, j] -= np.einsum("ek,ek->e", self.L[:, j + 1:, j], x_s[:, j + 1:])
            x_s[:, j] /= self.L[:, j, j]
        return np.concatenate([x_u, x_s.ravel()])


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
        cloc = np.concatenate([(smp.wq * fvals) @ smp.uvals, smp.wq @ smp.svals], axis=1)
        self.cost_vector = np.bincount(fes.elem_dofs().ravel(), weights=cloc.ravel(),
                                       minlength=fes.total_dim)

        self._plan = None  # built by _assembly_plan on the first assemble

    @property
    def n(self):
        return self.fesys.total_dim

    def free_idx(self):
        return self._free

    def cost_integral(self, z):
        """int^(h) c[z] = int^(h) f u + s."""
        return float(self.cost_vector @ z)

    def dz(self, z):
        """Dz at every quadrature node, flattened: q (N, d) and s (N,)."""
        grad_u, s_val = self.sampler.sample(z)
        return grad_u.reshape(-1, self.fesys.d), s_val.ravel()

    def margin(self, z):
        """The barrier margin of Dz at every quadrature node, > 0 exactly on
        the domain interior."""
        return self.barrier.margin(*self.dz(z))

    def value(self, z, t):
        """f_h(z, t), or +inf if Dz leaves the barrier domain at any node."""
        F = self.barrier.value(*self.dz(z)).reshape(self.sampler.wq.shape)
        barrier_integral = float(np.sum(self.sampler.wq * F))
        # +inf from a node outside the domain; -inf or NaN only from s = inf
        if not np.isfinite(barrier_integral):
            return INFEASIBLE
        return t * self.cost_integral(z) + barrier_integral

    def _assembly_plan(self):
        """Fixed-pattern assembly data, built once on first use.

        Returns (gslot, uslot, sslot, indices, indptr): the position of every
        element gradient entry in the free gradient, of every local u dof
        among the free u dofs, and of every element u-u entry in the data
        array of the free-u CSR pattern (indices, indptr). Entries on a fixed
        dof go to one extra, dropped slot.
        """
        if self._plan is None:
            nf, n_lu = len(self._free), self.fesys.u_elem.shape[1]
            nu = nf - self.fesys.n_s  # free dofs are the free u, then all slack
            pos = np.full(self.n, nf)
            pos[self._free] = np.arange(nf)
            gslot = pos[self.fesys.elem_dofs()]
            uslot = np.minimum(gslot[:, :n_lu], nu)
            rows = np.repeat(uslot, n_lu, axis=1).ravel()
            cols = np.tile(uslot, (1, n_lu)).ravel()
            keep = (rows < nu) & (cols < nu)
            keys, inv = np.unique(rows[keep] * nu + cols[keep], return_inverse=True)
            sslot = np.full(rows.size, keys.size)
            sslot[keep] = inv
            indptr = np.zeros(nu + 1, dtype=np.int32)
            np.cumsum(np.bincount(keys // nu, minlength=nu), out=indptr[1:])
            self._plan = (gslot.ravel(), uslot, sslot,
                          (keys % nu).astype(np.int32), indptr)
        return self._plan

    def element_blocks(self, z):
        """Gradient (ne, nloc) and Hessian (ne, nloc, nloc) of the barrier
        integral on every element at a feasible z, over the element's local
        dofs fesys.elem_dofs().

        Per-node features times the sampler's reference tables: in reference
        coordinates F'' has q-q block c A^-1 A^-T + a^ a^T and q-s block b a^,
        a^ = A^-1 a, and F' has q part a^."""
        smp, d = self.sampler, self.fesys.d
        (ne, nq), (k, l) = smp.wq.shape, smp.pairs
        # grad_hess_terms raises ValueError outside the barrier domain
        a, f_s, c, b, h_ss = (x.reshape(ne, nq, -1).transpose(0, 2, 1)
                              for x in self.barrier.grad_hess_terms(*self.dz(z)))
        w = smp.wq[:, None]
        ah = self.fesys.mesh.Ainv @ np.ascontiguousarray(a)  # 3x faster than strided
        fg = np.concatenate([w * ah, w * f_s], axis=1)
        fh = np.concatenate([(w * c) * smp.metric[..., None] + fg[:, k] * ah[:, l],
                             fg[:, :d] * b, w * h_ss], axis=1)
        gloc = fg.reshape(ne, -1) @ smp.grad_table
        nloc = gloc.shape[1]
        return gloc, (fh.reshape(ne, -1) @ smp.hess_table).reshape(ne, nloc, nloc)

    def scatter(self, gloc, uloc, g0):
        """g0 plus the free gradient of element gradients (ne, nloc), and the
        free-u CSR matrix of element u-u blocks (ne, n_lu, n_lu)."""
        gslot, _, sslot, indices, indptr = self._assembly_plan()
        nf, nu = len(self._free), len(indptr) - 1
        g = g0 + np.bincount(gslot, weights=gloc.ravel(), minlength=nf + 1)[:nf]
        data = np.bincount(sslot, weights=uloc.ravel(), minlength=indices.size + 1)[:-1]
        # the caller owns the returned matrix, so it gets its own index arrays
        return g, sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(nu, nu))

    def assemble(self, gloc, hloc, g0):
        """g0 plus the free gradient, and the CondensedHessian of element
        blocks over elem_dofs(): each element's slack is eliminated before
        the scatter."""
        uloc, L, W = condense(hloc, self.fesys.n_ls)
        g, S = self.scatter(gloc, uloc, g0)
        return g, CondensedHessian(S, L, W, self._assembly_plan()[1])

    def grad_hess(self, z, t):
        """(gradient, CondensedHessian) over free dofs at a feasible z."""
        return self.assemble(*self.element_blocks(z), t * self.cost_vector[self._free])

    def embed_free(self, y):
        """Free-dof vector -> full vector with zeros on fixed dofs."""
        z = np.zeros(self.n)
        z[self._free] = y
        return z


class Galerkin:
    """P^T g and P^T H P of the fine barrier gradient and Hessian on the free
    dofs of a coarse level, formed element by element.

    A parent's block is sum_k T_k^T B_k T_k over its children's blocks B_k,
    with T_k the child_prolongation table of child rank k; in refine_uniform's
    element order the children of parent c are the m blocks from c*m on.
    This runs level by level down to the coarse one, whose assemble condenses
    the coarse slack and scatters the result into its own fixed pattern.
    Fixed fine dofs need no mask: an interior coarse basis function vanishes
    at boundary nodes, so their rows reach only fixed coarse dofs, which the
    scatter drops.
    """

    def __init__(self, coarse, P, cost):
        self.coarse = coarse      # the coarse level's Objective, for its pattern
        self.P = P                # free prolongation, coarse level -> fine
        self.cost = cost          # P^T c_free
        self.T = child_prolongation(coarse.fesys.d, coarse.fesys.alpha)  # cached, shared

    def restrict(self, gloc, hloc, t):
        """(gradient, CondensedHessian) over the coarse free dofs of fine
        element blocks, plus t times the restricted cost vector."""
        m, nloc_f, nloc_c = self.T.shape
        Tcat = self.T.reshape(-1, nloc_c)
        while len(hloc) > self.coarse.fesys.mesh.num_elements:
            ne = len(hloc) // m
            blocks = hloc.reshape(ne, m, nloc_f, nloc_f) @ self.T
            hloc = Tcat.T @ blocks.reshape(ne, -1, nloc_c)
            gloc = gloc.reshape(ne, -1) @ Tcat
        return self.coarse.assemble(gloc, hloc, t * self.cost)


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
