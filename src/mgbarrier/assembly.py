"""Discrete barrier functional f_h(z, t) = int^(h) t c[z] + F(Dz).

Value, gradient and sparse Hessian in fine-grid coefficients, Hessian
regularization, and Galerkin restriction to coarse subspaces for the
shifted-central-path subproblems (coarse test space, fine-grid quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

INFEASIBLE = np.inf


def regularize(H):
    """H + 1e-15 * |||H|||_inf * I, with |||.|||_inf the max absolute row sum."""
    H = H.tocsr()
    row_sums = np.abs(H).sum(axis=1)
    norm_inf = float(row_sums.max()) if H.nnz else 0.0
    if norm_inf == 0.0:
        return H
    return H + (1e-15 * norm_inf) * sp.identity(H.shape[0], format="csr")


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
        self._free_mask = fes.free_mask()

        # cost vector: grad of int^(h) c[z] = int^(h) f u + s  (linear in z)
        if self.forcing is None:
            fvals = np.zeros((ne, nq))
        else:
            fvals = np.apply_along_axis(lambda x: self.forcing(*x), 2, smp.xq)
        c = np.zeros(fes.total_dim)
        np.add.at(c, fes.u_elem,
                  np.einsum("eq,qi->ei", smp.wq * fvals, smp.uvals))
        np.add.at(c, fes.s_elem(),
                  np.einsum("eq,qj->ej", smp.wq, smp.svals))
        self.cost_vector = c

        # fixed sparsity pattern for the Hessian (element-local blocks)
        n_lu = fes.u_elem.shape[1]
        n_ls = fes.n_ls
        loc = np.concatenate([fes.u_elem, fes.s_elem()], axis=1)  # (ne, nloc)
        nloc = n_lu + n_ls
        self._hrows = np.repeat(loc, nloc, axis=1).ravel()
        self._hcols = np.tile(loc, (1, nloc)).ravel()
        self._n_lu, self._n_ls, self._nloc = n_lu, n_ls, nloc

    @property
    def n(self):
        return self.fesys.total_dim

    def free_idx(self):
        return self._free

    def cost_integral(self, z):
        """int^(h) c[z] = int^(h) f u + s."""
        return float(self.cost_vector @ z)

    def feasible(self, z):
        grad_u, s_val = self.sampler.sample(z)
        d = self.fesys.d
        m = self.barrier.margin(grad_u.reshape(-1, d), s_val.ravel())
        return bool(np.all(m > 0.0))

    def value(self, z, t):
        """f_h(z, t), or +inf if Dz leaves the barrier domain at any node."""
        grad_u, s_val = self.sampler.sample(z)
        d = self.fesys.d
        q = grad_u.reshape(-1, d)
        s = s_val.ravel()
        if not np.all(self.barrier.margin(q, s) > 0.0):
            return INFEASIBLE
        F = self.barrier.value(q, s).reshape(s_val.shape)
        return t * self.cost_integral(z) + float(np.sum(self.sampler.wq * F))

    def grad_hess(self, z, t):
        """(gradient, Hessian) over free dofs at a feasible z."""
        fes, smp = self.fesys, self.sampler
        d = fes.d
        grad_u, s_val = smp.sample(z)
        q = grad_u.reshape(-1, d)
        s = s_val.ravel()
        if not np.all(self.barrier.margin(q, s) > 0.0):
            raise ValueError("gradient requested at an infeasible point")
        _, G, H = self.barrier.value_grad_hess(q, s)
        ne, nq = smp.wq.shape
        G = G.reshape(ne, nq, d + 1)
        H = H.reshape(ne, nq, d + 1, d + 1)
        w = smp.wq

        g = t * self.cost_vector.copy()
        np.add.at(g, fes.u_elem,
                  np.einsum("eq,eqa,eqia->ei", w, G[..., :d], smp.grads))
        np.add.at(g, fes.s_elem(),
                  np.einsum("eq,eq,qj->ej", w, G[..., d], smp.svals))

        n_lu, n_ls, nloc = self._n_lu, self._n_ls, self._nloc
        hloc = np.zeros((ne, nloc, nloc))
        hloc[:, :n_lu, :n_lu] = np.einsum(
            "eq,eqia,eqab,eqjb->eij", w, smp.grads, H[..., :d, :d], smp.grads
        )
        hus = np.einsum("eq,eqia,eqa,qj->eij", w, smp.grads, H[..., :d, d], smp.svals)
        hloc[:, :n_lu, n_lu:] = hus
        hloc[:, n_lu:, :n_lu] = np.swapaxes(hus, 1, 2)
        hloc[:, n_lu:, n_lu:] = np.einsum(
            "eq,eq,qi,qj->eij", w, H[..., d, d], smp.svals, smp.svals
        )

        Hmat = sp.csr_matrix(
            (hloc.ravel(), (self._hrows, self._hcols)), shape=(self.n, self.n)
        )
        free = self._free
        return g[free], Hmat[np.ix_(free, free)].tocsr()

    def embed_free(self, y):
        """Free-dof vector -> full vector with zeros on fixed dofs."""
        z = np.zeros(self.n)
        z[self._free] = y
        return z


class LevelObjective:
    """f_h restricted to the affine subspace base + span(P) (coarse free dofs).

    The finest level uses P = None (identity): coordinates are the fine free
    dofs themselves. Quadrature always lives on the fine grid.
    """

    def __init__(self, objective, base, P=None):
        self.obj = objective
        self.base = np.asarray(base, dtype=float)
        self.P = P  # sparse (n_fine_free, n_level_free) or None

    @property
    def dim(self):
        return self.P.shape[1] if self.P is not None else len(self.obj.free_idx())

    def full_point(self, y):
        inc = y if self.P is None else self.P @ y
        return self.base + self.obj.embed_free(inc)

    def value(self, y, t):
        return self.obj.value(self.full_point(y), t)

    def grad_hess(self, y, t):
        g, H = self.obj.grad_hess(self.full_point(y), t)
        if self.P is None:
            return g, H
        return self.P.T @ g, (self.P.T @ H @ self.P).tocsr()
