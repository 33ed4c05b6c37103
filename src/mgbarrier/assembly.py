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


def regularization_shift(H):
    """1e-15 * |||H|||_inf of a canonical CSR matrix, with |||.|||_inf the max
    absolute row sum; 0 for a matrix with no entries."""
    rows = np.flatnonzero(np.diff(H.indptr))
    if rows.size == 0:
        return 0.0
    return 1e-15 * float(np.add.reduceat(np.abs(H.data), H.indptr[rows]).max())


def regularize(H):
    """H + regularization_shift(H) * I."""
    H = H.tocsr()
    H.sum_duplicates()
    shift = regularization_shift(H)
    if shift == 0.0:
        return H
    return H + shift * sp.identity(H.shape[0], format="csr")


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
        c = np.zeros(fes.total_dim)
        np.add.at(c, fes.u_elem,
                  np.einsum("eq,qi->ei", smp.wq * fvals, smp.uvals))
        np.add.at(c, fes.s_elem(),
                  np.einsum("eq,qj->ej", smp.wq, smp.svals))
        self.cost_vector = c

        self._plan = None  # built by _assembly_plan on the first grad_hess

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

    def feasible(self, z):
        return self.barrier.feasible(*self.dz(z))

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

        Returns (basis, basis_t, ss, gslot, hslot, indices, indptr):
        - basis (ne, n_lu, nq*d): basis gradients per element with (q, a)
          stacked, so that every u-row contraction is one batched matmul;
        - basis_t (ne, nq, d, n_lu): the same gradients, per node transposed;
        - ss (nq, n_ls*n_ls): products of slack basis values;
        - gslot / hslot: position of every element gradient / Hessian entry in
          the free gradient / in the data array of the free-free CSR pattern
          (indices, indptr); entries on a fixed dof go to one extra, dropped slot.
        """
        if self._plan is None:
            fes, smp = self.fesys, self.sampler
            ne, nq, n_lu, d = smp.grads.shape
            nf = len(self._free)
            pos = np.full(self.n, nf)
            pos[self._free] = np.arange(nf)
            loc = pos[np.concatenate([fes.u_elem, fes.s_elem()], axis=1)]
            nloc = loc.shape[1]
            rows = np.repeat(loc, nloc, axis=1).ravel()
            cols = np.tile(loc, (1, nloc)).ravel()
            keep = (rows < nf) & (cols < nf)
            keys, inv = np.unique(rows[keep] * nf + cols[keep], return_inverse=True)
            hslot = np.full(rows.size, keys.size)
            hslot[keep] = inv
            indptr = np.zeros(nf + 1, dtype=np.int32)
            np.cumsum(np.bincount(keys // nf, minlength=nf), out=indptr[1:])
            basis = np.ascontiguousarray(smp.grads.transpose(0, 2, 1, 3))
            basis_t = np.ascontiguousarray(smp.grads.transpose(0, 1, 3, 2))
            ss = np.einsum("qi,qj->qij", smp.svals, smp.svals).reshape(nq, -1)
            self._plan = (basis.reshape(ne, n_lu, nq * d), basis_t, ss, loc.ravel(),
                          hslot, (keys % nf).astype(np.int32), indptr)
        return self._plan

    def grad_hess(self, z, t):
        """(gradient, Hessian) over free dofs at a feasible z."""
        smp = self.sampler
        d = self.fesys.d
        # value_grad_hess raises ValueError outside the barrier domain
        _, G, H = self.barrier.value_grad_hess(*self.dz(z))
        ne, nq = smp.wq.shape
        wG = smp.wq[..., None] * G.reshape(ne, nq, d + 1)
        wH = smp.wq[..., None, None] * H.reshape(ne, nq, d + 1, d + 1)
        basis, basis_t, ss, gslot, hslot, indices, indptr = self._assembly_plan()

        # u rows of the element matrices and gradients: basis @ [u | s | grad]
        # columns, each stacked over (quadrature node, gradient component)
        n_lu, n_ls = basis.shape[1], smp.svals.shape[1]
        nloc = n_lu + n_ls
        ucols = np.concatenate([
            wH[..., :d, :d] @ basis_t,
            wH[..., :d, d:] * smp.svals[:, None, :],
            wG[..., :d, None],
        ], axis=3)
        urows = basis @ ucols.reshape(ne, nq * d, nloc + 1)

        hloc = np.empty((ne, nloc, nloc))
        hloc[:, :n_lu] = urows[..., :nloc]
        hloc[:, n_lu:, :n_lu] = np.swapaxes(urows[..., n_lu:nloc], 1, 2)
        hloc[:, n_lu:, n_lu:] = (wH[..., d, d] @ ss).reshape(ne, n_ls, n_ls)
        gloc = np.concatenate([urows[..., nloc], wG[..., d] @ smp.svals], axis=1)

        nf = len(self._free)
        g = t * self.cost_vector[self._free] + np.bincount(
            gslot, weights=gloc.ravel(), minlength=nf + 1)[:nf]
        data = np.bincount(hslot, weights=hloc.ravel(), minlength=indices.size + 1)[:-1]
        # the caller owns the returned matrix, so it gets its own index arrays
        return g, sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(nf, nf))

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
