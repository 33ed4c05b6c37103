"""Discrete barrier functional f_h(z, t) = int^(h) t c[z] + F(Dz).

Value, gradient and sparse Hessian in fine-grid coefficients, Hessian
regularization, and element-by-element Galerkin restriction to coarse
subspaces for the shifted-central-path subproblems (coarse test space,
fine-grid quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .femspace import child_prolongation

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

        Returns (gslot, hslot, indices, indptr): the position of every
        element gradient / Hessian entry in the free gradient / in the data
        array of the free-free CSR pattern (indices, indptr); entries on a
        fixed dof go to one extra, dropped slot.
        """
        if self._plan is None:
            nf = len(self._free)
            pos = np.full(self.n, nf)
            pos[self._free] = np.arange(nf)
            loc = pos[self.fesys.elem_dofs()]
            nloc = loc.shape[1]
            rows = np.repeat(loc, nloc, axis=1).ravel()
            cols = np.tile(loc, (1, nloc)).ravel()
            keep = (rows < nf) & (cols < nf)
            keys, inv = np.unique(rows[keep] * nf + cols[keep], return_inverse=True)
            hslot = np.full(rows.size, keys.size)
            hslot[keep] = inv
            indptr = np.zeros(nf + 1, dtype=np.int32)
            np.cumsum(np.bincount(keys // nf, minlength=nf), out=indptr[1:])
            self._plan = (loc.ravel(), hslot, (keys % nf).astype(np.int32), indptr)
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

    def assemble(self, gloc, hloc, g0):
        """Scatter element blocks over elem_dofs() into the fixed pattern:
        g0 plus the free gradient, and the free-free CSR Hessian."""
        gslot, hslot, indices, indptr = self._assembly_plan()
        nf = len(self._free)
        g = g0 + np.bincount(gslot, weights=gloc.ravel(), minlength=nf + 1)[:nf]
        data = np.bincount(hslot, weights=hloc.ravel(), minlength=indices.size + 1)[:-1]
        # the caller owns the returned matrix, so it gets its own index arrays
        return g, sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(nf, nf))

    def grad_hess(self, z, t):
        """(gradient, Hessian) over free dofs at a feasible z."""
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
    with T_k the child_prolongation table of child rank k; this runs level by
    level down to the coarse one, whose own fixed pattern scatters the result.
    Fixed fine dofs need no mask: an interior coarse basis function vanishes
    at boundary nodes, so their rows reach only fixed coarse dofs, which the
    scatter drops.
    """

    def __init__(self, coarse, P, children, cost):
        self.coarse = coarse      # the coarse level's Objective, for its pattern
        self.P = P                # free prolongation, coarse level -> fine
        self.children = children  # per level pair, finest first: (ne_c, m) child ids
        self.cost = cost          # P^T c_free
        self.T = child_prolongation(coarse.fesys.d, coarse.fesys.alpha)  # cached, shared

    def restrict(self, gloc, hloc, t):
        """(gradient, Hessian) over the coarse free dofs of fine element
        blocks, plus t times the restricted cost vector."""
        nloc_c = self.T.shape[2]
        Tcat = self.T.reshape(-1, nloc_c)
        for children in self.children:
            ne = len(children)
            hloc = Tcat.T @ (hloc[children] @ self.T).reshape(ne, -1, nloc_c)
            gloc = gloc[children].reshape(ne, -1) @ Tcat
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
