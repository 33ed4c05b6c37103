"""Finite element system for z = (u, s).

u lives in the continuous degree-alpha Lagrange space (Dirichlet dofs flagged),
s in the element-local discontinuous degree-(alpha-1) space, so that the
sampled field Dz = (grad u, s) is a piecewise polynomial of degree alpha-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import LOCAL_EDGES
from .quadrature import pushforward_nodes, pushforward_weights


# ---------------------------------------------------------------------------
# reference bases, from the barycentric coordinates of conv{0, e_1, ..., e_d}

def _check(d, alpha):
    if d not in LOCAL_EDGES or alpha not in (1, 2):
        raise ValueError(f"unsupported (d, alpha) = ({d}, {alpha})")


def _barycentric(d, pts):
    """(lambda_0, x_1, ..., x_d) at reference points, shape (npts, d+1).

    lambda_0 is formed left to right, (1 - x) - y; as 1 - (x + y) it would
    move the basis tables by roundoff.
    """
    pts = np.atleast_2d(pts)
    lam0 = 1 - pts[:, 0]
    for k in range(1, d):
        lam0 = lam0 - pts[:, k]
    return np.column_stack([lam0, pts[:, :d]])


def _lagrange(d, degree, pts):
    """Lagrange basis of degree 0, 1 or 2: the constant; the lambda_i; the
    lambda_i (2 lambda_i - 1) then 4 lambda_i lambda_j, (i, j) in LOCAL_EDGES[d]."""
    lam = _barycentric(d, pts)
    if degree == 0:
        return np.ones((lam.shape[0], 1))
    if degree == 1:
        return lam
    i, j = np.array(LOCAL_EDGES[d]).T
    return np.concatenate([lam * (2 * lam - 1), 4 * lam[:, i] * lam[:, j]], axis=1)


def _lagrange_grad(d, degree, pts):
    """Reference gradients of _lagrange(d, degree, .), degree 1 or 2."""
    lam = _barycentric(d, pts)
    G = np.vstack([-np.ones(d), np.eye(d)])  # grad lambda_i, shape (d+1, d)
    if degree == 1:
        return np.repeat(G[None], lam.shape[0], axis=0)
    i, j = np.array(LOCAL_EDGES[d]).T
    edge = 4 * (lam[:, j, None] * G[i] + lam[:, i, None] * G[j])
    # (4 lambda_i - 1) grad lambda_i, written so that zero components are +0
    return np.concatenate([4 * lam[:, :, None] * G - G, edge], axis=1)


def u_basis(d, alpha, pts):
    """Lagrange basis values at reference points, shape (npts, n_local)."""
    _check(d, alpha)
    return _lagrange(d, alpha, pts)


def u_basis_grad(d, alpha, pts):
    """Reference gradients of the Lagrange basis, shape (npts, n_local, d)."""
    _check(d, alpha)
    return _lagrange_grad(d, alpha, pts)


def s_basis(d, alpha, pts):
    """Element-local basis of the slack space: the Lagrange basis of degree alpha-1."""
    _check(d, alpha)
    return _lagrange(d, alpha - 1, pts)


def s_node_ref(d, alpha):
    """Reference nodes of the slack basis: the centroid, or the vertices for alpha=2."""
    _check(d, alpha)
    bary = np.eye(d + 1) if alpha == 2 else np.full((1, d + 1), 1.0 / (d + 1))
    return bary[:, 1:]  # reference coordinate x_k is lambda_k


# ---------------------------------------------------------------------------

@dataclass
class FeSystem:
    mesh: object
    alpha: int
    u_node_coords: np.ndarray   # (n_u, d)
    u_elem: np.ndarray          # (ne, n_lu) global u dof ids per element
    u_boundary: np.ndarray      # bool (n_u,)
    n_ls: int                   # slack dofs per element

    @property
    def d(self):
        return self.mesh.d

    @property
    def n_u(self):
        return self.u_node_coords.shape[0]

    @property
    def n_s(self):
        return self.mesh.num_elements * self.n_ls

    @property
    def total_dim(self):
        return self.n_u + self.n_s

    def s_elem(self):
        """Global s dof ids per element, shape (ne, n_ls)."""
        return self.n_u + np.arange(self.n_s).reshape(-1, self.n_ls)

    def free_idx(self):
        return np.flatnonzero(np.concatenate([~self.u_boundary,
                                              np.ones(self.n_s, dtype=bool)]))


def build_fe_system(mesh, alpha):
    n_ls = s_node_ref(mesh.d, alpha).shape[0]  # rejects an unsupported alpha
    if alpha == 1:
        coords, u_elem = mesh.vertices.copy(), mesh.elements.copy()
        bnodes = mesh.boundary_vertices
    else:
        coords, u_elem, bnodes = mesh.p2
    bdry = np.zeros(coords.shape[0], dtype=bool)
    bdry[bnodes] = True
    return FeSystem(mesh, alpha, coords, u_elem, bdry, n_ls)


# ---------------------------------------------------------------------------

@dataclass
class DSampler:
    """Linear map from global coefficients to Dz = (grad u, s) at quadrature nodes."""

    fesys: FeSystem
    rule: object
    grads: np.ndarray = field(init=False)   # (ne, nq, n_lu, d) physical basis gradients
    uvals: np.ndarray = field(init=False)   # (nq, n_lu)
    svals: np.ndarray = field(init=False)   # (nq, n_ls)
    wq: np.ndarray = field(init=False)      # (ne, nq) physical weights
    xq: np.ndarray = field(init=False)      # (ne, nq, d) node coordinates

    def __post_init__(self):
        fes, rule, mesh = self.fesys, self.rule, self.fesys.mesh
        refg = u_basis_grad(mesh.d, fes.alpha, rule.nodes)  # (nq, n_lu, d)
        # physical gradient: A_K^{-T} refgrad
        self.grads = np.einsum("eba,qib->eqia", mesh.Ainv, refg)
        self.uvals = u_basis(mesh.d, fes.alpha, rule.nodes)
        self.svals = s_basis(mesh.d, fes.alpha, rule.nodes)
        self.wq = pushforward_weights(mesh, rule)
        self.xq = pushforward_nodes(mesh, rule)

    def sample(self, z):
        """Return (grad_u, s_val): shapes (ne, nq, d) and (ne, nq)."""
        ue = z[self.fesys.u_elem]
        se = z[self.fesys.n_u:].reshape(-1, self.fesys.n_ls)
        grad_u = np.einsum("eqia,ei->eqa", self.grads, ue)
        s_val = np.einsum("qj,ej->eq", self.svals, se)
        return grad_u, s_val

    def sample_u(self, z):
        """u values at quadrature nodes, shape (ne, nq)."""
        return np.einsum("qi,ei->eq", self.uvals, z[self.fesys.u_elem])


# ---------------------------------------------------------------------------

def _parent_values(basis, fes_c, pe, x):
    """basis(d, alpha, .) of the coarse elements pe at physical points x of
    shape (n, m, d); returns shape (n, m, n_local)."""
    mesh = fes_c.mesh
    ref = np.einsum("eab,eqb->eqa", mesh.Ainv[pe], x - mesh.b[pe][:, None, :])
    return basis(mesh.d, fes_c.alpha, ref.reshape(-1, mesh.d)).reshape(*x.shape[:2], -1)


def prolongation(fes_c, fes_f):
    """Exact embedding of the coarse FE space into the fine one (full dofs).

    Requires fes_f.mesh = refine_uniform(fes_c.mesh) and equal alpha. The fine
    nodal values of any coarse function reproduce it exactly (nested spaces).
    """
    if fes_c.alpha != fes_f.alpha:
        raise ValueError("prolongation requires equal polynomial degree")
    mesh_f, mesh_c = fes_f.mesh, fes_c.mesh
    pm = mesh_f.parent_map
    if pm is None or len(pm) != mesh_f.num_elements:
        raise ValueError("fine mesh is not a refinement of the coarse mesh")
    nc = mesh_c.num_vertices
    if not np.array_equal(mesh_f.vertices[:nc], mesh_c.vertices):
        raise ValueError("meshes are not nested")

    # u block: one representative (element, local node) per fine u dof; s block:
    # the fine slack nodes of every fine element; both in the parent element
    rep_node, first = np.unique(fes_f.u_elem, return_index=True)
    pe = pm[first // fes_f.u_elem.shape[1]]
    s_nodes = mesh_f.to_physical(s_node_ref(mesh_f.d, fes_f.alpha))
    blocks = (
        (rep_node[:, None], fes_c.u_elem[pe],
         _parent_values(u_basis, fes_c, pe, fes_f.u_node_coords[rep_node][:, None])),
        (fes_f.s_elem(), fes_c.s_elem()[pm],
         _parent_values(s_basis, fes_c, pm, s_nodes)),
    )
    rows = np.concatenate([np.broadcast_to(r[:, :, None], v.shape).ravel()
                           for r, _, v in blocks])
    cols = np.concatenate([np.broadcast_to(c[:, None, :], v.shape).ravel()
                           for _, c, v in blocks])
    vals = np.concatenate([v.ravel() for _, _, v in blocks])
    keep = np.abs(vals) > 1e-15
    P = sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(fes_f.total_dim, fes_c.total_dim),
    )
    return P


def free_prolongation(fes_c, fes_f, P_full=None):
    """Prolongation restricted to free (zero-trace u + all s) dofs."""
    P = prolongation(fes_c, fes_f) if P_full is None else P_full
    return P[np.ix_(fes_f.free_idx(), fes_c.free_idx())].tocsr()


def interpolate(fesys, u_fun, s_fun):
    """Nodal interpolation of callables u(x), s(x) into the FE coefficient vector."""
    mesh = fesys.mesh
    z = np.empty(fesys.total_dim)
    z[: fesys.n_u] = [u_fun(*x) for x in fesys.u_node_coords]
    xs = mesh.to_physical(s_node_ref(mesh.d, fesys.alpha))
    z[fesys.n_u:] = [s_fun(*x) for x in xs.reshape(-1, mesh.d)]
    if not np.all(np.isfinite(z)):
        raise ValueError("interpolation produced a non-finite value")
    return z


def dump_solution(fesys, z, path):
    """Plain-text export: vertex coordinates with u values, then per-element s means."""
    mesh = fesys.mesh
    with open(path, "w") as fh:
        for i in range(mesh.num_vertices):
            x = " ".join(repr(float(c)) for c in fesys.u_node_coords[i])
            fh.write(f"{x} {float(z[i])!r}\n")
        se = z[fesys.n_u:].reshape(mesh.num_elements, fesys.n_ls)
        for e in range(mesh.num_elements):
            fh.write(f"{float(np.mean(se[e]))!r}\n")
