"""Finite element system for z = (u, s).

u lives in the continuous degree-alpha Lagrange space (Dirichlet dofs flagged),
s in the element-local discontinuous degree-(alpha-1) space, so that the
sampled field Dz = (grad u, s) is a piecewise polynomial of degree alpha-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import p2_nodes
from .quadrature import pushforward_nodes, pushforward_weights


# ---------------------------------------------------------------------------
# reference bases

def u_basis(d, alpha, pts):
    """Lagrange basis values at reference points, shape (npts, n_local)."""
    pts = np.atleast_2d(pts)
    if d == 1:
        x = pts[:, 0]
        if alpha == 1:
            return np.stack([1 - x, x], axis=1)
        if alpha == 2:
            return np.stack([(1 - x) * (1 - 2 * x), x * (2 * x - 1), 4 * x * (1 - x)],
                            axis=1)
    if d == 2:
        x, y = pts[:, 0], pts[:, 1]
        l1, l2, l3 = 1 - x - y, x, y
        if alpha == 1:
            return np.stack([l1, l2, l3], axis=1)
        if alpha == 2:
            return np.stack(
                [l1 * (2 * l1 - 1), l2 * (2 * l2 - 1), l3 * (2 * l3 - 1),
                 4 * l1 * l2, 4 * l2 * l3, 4 * l1 * l3],
                axis=1,
            )
    raise ValueError(f"unsupported (d, alpha) = ({d}, {alpha})")


def u_basis_grad(d, alpha, pts):
    """Reference gradients of the Lagrange basis, shape (npts, n_local, d)."""
    pts = np.atleast_2d(pts)
    n = pts.shape[0]
    if d == 1:
        x = pts[:, 0]
        if alpha == 1:
            g = np.empty((n, 2, 1))
            g[:, 0, 0] = -1.0
            g[:, 1, 0] = 1.0
            return g
        if alpha == 2:
            g = np.empty((n, 3, 1))
            g[:, 0, 0] = 4 * x - 3
            g[:, 1, 0] = 4 * x - 1
            g[:, 2, 0] = 4 - 8 * x
            return g
    if d == 2:
        x, y = pts[:, 0], pts[:, 1]
        l1 = 1 - x - y
        if alpha == 1:
            g = np.empty((n, 3, 2))
            g[:, 0] = [-1.0, -1.0]
            g[:, 1] = [1.0, 0.0]
            g[:, 2] = [0.0, 1.0]
            return g
        if alpha == 2:
            g = np.zeros((n, 6, 2))
            g[:, 0, 0] = 1 - 4 * l1
            g[:, 0, 1] = 1 - 4 * l1
            g[:, 1, 0] = 4 * x - 1
            g[:, 2, 1] = 4 * y - 1
            g[:, 3, 0] = 4 * (l1 - x)
            g[:, 3, 1] = -4 * x
            g[:, 4, 0] = 4 * y
            g[:, 4, 1] = 4 * x
            g[:, 5, 0] = -4 * y
            g[:, 5, 1] = 4 * (l1 - y)
            return g
    raise ValueError(f"unsupported (d, alpha) = ({d}, {alpha})")


def s_basis(d, alpha, pts):
    """Element-local basis of the degree-(alpha-1) slack space."""
    pts = np.atleast_2d(pts)
    if alpha == 1:
        return np.ones((pts.shape[0], 1))
    if alpha == 2:
        if d == 1:
            x = pts[:, 0]
            return np.stack([1 - x, x], axis=1)
        if d == 2:
            x, y = pts[:, 0], pts[:, 1]
            return np.stack([1 - x - y, x, y], axis=1)
    raise ValueError(f"unsupported (d, alpha) = ({d}, {alpha})")


def s_node_ref(d, alpha):
    """Reference nodal positions of the slack basis (for interpolation)."""
    if alpha == 1:
        centroid = np.full((1, d), 1.0 / (d + 1))
        return centroid
    if alpha == 2:
        if d == 1:
            return np.array([[0.0], [1.0]])
        if d == 2:
            return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    raise ValueError(f"unsupported (d, alpha) = ({d}, {alpha})")


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
        ne = self.mesh.num_elements
        return self.n_u + (np.arange(ne)[:, None] * self.n_ls
                           + np.arange(self.n_ls)[None, :])

    def free_mask(self):
        return np.concatenate([~self.u_boundary, np.ones(self.n_s, dtype=bool)])

    def free_idx(self):
        return np.flatnonzero(self.free_mask())


def build_fe_system(mesh, alpha):
    if alpha not in (1, 2):
        raise ValueError(f"unsupported polynomial degree alpha={alpha}")
    d = mesh.d
    if alpha == 1:
        coords, u_elem = mesh.vertices.copy(), mesh.elements.copy()
    else:
        coords, u_elem = p2_nodes(mesh)
    bdry = np.zeros(coords.shape[0], dtype=bool)
    bdry[mesh.boundary_vertices] = True
    if alpha == 2 and d == 2:
        # the midpoint of an edge of a single triangle lies on the boundary
        bdry |= np.bincount(u_elem[:, d + 1:].ravel(), minlength=bdry.size) == 1

    n_ls = 1 if alpha == 1 else d + 1 if d == 2 else 2
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

    def gather_u(self, z):
        return z[self.fesys.u_elem]  # (ne, n_lu)

    def gather_s(self, z):
        ne = self.fesys.mesh.num_elements
        return z[self.fesys.n_u:].reshape(ne, self.fesys.n_ls)

    def sample(self, z):
        """Return (grad_u, s_val): shapes (ne, nq, d) and (ne, nq)."""
        ue = self.gather_u(z)
        se = self.gather_s(z)
        grad_u = np.einsum("eqia,ei->eqa", self.grads, ue)
        s_val = np.einsum("qj,ej->eq", self.svals, se)
        return grad_u, s_val

    def sample_u(self, z):
        """u values at quadrature nodes, shape (ne, nq)."""
        return np.einsum("qi,ei->eq", self.uvals, self.gather_u(z))


# ---------------------------------------------------------------------------

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

    d, alpha = mesh_c.d, fes_c.alpha
    rows, cols, vals = [], [], []

    # u block: one representative (element, local node) per fine u dof
    flat = fes_f.u_elem.ravel()
    _, first = np.unique(flat, return_index=True)
    rep_elem = first // fes_f.u_elem.shape[1]
    rep_node = flat[first]
    coords = fes_f.u_node_coords[rep_node]                       # (n_uf, d)
    pe = pm[rep_elem]                                            # parent elements
    ref = np.einsum("eab,eb->ea", mesh_c.Ainv[pe], coords - mesh_c.b[pe])
    vals_u = u_basis(d, alpha, ref)                              # (n_uf, n_lu)
    n_lu = vals_u.shape[1]
    rows.append(np.repeat(rep_node, n_lu))
    cols.append(fes_c.u_elem[pe].ravel())
    vals.append(vals_u.ravel())

    # s block: evaluate the parent slack polynomial at fine s nodes
    sref = s_node_ref(d, alpha)                                  # (n_ls, d)
    ne_f = mesh_f.num_elements
    xs = np.einsum("eab,qb->eqa", mesh_f.A, sref) + mesh_f.b[:, None, :]
    pe_all = pm[np.arange(ne_f)]
    refs = np.einsum("eab,eqb->eqa", mesh_c.Ainv[pe_all],
                     xs - mesh_c.b[pe_all][:, None, :])
    vals_s = s_basis(d, alpha, refs.reshape(-1, d)).reshape(ne_f, fes_f.n_ls, -1)
    srows = fes_f.s_elem()[:, :, None]
    scols = fes_c.s_elem()[pe_all][:, None, :]
    rows.append(np.broadcast_to(srows, vals_s.shape).ravel())
    cols.append(np.broadcast_to(scols, vals_s.shape).ravel())
    vals.append(vals_s.ravel())

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
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
    sref = s_node_ref(mesh.d, fesys.alpha)
    xs = np.einsum("eab,qb->eqa", mesh.A, sref) + mesh.b[:, None, :]
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
