"""Finite element system for z = (u, s).

u lives in the continuous degree-alpha Lagrange space (Dirichlet dofs flagged),
s in the element-local discontinuous degree-(alpha-1) space, so that the
sampled field Dz = (grad u, s) is a piecewise polynomial of degree alpha-1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import CHILDREN, LOCAL_EDGES


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

    def elem_dofs(self):
        """Global dof ids of every element's local dofs, u then s: (ne, n_lu + n_ls)."""
        return np.concatenate([self.u_elem, self.s_elem()], axis=1)

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

@functools.cache
def sym_entries(n):
    """The distinct entries of a symmetric n x n matrix: read-only (i, j,
    full), entry r being (i[r], j[r]), the diagonal first and then i < j row
    by row, and full[a, b] the position r of entry (a, b) or (b, a)."""
    i, j = np.triu_indices(n, 1)
    i, j = np.r_[np.arange(n), i], np.r_[np.arange(n), j]
    full = np.empty((n, n), dtype=np.intp)
    full[i, j] = full[j, i] = np.arange(len(i))
    for table in (i, j, full):
        table.flags.writeable = False
    return i, j, full


@functools.cache
def reference_tables(d, alpha, nodes):
    """Read-only (pairs, uu, su, ss, gu, gs, uvals) at the reference points
    `nodes` (a tuple).

    At a node, a symmetric d x d S (entries k <= l, at pairs), a d-vector v
    and a scalar r in reference coordinates give the Hessian entries
    grad phi_i^T S grad phi_j (u-u), psi_j (grad phi_i . v) (s-u) and
    r psi_i psi_j (s-s), and the gradient entries grad phi_i . v and r psi_j.
    Summed over nodes, these are a table times the per-element features
    laid out (feature, node): uu (n_lu(n_lu+1)/2, P nq) over the distinct
    entries of sym_entries(n_lu), from the features S; su (n_ls n_lu, d nq),
    rows (j, i), from v; ss (n_ls(n_ls+1)/2, nq) from r; and the gradient
    tables gu (n_lu, d nq) from v and gs (n_ls, nq) from r. gu and gs are
    also the u basis gradients and the s basis values at the nodes, and
    uvals the u basis values.
    """
    pts = np.array(nodes)
    gr = u_basis_grad(d, alpha, pts).transpose(2, 0, 1)  # (d, nq, n_lu)
    uv, sv = u_basis(d, alpha, pts), s_basis(d, alpha, pts)
    k, l = np.triu_indices(d)
    (nq, n_lu), n_ls = gr.shape[1:], sv.shape[1]
    iu, ju, _ = sym_entries(n_lu)
    is_, js, _ = sym_entries(n_ls)
    uu = gr[k][..., iu] * gr[l][..., ju]
    off = k != l
    uu[off] += gr[l[off]][..., iu] * gr[k[off]][..., ju]
    su = sv.T[:, None, None, :] * gr.transpose(2, 0, 1)  # (n_ls, n_lu, d, nq)
    tables = (uu.transpose(2, 0, 1).reshape(len(iu), -1), su.reshape(n_ls * n_lu, -1),
              (sv[:, is_] * sv[:, js]).T, gr.transpose(2, 0, 1).reshape(n_lu, -1))
    tables = tuple(np.ascontiguousarray(t) for t in tables)
    # gs stays the F-ordered transpose of the slack values: then products
    # with it run in BLAS, which takes an infinite slack times a zero basis
    # value to NaN without numpy's floating-point warning
    for table in (k, l, *tables, sv, uv):
        table.flags.writeable = False
    return ((k, l), *tables, sv.T, uv)


@dataclass
class DSampler:
    """Linear map from global coefficients to Dz = (grad u, s) at quadrature nodes."""

    fesys: FeSystem
    rule: object
    wq: np.ndarray = field(init=False)      # (ne, nq) physical weights
    # the rule's reference_tables, and A^-1 A^-T per element at its P = d(d+1)/2
    # pairs. The block and gradient tables are laid out (entries, features),
    # so that a table times features laid out (features, elements) gives
    # (entries, elements)
    pairs: tuple = field(init=False)            # (k, l), k <= l
    uu_table: np.ndarray = field(init=False)    # (n_lu(n_lu+1)/2, P*nq)
    su_table: np.ndarray = field(init=False)    # (n_ls*n_lu, d*nq)
    ss_table: np.ndarray = field(init=False)    # (n_ls(n_ls+1)/2, nq)
    gu_table: np.ndarray = field(init=False)    # (n_lu, d*nq)
    gs_table: np.ndarray = field(init=False)    # (n_ls, nq)
    uvals: np.ndarray = field(init=False)       # (nq, n_lu)
    metric: np.ndarray = field(init=False)      # (P, ne)
    ainv: np.ndarray = field(init=False)        # (d, d, ne) mesh.Ainv, entry-major

    def __post_init__(self):
        fes, rule, mesh = self.fesys, self.rule, self.fesys.mesh
        self.wq = np.abs(mesh.detA)[:, None] * rule.weights[None, :]  # |det A_K| omega_j

        (self.pairs, self.uu_table, self.su_table, self.ss_table, self.gu_table,
         self.gs_table, self.uvals) = reference_tables(
            mesh.d, fes.alpha, tuple(map(tuple, rule.nodes)))
        k, l = self.pairs
        self.metric = np.ascontiguousarray(
            np.einsum("eki,eki->ke", mesh.Ainv[:, k], mesh.Ainv[:, l]))
        self.ainv = np.ascontiguousarray(mesh.Ainv.transpose(1, 2, 0))

    @functools.cached_property
    def xq(self):
        """Physical quadrature node coordinates, shape (ne, nq, d)."""
        return self.fesys.mesh.to_physical(self.rule.nodes)

    def sample(self, z):
        """Return (grad_u, s_val): shapes (ne, nq, d) and (ne, nq), element-major
        views of arrays laid out (component, node, element) and (node,
        element), as the block tables read them.

        The reference gradients are gu_table's columns times the element
        coefficients, and the physical gradient is A^-T times them."""
        fes, (ne, nq) = self.fesys, self.wq.shape
        ref = (self.gu_table.T @ z[fes.u_elem].T).reshape(fes.d, nq, ne)
        grad_u = np.einsum("jie,jqe->iqe", self.ainv, ref)
        s_val = self.gs_table.T @ z[fes.n_u:].reshape(-1, fes.n_ls).T
        return grad_u.T, s_val.T

    def sample_u(self, z):
        """u values at quadrature nodes, shape (ne, nq)."""
        return np.einsum("qi,ei->eq", self.uvals, z[self.fesys.u_elem])


# ---------------------------------------------------------------------------

@functools.cache
def child_prolongation(d, alpha):
    """The coarse local basis, u then s, at the local nodes of each child of
    the reference simplex: a read-only table of shape (m, nloc_f, nloc_c),
    child rank k being CHILDREN[d][k] of the uniform refinement.

    Under every parent a child rank has this same table. Its entries are
    exact and a zero is 0.0: the nodes are dyadic, but for the centroid slack
    node of alpha=1, where the slack basis is the constant 1.
    """
    _check(d, alpha)
    i, j = np.array(LOCAL_EDGES[d]).T
    verts = np.vstack([np.zeros(d), np.eye(d)])
    p2 = np.concatenate([verts, 0.5 * (verts[i] + verts[j])])
    # local nodes of an element, u then s, as barycentric weights of its vertices
    u_nodes = p2 if alpha == 2 else verts
    bary = _barycentric(d, np.concatenate([u_nodes, s_node_ref(d, alpha)]))
    n_lu = len(u_nodes)
    table = np.zeros((len(CHILDREN[d]), len(bary), len(bary)))
    for T, child in zip(table, CHILDREN[d]):
        x = bary @ p2[list(child)]  # the child's local nodes in the parent
        T[:n_lu, :n_lu] = u_basis(d, alpha, x[:n_lu])
        T[n_lu:, n_lu:] = s_basis(d, alpha, x[n_lu:])
    table.flags.writeable = False
    return table


@functools.cache
def restriction_tables(d, alpha):
    """Read-only tables (g, uu, su, ss) that restrict the element gradients
    and Hessian blocks of the m children of a parent to the parent, laid out
    as reference_tables lays them out: each is (parent entries, child entries
    x m), its columns ordered (child entry, child rank), so that the table
    times the children's blocks, stacked so, is the parent's block.

    With T_k = child_prolongation(d, alpha)[k], the gradient restricts as
    sum_k T_k^T g_k and the Hessian as sum_k T_k^T H_k T_k. T_k is
    block-diagonal over (u, s), so the u-u, s-u and s-s blocks restrict
    each on its own, by sum_k T_k^T (x) T_k^T, on the distinct entries of
    the symmetric ones.
    """
    T = child_prolongation(d, alpha)
    n_lu = T.shape[2] - s_node_ref(d, alpha).shape[0]
    Tu, Ts = T[:, :n_lu, :n_lu], T[:, n_lu:, n_lu:]

    def symmetric(Tb):
        # parent entry (i, j) from child entry (a, b): T[a, i] T[b, j], plus
        # T[b, i] T[a, j] off the diagonal, where (b, a) is the same entry
        i, j, _ = sym_entries(Tb.shape[2])
        a, b, _ = sym_entries(Tb.shape[1])
        K = Tb[:, a][..., i] * Tb[:, b][..., j]
        off = a != b
        K[:, off] += Tb[:, b[off]][..., i] * Tb[:, a[off]][..., j]
        return K.transpose(2, 1, 0)

    su = (Ts[:, :, None, :, None] * Tu[:, None, :, None, :]).transpose(3, 4, 1, 2, 0)
    tables = (T.transpose(2, 1, 0), symmetric(Tu), su.reshape(Ts.shape[2] * n_lu, -1),
              symmetric(Ts))
    tables = tuple(np.ascontiguousarray(t.reshape(len(t), -1)) for t in tables)
    for table in tables:
        table.flags.writeable = False
    return tables


def prolongation(fes_c, fes_f):
    """Exact embedding of the coarse FE space into the fine one (full dofs).

    Requires fes_f.mesh = refine_uniform(fes_c.mesh) and equal alpha. The fine
    nodal values of any coarse function reproduce it exactly (nested spaces).
    The fine mesh must be in refine_uniform's order: m times the coarse
    elements, and child k <= d of coarse element c, c*m + k, keeps vertex k.
    """
    if fes_c.alpha != fes_f.alpha:
        raise ValueError("prolongation requires equal polynomial degree")
    mesh_f, mesh_c = fes_f.mesh, fes_c.mesh
    m = len(CHILDREN[mesh_f.d])
    if not (mesh_f.d == mesh_c.d and mesh_f.num_elements == m * mesh_c.num_elements
            and all(np.array_equal(mesh_f.elements[k::m, k], mesh_c.elements[:, k])
                    for k in range(mesh_f.d + 1))):
        raise ValueError("fine mesh is not a refinement of the coarse mesh")
    nc = mesh_c.num_vertices
    if not np.array_equal(mesh_f.vertices[:nc], mesh_c.vertices):
        raise ValueError("meshes are not nested")

    # one (element, local dof) per fine dof, the first in elem_dofs order:
    # the smallest flat position that holds the dof, from one scatter-min.
    # Any element holding the dof gives the same exact row
    dofs_f = fes_f.elem_dofs()
    nloc_f = dofs_f.shape[1]
    first = np.full(fes_f.total_dim, dofs_f.size)
    np.minimum.at(first, dofs_f.ravel(), np.arange(dofs_f.size))
    elem, loc = np.divmod(first, nloc_f)
    parent, rank = np.divmod(elem, m)
    # its row of P is row rank * nloc_f + loc of the child tables, over the
    # parent's coarse dofs, less the tables' exact zeros: entry j of a row
    # whose table row is r is tnz[start[r] + j]
    dofs_c = fes_c.elem_dofs()
    nloc_c = dofs_c.shape[1]
    table = child_prolongation(mesh_f.d, fes_f.alpha).reshape(-1, nloc_c)
    tnz = np.flatnonzero(table)
    nnz = np.count_nonzero(table, axis=1)
    start = np.cumsum(nnz) - nnz
    row = rank * nloc_f + loc
    row_nnz = nnz[row]
    indptr = np.zeros(len(first) + 1, dtype=np.intp)
    np.cumsum(row_nnz, out=indptr[1:])
    k = tnz[np.arange(indptr[-1]) + np.repeat(start[row] - indptr[:-1], row_nnz)]
    cols = dofs_c.ravel()[np.repeat(parent * nloc_c, row_nnz) + k % nloc_c]
    P = sp.csr_matrix((table.ravel()[k], cols, indptr),
                      shape=(fes_f.total_dim, fes_c.total_dim))
    P.sort_indices()  # within each row, of at most nloc_c entries
    return P


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
