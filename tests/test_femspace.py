import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from mgbarrier.femspace import (DSampler, build_fe_system, child_prolongation,
                                dump_solution, prolongation, reference_tables,
                                s_basis, s_node_ref, sym_entries, u_basis, u_basis_grad)
from mgbarrier.mesh import CHILDREN, SimplicialMesh, build_rect_mesh, p2_nodes, refine_uniform
from mgbarrier.problems import UNIT_INTERVAL, UNIT_SQUARE, ProblemSpec, build_problem
from mgbarrier.quadrature import reference_rule

from hessians import full_hessian
from interpolation import interpolate


@pytest.mark.parametrize("d,alpha", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_partition_of_unity(d, alpha):
    rng = np.random.default_rng(0)
    pts = rng.dirichlet(np.ones(d + 1), size=40)[:, :d]
    vals = u_basis(d, alpha, pts)
    grads = u_basis_grad(d, alpha, pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-12)
    svals = s_basis(d, alpha, pts)
    assert np.allclose(svals.sum(axis=1), 1.0, atol=1e-13)


@pytest.mark.parametrize("d,alpha", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_lagrange_delta_property(d, alpha):
    # the u nodes in local order are the P2 nodes of a one-element reference
    # mesh (vertices, then the midpoints of LOCAL_EDGES[d]); P1 keeps the vertices
    ref = SimplicialMesh(d, np.vstack([np.zeros(d), np.eye(d)]),
                         np.arange(d + 1)[None], np.arange(d + 1))
    coords, nodes, _ = p2_nodes(ref)
    local = nodes[0] if alpha == 2 else nodes[0, : d + 1]
    vals = u_basis(d, alpha, coords[local])
    assert np.allclose(vals, np.eye(len(local)), atol=1e-13)


@pytest.mark.parametrize("d,alpha", [(1, 2), (2, 2)])
def test_s_basis_delta_at_its_nodes(d, alpha):
    nodes = s_node_ref(d, alpha)
    vals = s_basis(d, alpha, nodes)
    assert np.allclose(vals, np.eye(nodes.shape[0]), atol=1e-13)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    pts = rng.dirichlet(np.ones(3), size=10)[:, :2]
    h = 1e-7
    for alpha in (1, 2):
        g = u_basis_grad(2, alpha, pts)
        for k in range(2):
            dp = pts.copy()
            dp[:, k] += h
            dm = pts.copy()
            dm[:, k] -= h
            fd = (u_basis(2, alpha, dp) - u_basis(2, alpha, dm)) / (2 * h)
            assert np.allclose(g[:, :, k], fd, atol=1e-6)


@pytest.mark.parametrize("alpha,expected_nu,expected_nls", [(1, 9, 1), (2, 9 + 16, 3)])
def test_dof_counts_2x2(alpha, expected_nu, expected_nls):
    mesh = build_rect_mesh([(0, 1), (0, 1)], 2)
    fes = build_fe_system(mesh, alpha)
    assert fes.n_u == expected_nu  # 9 vertices (+16 edges for alpha=2)
    assert fes.n_ls == expected_nls
    assert fes.total_dim == fes.n_u + mesh.num_elements * fes.n_ls


def test_boundary_flags_alpha2():
    mesh = build_rect_mesh([(0, 1), (0, 1)], 2)
    fes = build_fe_system(mesh, 2)
    on_edge = np.zeros(fes.n_u, dtype=bool)
    for i, (x, y) in enumerate(fes.u_node_coords):
        on_edge[i] = x in (0.0, 1.0) or y in (0.0, 1.0)
    assert np.array_equal(fes.u_boundary, on_edge)


def test_sampler_exact_on_quadratics():
    mesh = build_rect_mesh([(0, 1), (0, 1)], 3)
    fes = build_fe_system(mesh, 2)
    smp = DSampler(fes, reference_rule(2, 4))
    z = interpolate(fes, lambda x, y: x * x + 2 * x * y - y,
                    lambda x, y: 1 + x - y)
    grad_u, s_val = smp.sample(z)
    gx = 2 * smp.xq[..., 0] + 2 * smp.xq[..., 1]
    gy = 2 * smp.xq[..., 0] - 1.0
    assert np.allclose(grad_u[..., 0], gx, atol=1e-12)
    assert np.allclose(grad_u[..., 1], gy, atol=1e-12)
    assert np.allclose(s_val, 1 + smp.xq[..., 0] - smp.xq[..., 1], atol=1e-12)
    uvals = smp.sample_u(z)
    xq = smp.xq
    assert np.allclose(uvals, xq[..., 0] ** 2 + 2 * xq[..., 0] * xq[..., 1]
                       - xq[..., 1], atol=1e-12)


def einsum_sample(smp, z):
    """The einsum sampling that DSampler.sample replaced, kept as its
    reference, with the basis gradients rebuilt from the element maps."""
    fes = smp.fesys
    grads = np.einsum("eba,qib->eqia", fes.mesh.Ainv,
                      u_basis_grad(fes.d, fes.alpha, smp.rule.nodes))
    se = z[fes.n_u:].reshape(-1, fes.n_ls)
    return (np.einsum("eqia,ei->eqa", grads, z[fes.u_elem]),
            np.einsum("qj,ej->eq", smp.gs_table.T, se))


@pytest.mark.parametrize("d,alpha", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_sample_matches_einsum_reference(d, alpha):
    # interior vertices moved at random, so that no two element maps agree
    mesh = refine_uniform(build_rect_mesh([(0, 1)] * d, 3))
    rng = np.random.default_rng(7)
    verts = mesh.vertices + 0.03 * rng.uniform(-1, 1, mesh.vertices.shape)
    verts[mesh.boundary_vertices] = mesh.vertices[mesh.boundary_vertices]
    mesh = SimplicialMesh(d, verts, mesh.elements, mesh.boundary_vertices)
    fes = build_fe_system(mesh, alpha)
    smp = DSampler(fes, reference_rule(d, 2 * alpha))
    z = rng.standard_normal(fes.total_dim)
    for got, ref in zip(smp.sample(z), einsum_sample(smp, z)):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("d,alpha", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_levels_share_read_only_basis_tables(d, alpha):
    # the basis at the rule's nodes is evaluated once, not once per level
    pr = build_problem(ProblemSpec(p=1.5, alpha=alpha, levels=3, cells0=2,
                                   domain=UNIT_SQUARE if d == 2 else UNIT_INTERVAL))
    first = pr.objectives[0].sampler
    for obj in pr.objectives:
        for name in ("uu_table", "su_table", "ss_table", "gu_table", "gs_table",
                     "uvals"):
            table = getattr(obj.sampler, name)
            assert table is getattr(first, name)
            assert not table.flags.writeable
    # and so are the restriction tables of the Galerkin levels
    for gal in pr.galerkin[:-1]:
        for table, first_table in zip(gal.tables, pr.galerkin[0].tables):
            assert table is first_table and not table.flags.writeable
    nodes = first.rule.nodes
    refg = u_basis_grad(d, alpha, nodes)  # (nq, n_lu, d)
    assert np.array_equal(first.gu_table, refg.transpose(1, 2, 0).reshape(refg.shape[1], -1))
    assert np.array_equal(first.uvals, u_basis(d, alpha, nodes))
    assert np.array_equal(first.gs_table, s_basis(d, alpha, nodes).T)


def dense_reference_tables(d, alpha, nodes):
    """The dense tables that the block tables replaced, kept as their
    reference: hess (P+d+1, nq, nloc, nloc) with features (S, v, r) and grad
    (d+1, nq, nloc) with features (v, r), over all local dofs, u then s."""
    pts = np.array(nodes)
    gr = u_basis_grad(d, alpha, pts).transpose(2, 0, 1)  # (d, nq, n_lu)
    sv = s_basis(d, alpha, pts)
    k, l = np.triu_indices(d)
    (nq, n_lu), n_ls = gr.shape[1:], sv.shape[1]
    P, nloc = len(k), n_lu + n_ls
    uu = gr[k, :, :, None] * gr[l, :, None, :]
    uu[k != l] += np.swapaxes(uu[k != l], 2, 3)
    us = gr[..., None] * sv[:, None, :]
    hess = np.zeros((P + d + 1, nq, nloc, nloc))
    hess[:P, :, :n_lu, :n_lu] = uu
    hess[P:-1, :, :n_lu, n_lu:] = us
    hess[P:-1, :, n_lu:, :n_lu] = np.swapaxes(us, 2, 3)
    hess[-1, :, n_lu:, n_lu:] = sv[:, :, None] * sv[:, None, :]
    grad = np.zeros((d + 1, nq, nloc))
    grad[:d, :, :n_lu] = gr
    grad[d, :, n_lu:] = sv
    return hess, grad


@pytest.mark.parametrize("d,alpha", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_block_tables_are_the_dense_tables(d, alpha):
    # every entry of the dense Hessian and gradient tables, bit for bit, from
    # the u-u, s-u and s-s block tables and the two gradient tables
    nodes = tuple(map(tuple, reference_rule(d, 2 * alpha).nodes))
    hess, grad = dense_reference_tables(d, alpha, nodes)
    (k, _), uu, su, ss, gu, gs, *_ = reference_tables(d, alpha, nodes)
    P, nq, n_lu, n_ls = len(k), len(nodes), gu.shape[0], gs.shape[0]
    iu, ju, _ = sym_entries(n_lu)
    is_, js, _ = sym_entries(n_ls)
    blocks = np.zeros_like(hess)
    uu = uu.T.reshape(P, nq, -1)
    blocks[:P, :, iu, ju] = blocks[:P, :, ju, iu] = uu
    su = su.reshape(n_ls, n_lu, d, nq).transpose(2, 3, 0, 1)
    blocks[P:-1, :, n_lu:, :n_lu] = su
    blocks[P:-1, :, :n_lu, n_lu:] = np.swapaxes(su, 2, 3)
    blocks[-1][:, n_lu + is_, n_lu + js] = blocks[-1][:, n_lu + js, n_lu + is_] = ss.T
    assert np.array_equal(blocks, hess)
    grads = np.zeros_like(grad)
    grads[:d, :, :n_lu] = gu.reshape(n_lu, d, nq).transpose(1, 2, 0)
    grads[d, :, n_lu:] = gs.T
    assert np.array_equal(grads, grad)


def coarse_basis_at(fes_c, parent, x_u, x_s):
    """The coarse local basis of element `parent`, u then s, evaluated by
    pulling the physical points x_u (u nodes) and x_s (s nodes) back into its
    reference element: shape (len(x_u) + len(x_s), nloc_c)."""
    mesh, d, alpha = fes_c.mesh, fes_c.d, fes_c.alpha
    ref_u, ref_s = ((x - mesh.b[parent]) @ mesh.Ainv[parent].T for x in (x_u, x_s))
    u, s = u_basis(d, alpha, ref_u), s_basis(d, alpha, ref_s)
    out = np.zeros((len(u) + len(s), u.shape[1] + s.shape[1]))
    out[:len(u), :u.shape[1]] = u
    out[len(u):, u.shape[1]:] = s
    return out


@pytest.mark.parametrize("cells0", [1, 3])
@pytest.mark.parametrize("d,alpha", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_child_rank_tables_reproduce_prolongation(d, alpha, cells0):
    # under every parent, child rank k's table row is the coarse basis at the
    # child's physical nodes: to roundoff, and exactly 0 where that vanishes
    meshes = [build_rect_mesh([(0, 1)] * d, cells0)]
    for _ in range(2):
        meshes.append(refine_uniform(meshes[-1]))
    fes = [build_fe_system(m, alpha) for m in meshes]
    T = child_prolongation(d, alpha)
    assert not T.flags.writeable
    m = len(CHILDREN[d])
    for lvl in range(len(meshes) - 1):
        fes_c, fes_f = fes[lvl], fes[lvl + 1]
        assert T.shape == (m, fes_f.elem_dofs().shape[1], fes_c.elem_dofs().shape[1])
        assert meshes[lvl + 1].num_elements == m * meshes[lvl].num_elements
        s_nodes = fes_f.mesh.to_physical(s_node_ref(d, alpha))
        # fine element parent * m + rank is child rank of parent
        for parent in range(meshes[lvl].num_elements):
            for rank, child in enumerate(range(parent * m, (parent + 1) * m)):
                ref = coarse_basis_at(fes_c, parent,
                                      fes_f.u_node_coords[fes_f.u_elem[child]],
                                      s_nodes[child])
                assert np.max(np.abs(ref - T[rank])) <= 1e-14
                assert np.array_equal(np.abs(ref) > 1e-14, T[rank] != 0.0)


@pytest.mark.parametrize("d,alpha", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_prolongation_entries_are_exact_table_entries(d, alpha):
    # on cells0 = 3 the coarse vertices are not dyadic, and yet every block of
    # P between a child and its parent is its rank's table, bit for bit
    mesh_c = build_rect_mesh([(0, 1)] * d, 3)
    mesh_f = refine_uniform(mesh_c)
    fes_c, fes_f = build_fe_system(mesh_c, alpha), build_fe_system(mesh_f, alpha)
    P = prolongation(fes_c, fes_f)
    T = child_prolongation(d, alpha)
    dofs_c, dofs_f = fes_c.elem_dofs(), fes_f.elem_dofs()
    free_c = np.isin(dofs_c, fes_c.free_idx())
    fixed_f = ~np.isin(dofs_f, fes_f.free_idx())
    covered = set()
    m = len(CHILDREN[d])
    for parent in range(mesh_c.num_elements):
        for rank, child in enumerate(range(parent * m, (parent + 1) * m)):
            assert np.array_equal(P[dofs_f[child]][:, dofs_c[parent]].toarray(), T[rank])
            rows, cols = np.nonzero(T[rank])
            covered.update(zip(dofs_f[child][rows], dofs_c[parent][cols]))
            # a fixed fine dof meets a free coarse one only in an exact zero,
            # which is why the restriction needs no mask on fixed rows
            assert np.all(T[rank][np.ix_(fixed_f[child], free_c[parent])] == 0.0)
    # every entry of P lies in some child's block, and none is an exact zero
    assert P.nnz == len(covered)
    assert np.all(P.data != 0.0)


def test_galerkin_product_keeps_the_coarse_pattern():
    # P carries no roundoff entries, so P^T H P from the fine level down to
    # the coarsest has exactly the coarsest level's own Hessian pattern
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=3, cells0=3))
    z = pr.refine_iterate(pr.refine_iterate(pr.z0, 0), 1)
    H = full_hessian(pr.fine_objective.grad_hess(z, 1.0)[1])
    P = pr.galerkin[0].P
    coarse = full_hessian(pr.objectives[0].grad_hess(pr.z0, 1.0)[1])
    assert coarse.nnz == 737
    assert (P.T @ H @ P).nnz == coarse.nnz


@pytest.mark.parametrize("alpha", [1, 2])
@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_prolongation_exactness(alpha, seed):
    mesh_c = build_rect_mesh([(0, 1), (0, 1)], 2)
    mesh_f = refine_uniform(mesh_c)
    fes_c = build_fe_system(mesh_c, alpha)
    fes_f = build_fe_system(mesh_f, alpha)
    P = prolongation(fes_c, fes_f)
    rule = reference_rule(2, 2 * alpha)
    smp_c = DSampler(fes_c, rule)
    smp_f = DSampler(fes_f, rule)

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(fes_c.total_dim)
    gc, sc = smp_c.sample(v)
    gf, sf = smp_f.sample(P @ v)
    # compare fine samples against the coarse polynomial at the same points
    err = 0.0
    for e in range(mesh_f.num_elements):
        pe = e // len(CHILDREN[2])
        ref = np.einsum("ab,qb->qa", mesh_c.Ainv[pe], smp_f.xq[e] - mesh_c.b[pe])
        gu = np.einsum("qia,i->qa",
                       np.einsum("ba,qib->qia", mesh_c.Ainv[pe],
                                 u_basis_grad(2, alpha, ref)),
                       v[fes_c.u_elem[pe]])
        sv = s_basis(2, alpha, ref) @ v[fes_c.s_elem()[pe]]
        err = max(err, float(np.max(np.abs(gf[e] - gu))),
                  float(np.max(np.abs(sf[e] - sv))))
    assert err < 1e-12


def test_prolongation_preserves_boundary_structure():
    mesh_c = build_rect_mesh([(0, 1), (0, 1)], 2)
    mesh_f = refine_uniform(mesh_c)
    fes_c = build_fe_system(mesh_c, 2)
    fes_f = build_fe_system(mesh_f, 2)
    P = prolongation(fes_c, fes_f)
    # a coarse function vanishing on the boundary prolongates to one that
    # vanishes at all fine boundary nodes
    v = np.ones(fes_c.total_dim)
    v[np.flatnonzero(fes_c.u_boundary)] = 0.0
    vf = P @ v
    assert np.allclose(vf[np.flatnonzero(fes_f.u_boundary)], 0.0, atol=1e-14)


def test_prolongation_mismatched_alpha_rejected():
    mesh_c = build_rect_mesh([(0, 1), (0, 1)], 2)
    mesh_f = refine_uniform(mesh_c)
    with pytest.raises(ValueError):
        prolongation(build_fe_system(mesh_c, 1), build_fe_system(mesh_f, 2))


# non-dyadic boxes: coarse vertices and element maps carry roundoff
SKEW_BOXES = {1: ((-0.3, 1.7),), 2: ((-0.3, 1.7), (0.1, 0.8))}


def unique_prolongation(fes_c, fes_f):
    """Reference prolongation: the first (element, local dof) of every fine
    dof from np.unique, the parent and child rank of fine element e as
    e // m and e % m, and the CSR matrix from COO triplets (canonical:
    sorted, summed)."""
    mesh_f = fes_f.mesh
    m = len(CHILDREN[mesh_f.d])
    dofs_f = fes_f.elem_dofs()
    rows, first = np.unique(dofs_f, return_index=True)
    elem, loc = np.divmod(first, dofs_f.shape[1])
    vals = child_prolongation(mesh_f.d, fes_f.alpha)[elem % m, loc]
    cols = fes_c.elem_dofs()[elem // m]
    keep = vals != 0.0
    return sp.csr_matrix(
        (vals[keep], (np.broadcast_to(rows[:, None], vals.shape)[keep], cols[keep])),
        shape=(fes_f.total_dim, fes_c.total_dim))


def assert_same_csr(A, B):
    assert A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("d,alpha", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_prolongations_match_the_unique_and_fancy_index_references(d, alpha):
    # on a non-dyadic box up to L = 4: P_full entry for entry as the np.unique
    # construction, and galerkin[L-2].P, the finest pair's free block alone,
    # as scipy's P[np.ix_(free_f, free_c)] of that construction
    pr = build_problem(ProblemSpec(p=1.5, alpha=alpha, levels=4, cells0=3,
                                   domain=SKEW_BOXES[d]))
    for lvl, (lo, hi) in enumerate(zip(pr.objectives, pr.objectives[1:])):
        P = unique_prolongation(lo.fesys, hi.fesys)
        assert_same_csr(pr.P_full[lvl], P)
        assert pr.P_full[lvl].has_canonical_format
    assert_same_csr(pr.galerkin[pr.L - 2].P,
                    P[np.ix_(hi.fesys.free_idx(), lo.fesys.free_idx())].tocsr())


@pytest.mark.parametrize("d", [1, 2])
def test_prolongation_rejects_meshes_that_are_not_nested(d):
    box = [(0.0, 1.0)] * d
    mesh_c = build_rect_mesh(box, 2)
    fes_c = build_fe_system(mesh_c, 2)
    # a box mesh of the fine size, not in refine_uniform's child order
    with pytest.raises(ValueError, match="not a refinement"):
        prolongation(fes_c, build_fe_system(build_rect_mesh(box, 4), 2))
    # the refinement of this coarse mesh with its elements in reverse order,
    # which a check on the child tables' presence once accepted: P then missed
    # the coarse function x by up to 0.75 (1-D) and 1.0 (2-D) at fine u nodes
    fine = refine_uniform(mesh_c)
    reverse = dataclasses.replace(fine, elements=fine.elements[::-1])
    with pytest.raises(ValueError, match="not a refinement"):
        prolongation(fes_c, build_fe_system(reverse, 2))
    # a mesh of the other dimension with m times the coarse elements
    flat = build_rect_mesh([(0.0, 1.0)] * (3 - d), 2 if d == 1 else 16)
    with pytest.raises(ValueError, match="not a refinement"):
        prolongation(fes_c, build_fe_system(flat, 2))
    # the refinement of a different coarse mesh
    other = refine_uniform(build_rect_mesh([(0.0, 2.0)] * d, 2))
    with pytest.raises(ValueError, match="not nested"):
        prolongation(fes_c, build_fe_system(other, 2))
    with pytest.raises(ValueError, match="equal polynomial degree"):
        prolongation(build_fe_system(mesh_c, 1),
                     build_fe_system(refine_uniform(mesh_c), 2))


def test_interpolate_rejects_nonfinite():
    mesh = build_rect_mesh([(0, 1), (0, 1)], 2)
    fes = build_fe_system(mesh, 1)
    with pytest.raises(ValueError):
        interpolate(fes, lambda x, y: np.inf, lambda x, y: 1.0)


def test_dump_solution_format(tmp_path):
    mesh = build_rect_mesh([(0, 1), (0, 1)], 2)
    fes = build_fe_system(mesh, 1)
    z = interpolate(fes, lambda x, y: x + y, lambda x, y: 1.0)
    path = tmp_path / "sol.txt"
    dump_solution(fes, z, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == mesh.num_vertices + mesh.num_elements
    x, y, u = map(float, lines[0].split())
    assert u == pytest.approx(x + y)
