import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from mgbarrier.assembly import LevelObjective, Objective, regularize
from mgbarrier.barrier import PLapBarrier
from mgbarrier.femspace import DSampler, build_fe_system, interpolate
from mgbarrier.mesh import build_rect_mesh
from mgbarrier.problems import UNIT_INTERVAL, UNIT_SQUARE, ProblemSpec, build_problem
from mgbarrier.quadrature import reference_rule


def make_objective(p=1.5, alpha=2, cells=2, forcing=None):
    mesh = build_rect_mesh([(0, 1), (0, 1)], cells)
    fes = build_fe_system(mesh, alpha)
    smp = DSampler(fes, reference_rule(2, 2 * alpha))
    return Objective(fes, smp, PLapBarrier(p=p, d=2), forcing), fes, smp


def feasible_point(fes, margin=2.0):
    z = interpolate(fes, lambda x, y: 0.3 * x * y + 0.1 * x,
                    lambda x, y: margin + x)
    return z


def test_regularize_formula_exact():
    H = sp.csr_matrix(np.array([[4.0, -1.0], [-1.0, 3.0]]))
    R = regularize(H).toarray()
    norm_inf = 5.0  # max absolute row sum
    expected = H.toarray() + 1e-15 * norm_inf * np.eye(2)
    assert np.array_equal(R, expected)


def test_regularize_zero_matrix():
    H = sp.csr_matrix((3, 3))
    assert regularize(H).nnz == 0


def test_cost_integral_is_volume_of_slack():
    # with f = 0, int c[z] = int s; constant slack 2 integrates to 2|Omega|
    obj, fes, smp = make_objective()
    z = interpolate(fes, lambda x, y: 0.0, lambda x, y: 2.0)
    assert obj.cost_integral(z) == pytest.approx(2.0, rel=1e-12)


def test_cost_integral_with_forcing():
    # f = 1: int c[z] = int u + int s; u = x integrates to 1/2
    obj, fes, smp = make_objective(forcing=lambda x, y: 1.0)
    z = interpolate(fes, lambda x, y: x, lambda x, y: 3.0)
    assert obj.cost_integral(z) == pytest.approx(0.5 + 3.0, rel=1e-12)


def test_value_matches_direct_sum():
    obj, fes, smp = make_objective(p=2.0)
    z = feasible_point(fes)
    t = 4.0
    grad_u, s_val = smp.sample(z)
    F = obj.barrier.value(grad_u.reshape(-1, 2), s_val.ravel()).reshape(s_val.shape)
    expected = t * obj.cost_integral(z) + float(np.sum(smp.wq * F))
    assert obj.value(z, t) == pytest.approx(expected, rel=1e-13)


def test_value_infinite_when_infeasible():
    obj, fes, smp = make_objective()
    z = interpolate(fes, lambda x, y: 0.0, lambda x, y: -1.0)
    assert obj.value(z, 1.0) == np.inf
    assert not obj.feasible(z)
    with pytest.raises(ValueError):
        obj.grad_hess(z, 1.0)


@pytest.mark.parametrize("s", [-1.0, 0.0, 1e-3], ids=["negative", "zero", "small"])
def test_grad_hess_at_infeasible_point_raises_without_warning(s):
    # s <= 0 fails before any power of s is taken; s = 1e-3 under |grad u| ~ 1
    # fails on the gap
    obj, fes, smp = make_objective()
    z = interpolate(fes, lambda x, y: x + y, lambda x, y: s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            obj.grad_hess(z, 1.0)


def test_grad_hess_finite_differences():
    obj, fes, smp = make_objective(p=1.5, cells=2)
    z = feasible_point(fes)
    t = 2.0
    g, H = obj.grad_hess(z, t)
    free = obj.free_idx()
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(8):
        k = rng.integers(len(free))
        zp, zm = z.copy(), z.copy()
        zp[free[k]] += h
        zm[free[k]] -= h
        fd = (obj.value(zp, t) - obj.value(zm, t)) / (2 * h)
        assert g[k] == pytest.approx(fd, rel=2e-5, abs=1e-7)
        gp, _ = obj.grad_hess(zp, t)
        gm, _ = obj.grad_hess(zm, t)
        fd_col = (gp - gm) / (2 * h)
        assert np.allclose(H.toarray()[:, k], fd_col, rtol=1e-4, atol=1e-5)


def test_hessian_symmetric_positive_definite():
    obj, fes, smp = make_objective(p=3.0)
    z = feasible_point(fes)
    _, H = obj.grad_hess(z, 1.0)
    Hd = H.toarray()
    assert np.allclose(Hd, Hd.T, atol=1e-12)
    w = np.linalg.eigvalsh(Hd)
    assert np.all(w > 0)


def test_embed_free_roundtrip():
    obj, fes, smp = make_objective()
    y = np.arange(len(obj.free_idx()), dtype=float)
    z = obj.embed_free(y)
    assert np.array_equal(z[obj.free_idx()], y)
    fixed = np.setdiff1d(np.arange(obj.n), obj.free_idx())
    assert np.all(z[fixed] == 0.0)


def test_level_objective_galerkin_restriction(small_problem):
    pr = small_problem
    obj = pr.fine_objective
    z_base = pr.refine_iterate(pr.z0, 0)
    P = pr.P_free_to_fine[0]
    lvl = LevelObjective(obj, z_base, P)
    assert lvl.dim == P.shape[1]

    y = np.zeros(lvl.dim)
    t = 1.0
    g, H = lvl.grad_hess(y, t)
    gf, Hf = obj.grad_hess(z_base, t)
    assert np.allclose(g, P.T @ gf, atol=1e-12)
    assert np.allclose(H.toarray(), (P.T @ Hf @ P).toarray(), atol=1e-12)
    # full_point maps coordinates back into the affine subspace
    rng = np.random.default_rng(0)
    yr = 1e-3 * rng.standard_normal(lvl.dim)
    zf = lvl.full_point(yr)
    assert np.allclose(zf - z_base, obj.embed_free(P @ yr), atol=1e-15)


def test_fine_level_objective_is_identity(small_problem):
    pr = small_problem
    obj = pr.fine_objective
    z_base = pr.refine_iterate(pr.z0, 0)
    lvl = LevelObjective(obj, z_base, None)
    assert lvl.dim == len(obj.free_idx())
    assert lvl.value(np.zeros(lvl.dim), 2.0) == pytest.approx(obj.value(z_base, 2.0))


def reference_grad_hess(obj, z, t):
    """Element einsums, COO->CSR and an np.ix_ free-dof slice: the assembly
    that Objective.grad_hess replaced, kept as its reference."""
    fes, smp = obj.fesys, obj.sampler
    d = fes.d
    grad_u, s_val = smp.sample(z)
    _, G, H = obj.barrier.value_grad_hess(grad_u.reshape(-1, d), s_val.ravel())
    ne, nq = smp.wq.shape
    G = G.reshape(ne, nq, d + 1)
    H = H.reshape(ne, nq, d + 1, d + 1)
    w = smp.wq

    g = t * obj.cost_vector.copy()
    np.add.at(g, fes.u_elem, np.einsum("eq,eqa,eqia->ei", w, G[..., :d], smp.grads))
    np.add.at(g, fes.s_elem(), np.einsum("eq,eq,qj->ej", w, G[..., d], smp.svals))

    n_lu = fes.u_elem.shape[1]
    nloc = n_lu + fes.n_ls
    hloc = np.zeros((ne, nloc, nloc))
    hloc[:, :n_lu, :n_lu] = np.einsum("eq,eqia,eqab,eqjb->eij",
                                      w, smp.grads, H[..., :d, :d], smp.grads)
    hus = np.einsum("eq,eqia,eqa,qj->eij", w, smp.grads, H[..., :d, d], smp.svals)
    hloc[:, :n_lu, n_lu:] = hus
    hloc[:, n_lu:, :n_lu] = np.swapaxes(hus, 1, 2)
    hloc[:, n_lu:, n_lu:] = np.einsum("eq,eq,qi,qj->eij",
                                      w, H[..., d, d], smp.svals, smp.svals)
    loc = np.concatenate([fes.u_elem, fes.s_elem()], axis=1)
    rows = np.repeat(loc, nloc, axis=1).ravel()
    cols = np.tile(loc, (1, nloc)).ravel()
    Hmat = sp.csr_matrix((hloc.ravel(), (rows, cols)), shape=(obj.n, obj.n))
    free = obj.free_idx()
    return g[free], Hmat[np.ix_(free, free)].tocsr()


def assert_close(a, b, rtol=1e-14):
    if sp.issparse(a):
        a, b = a.toarray(), b.toarray()
    assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_SQUARE], ids=["1d", "2d"])
@pytest.mark.parametrize("alpha", [1, 2])
def test_fixed_pattern_assembly_matches_reference(domain, alpha):
    pr = build_problem(ProblemSpec(p=1.5, alpha=alpha, levels=2, cells0=2,
                                   domain=domain, forcing=lambda *x: 1.0 + x[0]))
    obj, z, t = pr.fine_objective, pr.refine_iterate(pr.z0, 0), 3.0
    g, H = obj.grad_hess(z, t)
    g_ref, H_ref = reference_grad_hess(obj, z, t)
    assert_close(g, g_ref)
    assert_close(H, H_ref)
    # same sparsity pattern, explicit zeros included
    H_ref.sort_indices()
    assert np.array_equal(H.indptr, H_ref.indptr)
    assert np.array_equal(H.indices, H_ref.indices)
    # the Galerkin restriction P^T H P to the coarse level
    P = pr.P_free_to_fine[0]
    gc, Hc = LevelObjective(obj, z, P).grad_hess(np.zeros(P.shape[1]), t)
    assert_close(gc, P.T @ g_ref)
    assert_close(Hc, P.T @ H_ref @ P)
