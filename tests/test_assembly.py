import copy
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from mgbarrier.assembly import (LevelObjective, Objective, Stage, compress, condense,
                                substitute)
from mgbarrier.barrier import PLapBarrier
from mgbarrier.femspace import DSampler, build_fe_system, sym_entries, u_basis_grad
from mgbarrier.mesh import CHILDREN, build_rect_mesh
from mgbarrier.newton import CONVERGED, DecrementFailure, center, newton_decrement, regularize
from mgbarrier.pathfollow import PathConfig, run_mgb
from mgbarrier.problems import UNIT_INTERVAL, UNIT_SQUARE, ProblemSpec, build_problem
from mgbarrier.quadrature import reference_rule

from hessians import full_hessian, splu_order
from interpolation import interpolate


def make_objective(p=1.5, alpha=2, cells=2, forcing=None):
    mesh = build_rect_mesh([(0, 1), (0, 1)], cells)
    fes = build_fe_system(mesh, alpha)
    smp = DSampler(fes, reference_rule(2, 2 * alpha))
    return Objective(fes, smp, PLapBarrier(p=p, d=2), forcing), fes, smp


def feasible_point(fes, margin=2.0):
    z = interpolate(fes, lambda x, y: 0.3 * x * y + 0.1 * x,
                    lambda x, y: margin + x)
    return z


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
    assert not np.all(obj.margin(z) > 0.0)
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
        assert np.allclose(full_hessian(H).toarray()[:, k], fd_col, rtol=1e-4, atol=1e-5)


def test_hessian_symmetric_positive_definite():
    obj, fes, smp = make_objective(p=3.0)
    z = feasible_point(fes)
    _, H = obj.grad_hess(z, 1.0)
    Hd = full_hessian(H).toarray()
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
    P = pr.galerkin[0].P
    lvl = LevelObjective(obj, z_base, pr.galerkin[0])
    assert lvl.P is P and lvl.dim == P.shape[1]

    y = np.zeros(lvl.dim)
    t = 1.0
    g, H = lvl.grad_hess(y, t)
    gf, Hf = obj.grad_hess(z_base, t)
    assert np.allclose(g, P.T @ gf, atol=1e-12)
    assert np.allclose(full_hessian(H).toarray(),
                       (P.T @ full_hessian(Hf) @ P).toarray(), atol=1e-12)
    # full_point maps coordinates back into the affine subspace
    rng = np.random.default_rng(0)
    yr = 1e-3 * rng.standard_normal(lvl.dim)
    zf = lvl.full_point(yr)
    assert np.allclose(zf - z_base, obj.embed_free(P @ yr), atol=1e-15)


def test_accepted_trial_forms_its_point_once(small_problem):
    # On a Galerkin level every trial point is base + P y, one product with
    # P; the Hessian at an accepted trial reuses the trial's point, read-only,
    # since a sweep hands the last one on as the next level's base
    pr = small_problem
    obj = pr.fine_objective
    lvl = LevelObjective(obj, pr.refine_iterate(pr.z0, 0), pr.galerkin[0])
    products, calls = [], {"value": 0, "grad_hess": 0}

    class CountedP:
        shape = lvl.P.shape

        def __matmul__(self, y, P=lvl.P):
            products.append(y)
            return P @ y

    def counted(name):
        method = getattr(lvl, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    lvl.P = CountedP()
    lvl.value, lvl.grad_hess = counted("value"), counted("grad_hess")
    res = center(lvl, np.zeros(lvl.dim), 1.0)
    assert res.status == CONVERGED and res.iterations >= 2
    assert calls["grad_hess"] == res.iterations + 1
    assert len(products) == calls["value"]
    z = lvl.full_point(res.y.copy())
    assert len(products) == calls["value"] and not z.flags.writeable
    with pytest.raises(ValueError):
        z[0] = 0.0


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
    grads = np.einsum("eba,qib->eqia", fes.mesh.Ainv,
                      u_basis_grad(d, fes.alpha, smp.rule.nodes))
    grad_u, s_val = smp.sample(z)
    _, G, H = obj.barrier.value_grad_hess(grad_u.reshape(-1, d), s_val.ravel())
    ne, nq = smp.wq.shape
    G = G.reshape(ne, nq, d + 1)
    H = H.reshape(ne, nq, d + 1, d + 1)
    w = smp.wq

    g = t * obj.cost_vector.copy()
    np.add.at(g, fes.u_elem, np.einsum("eq,eqa,eqia->ei", w, G[..., :d], grads))
    np.add.at(g, fes.s_elem(), np.einsum("eq,eq,qj->ej", w, G[..., d], smp.gs_table.T))

    n_lu = fes.u_elem.shape[1]
    nloc = n_lu + fes.n_ls
    hloc = np.zeros((ne, nloc, nloc))
    hloc[:, :n_lu, :n_lu] = np.einsum("eq,eqia,eqab,eqjb->eij",
                                      w, grads, H[..., :d, :d], grads)
    hus = np.einsum("eq,eqia,eqa,qj->eij", w, grads, H[..., :d, d], smp.gs_table.T)
    hloc[:, :n_lu, n_lu:] = hus
    hloc[:, n_lu:, :n_lu] = np.swapaxes(hus, 1, 2)
    hloc[:, n_lu:, n_lu:] = np.einsum("eq,eq,qi,qj->eij",
                                      w, H[..., d, d], smp.gs_table.T, smp.gs_table.T)
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
    assert_close(full_hessian(H), H_ref)
    # S has the sparsity pattern of the free u-u block, explicit zeros included
    nu = H.S.shape[0]
    H_uu = H_ref[:nu, :nu]
    H_uu.sort_indices()
    assert np.array_equal(H.S.indptr, H_uu.indptr)
    assert np.array_equal(H.S.indices, H_uu.indices)
    # the Galerkin restriction P^T H P to the coarse level
    P = pr.galerkin[0].P
    gc, Hc = LevelObjective(obj, z, pr.galerkin[0]).grad_hess(np.zeros(P.shape[1]), t)
    assert_close(gc, P.T @ g_ref)
    assert_close(full_hessian(Hc), P.T @ H_ref @ P)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_SQUARE], ids=["1d", "2d"])
@pytest.mark.parametrize("alpha", [1, 2])
def test_cost_vector_matches_add_at_reference(domain, alpha):
    f = lambda *x: 1.0 + x[0] * x[-1]  # noqa: E731
    pr = build_problem(ProblemSpec(p=1.5, alpha=alpha, levels=2, cells0=3,
                                   domain=domain, forcing=f))
    obj = pr.fine_objective
    fes, smp = obj.fesys, obj.sampler
    # int f phi_i and int psi_j per element, summed into the u and s dofs
    fw = smp.wq * np.apply_along_axis(lambda x: f(*x), 2, smp.xq)
    c = np.zeros(fes.total_dim)
    np.add.at(c, fes.u_elem, np.einsum("eq,qi->ei", fw, smp.uvals))
    np.add.at(c, fes.s_elem(), np.einsum("eq,qj->ej", smp.wq, smp.gs_table.T))
    assert_close(obj.cost_vector, c)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_SQUARE], ids=["1d", "2d"])
@pytest.mark.parametrize("alpha", [1, 2])
def test_element_blocks_match_reference_at_a_late_center(domain, alpha):
    # at a center with t = 1e6 the gap is ~1/t, where a reformulation of the
    # barrier terms loses digits first; t = 0 leaves the barrier part alone
    pr = build_problem(ProblemSpec(p=1.5, alpha=alpha, levels=2, cells0=2, domain=domain))
    tr = run_mgb(pr, PathConfig(t_cap=1e6, c_stp=1e9))
    assert tr.status == "converged" and tr.t_final == 1e6
    obj, z = pr.fine_objective, tr.z_final
    assert np.min(obj.margin(z)) < 1e-5
    g, H = obj.assemble(*obj.element_blocks(z), np.zeros(len(obj.free_idx())))
    g_ref, H_ref = reference_grad_hess(obj, z, 0.0)
    assert_close(g, g_ref)
    assert_close(full_hessian(H), H_ref)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_SQUARE], ids=["1d", "2d"])
def test_element_blocks_raise_where_value_is_infinite(domain):
    # scale the slack down to the domain boundary: at the largest scale where
    # value is +inf, a node sits at most roundoff outside
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=1, cells0=2, domain=domain))
    obj, n_u = pr.fine_objective, pr.fine_fesys.n_u

    def scaled(x):
        z = pr.z0.copy()
        z[n_u:] *= x
        return z

    out, inside = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (out + inside)
        if obj.value(scaled(mid), 1.0) == np.inf:
            out = mid
        else:
            inside = mid
    assert 0.0 < out < inside and obj.value(scaled(out), 1.0) == np.inf
    with pytest.raises(ValueError):
        obj.element_blocks(scaled(out))
    assert all(np.isfinite(x).all() for x in obj.element_blocks(scaled(inside)))
    # an infinite slack: the gap overflows and F = -inf, so value is +inf
    z = pr.z0.copy()
    z[n_u] = np.inf
    assert obj.value(z, 1.0) == np.inf
    with pytest.raises(ValueError):
        obj.element_blocks(z)


@pytest.mark.parametrize("cells0", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_SQUARE], ids=["1d", "2d"])
def test_element_restriction_equals_galerkin_product(domain, alpha, cells0):
    """Every coarse level of three: element blocks restricted through the
    hierarchy give P^T g and P^T H P, scattered into the level's own pattern."""
    pr = build_problem(ProblemSpec(p=1.5, alpha=alpha, levels=3, cells0=cells0,
                                   domain=domain, forcing=lambda *x: 1.0 + x[0]))
    obj, t = pr.fine_objective, 3.0
    zs = [pr.z0]  # the initial iterate on every level
    for lvl in range(pr.L - 1):
        zs.append(pr.refine_iterate(zs[-1], lvl))
    g, H = obj.grad_hess(zs[-1], t)
    for lvl in range(pr.L - 1):
        P = pr.galerkin[lvl].P
        gc, Hc = LevelObjective(obj, zs[-1], pr.galerkin[lvl]).grad_hess(
            np.zeros(P.shape[1]), t)
        assert_close(gc, P.T @ g)
        assert_close(full_hessian(Hc), P.T @ full_hessian(H) @ P)
        # the level's own Schur complement pattern, so that its recorded
        # ordering applies
        _, H_own = pr.objectives[lvl].grad_hess(zs[lvl], t)
        assert np.array_equal(Hc.S.indptr, H_own.S.indptr)
        assert np.array_equal(Hc.S.indices, H_own.S.indices)


def as_blocks(H, n_ls):
    """Dense element Hessians (ne, nloc, nloc), u then slack, as the
    (uu, su, ss) blocks of condense."""
    n_lu = H.shape[1] - n_ls
    iu, ju, _ = sym_entries(n_lu)
    is_, js, _ = sym_entries(n_ls)
    return (H[:, iu, ju].T, H[:, n_lu:, :n_lu].reshape(len(H), -1).T,
            H[:, n_lu + is_, n_lu + js].T)


@pytest.mark.parametrize("n_ls", [1, 2, 3])
def test_condense_matches_dense_schur_complement(n_ls):
    rng = np.random.default_rng(n_ls)
    n_lu, ne = 6, 5
    M = rng.standard_normal((ne, n_lu + n_ls, 2 * (n_lu + n_ls)))
    H = M @ M.transpose(0, 2, 1)
    S, L, W = condense(*as_blocks(H, n_ls), n_ls)
    H_uu, H_us, H_ss = H[:, :n_lu, :n_lu], H[:, :n_lu, n_lu:], H[:, n_lu:, n_lu:]
    ref = H_uu - H_us @ np.linalg.solve(H_ss, np.swapaxes(H_us, 1, 2))
    iu, ju, _ = sym_entries(n_lu)
    assert_close(S, ref[:, iu, ju].T, rtol=1e-13)
    # L L^T = H_ss and L W = H_su, with L's entry (i, j), i >= j, at (i, j)
    is_, js, _ = sym_entries(n_ls)
    L_ref = np.linalg.cholesky(H_ss)
    assert_close(L, L_ref[:, js, is_].T, rtol=1e-13)
    assert_close(W, np.linalg.solve(L_ref, np.swapaxes(H_us, 1, 2)).transpose(1, 2, 0),
                 rtol=1e-13)


def stacked_schur(uu, W):
    """uu - sum_j W_j^T W_j on the distinct entries by the stacked-gather
    formula: every slack row's products gathered into one stacked array,
    then subtracted row by row."""
    iu, ju, _ = sym_entries(W.shape[1])
    WW = np.take(W, iu, axis=1)
    WW *= np.take(W, ju, axis=1)
    S = uu - WW[0]
    for j in range(1, len(W)):
        S -= WW[j]
    return S


@pytest.mark.parametrize("n_ls, n_lu, interior", [(1, 6, False), (3, 6, False), (3, 12, True)],
                         ids=["n_ls=1", "n_ls=3", "interior"])
def test_condense_subtracts_each_slack_row(n_ls, n_lu, interior):
    # S_K = H_uu,K - W_K^T W_K, element by element; the interior stage
    # (newton.regularize) condenses 3 interior dofs onto 12 boundary dofs
    # with a zero u-u block, passed as the scalar 0.0
    rng = np.random.default_rng(n_ls + n_lu)
    ne = 5
    M = rng.standard_normal((ne, n_lu + n_ls, 2 * (n_lu + n_ls)))
    H = M @ M.transpose(0, 2, 1)
    uu, su, ss = as_blocks(H, n_ls)
    if interior:
        uu = 0.0
    S, _, W = condense(uu, su, ss, n_ls)
    iu, ju, _ = sym_entries(n_lu)
    for e in range(ne):
        H_uu = 0.0 if interior else H[e, :n_lu, :n_lu]
        assert_close(S[:, e], (H_uu - W[:, :, e].T @ W[:, :, e])[iu, ju], rtol=1e-13)
    assert np.array_equal(S, stacked_schur(uu, W))


def row_by_row_condense(uu, su, ss, n_ls):
    """condense by its earlier formula: the Cholesky of every slack block row
    by row, each row of L_K a forward substitution with the rows above it,
    then W_K by another, then S_K one slack row at a time."""

    def forward(L, at, x):
        for j in range(len(x)):
            for k in range(j):
                x[j] -= L[at[j, k]] * x[k]
            x[j] /= L[at[j, j]]
        return x

    n_lu, ne = len(su) // n_ls, su.shape[1]
    iu, ju, _ = sym_entries(n_lu)
    _, _, at = sym_entries(n_ls)
    L = np.full(ss.shape, np.nan)
    for j in range(n_ls):
        row = forward(L, at, ss[at[j, :j]])
        piv = ss[at[j, j]]
        for ljk in row:
            piv = piv - ljk * ljk
        L[at[j, :j]] = row
        np.sqrt(piv, out=L[at[j, j]], where=piv > 0)
    W = forward(L, at, su.reshape(n_ls, n_lu, ne).copy())
    S = uu - W[0, iu] * W[0, ju]
    for Wj in W[1:]:
        S -= Wj[iu] * Wj[ju]
    return S, L, W


def assert_same_bits(a, b):
    """a and b hold the same float64 bit patterns, NaN for NaN."""
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


@pytest.mark.parametrize("ne", [1, 32, 2048])
@pytest.mark.parametrize("n_ls, n_lu, interior", [(1, 6, False), (3, 6, False), (3, 12, True)],
                         ids=["n_ls=1", "n_ls=3", "interior"])
def test_condense_is_bitwise_the_row_by_row_formula(n_ls, n_lu, interior, ne):
    # the column-by-column Cholesky does every entry's operations in the
    # row-by-row order, so S, L and W keep every bit, and a block that is
    # not positive definite keeps its NaN marks: with ne > 1 the last
    # element's last pivot is negative and a middle one's first is 0, so
    # one block is NaN from its last row on and one throughout
    rng = np.random.default_rng(n_ls * ne + n_lu)
    M = rng.standard_normal((ne, n_lu + n_ls, 2 * (n_lu + n_ls)))
    uu, su, ss = as_blocks(M @ M.transpose(0, 2, 1), n_ls)
    uu, su, ss = (np.ascontiguousarray(x) for x in (uu, su, ss))
    if interior:
        uu = 0.0
    if ne > 1:
        ss[n_ls - 1, -1] = -1.0
        ss[0, ne // 2] = 0.0
    new, ref = condense(uu, su, ss, n_ls), row_by_row_condense(uu, su, ss, n_ls)
    for a, b in zip(new, ref):
        assert_same_bits(a, b)
    if ne > 1:
        S, L, W = new
        assert np.isfinite(L[:, 0]).all() and np.isnan(L[:, ne // 2]).all()
        assert np.isnan(L[n_ls - 1, -1]) and np.isfinite(W[:n_ls - 1, :, -1]).all()
        assert np.isnan(S[:, [ne // 2, -1]]).all()


def stage_system(n_l, nu, gathered, seed):
    """(stage, A): a Stage of ne = 4 random SPD blocks of n_l unknowns, each
    coupled to 3 of nu leading unknowns, one of them fixed (slot nu) on every
    other block, eliminated by condense with a zero leading block, as
    newton.regularize does; and the dense SPD system it stands for, in its
    own numbering (a random gather, if gathered). n_l = 0: no blocks."""
    rng = np.random.default_rng(seed)
    ne, n_lu = (4, 3) if n_l else (0, 0)
    n = nu + ne * n_l
    B = rng.standard_normal((nu, 2 * nu))
    A = np.zeros((n, n))
    A[:nu, :nu] = B @ B.T
    L, W = np.zeros((0, 0)), np.zeros((0, 0, 0))
    uslot = np.zeros((n_lu, ne), dtype=np.intp)
    if n_l:
        M = rng.standard_normal((ne, n_lu + n_l, 2 * (n_lu + n_l)))
        H = M @ M.transpose(0, 2, 1)
        _, su, ss = as_blocks(H, n_l)
        _, L, W = condense(0.0, su, ss, n_l)
        uslot = np.array([rng.choice(nu, n_lu, replace=False) for _ in range(ne)]).T
        uslot[0, ::2] = nu
        for e in range(ne):
            # the block's rows and columns, a fixed leading unknown dropped
            loc = np.r_[uslot[:, e], nu + e * n_l + np.arange(n_l)]
            keep = np.r_[uslot[:, e] < nu, np.ones(n_l, dtype=bool)]
            A[np.ix_(loc[keep], loc[keep])] += H[e][np.ix_(keep, keep)]
    gather = rng.permutation(n) if gathered else None
    if gathered:
        A[np.ix_(gather, gather)] = A.copy()
    return Stage(L, W, uslot, gather), A


@pytest.mark.parametrize("n_l, nu, gathered",
                         [(1, 7, False), (3, 7, False), (1, 7, True), (3, 7, True),
                          (0, 5, True), (0, 0, True)],
                         ids=["n_l=1", "n_l=3", "n_l=1-gather", "n_l=3-gather",
                              "no-blocks", "0x0"])
def test_stage_solves_its_block_system(n_l, nu, gathered):
    # Stage.solve against a dense solve of the block system it stands for,
    # with a dense solve of the leading unknowns' Schur complement as inner.
    # No blocks with a gather is the interior stage of every coarsest level.
    stage, A = stage_system(n_l, nu, gathered, seed=n_l + nu)
    order = np.arange(len(A)) if stage.gather is None else stage.gather
    Ag = A[np.ix_(order, order)]
    C = Ag[:nu, :nu] - Ag[:nu, nu:] @ np.linalg.solve(Ag[nu:, nu:], Ag[nu:, :nu])
    b = np.random.default_rng(1).standard_normal(len(A))
    x = stage.solve(b, lambda r: np.linalg.solve(C, r))
    assert x.shape == b.shape
    assert_close(x, np.linalg.solve(A, b), rtol=1e-12)


def test_stage_names_its_first_bad_block():
    # condense marks a block that is not positive definite with NaN in its
    # L; first_bad names the first such block, and None when there is none
    stage, _ = stage_system(3, 7, False, seed=0)
    assert stage.first_bad() is None
    assert stage_system(0, 5, True, seed=0)[0].first_bad() is None
    for bad in ([2], [1, 3]):
        L = stage.L.copy()
        L[-1, bad] = np.nan
        assert Stage(L, stage.W, stage.uslot).first_bad() == bad[0]


def test_assembled_s_shares_a_read_only_pattern(small_problem):
    # every S that a level assembles stands on the level's own index arrays,
    # so none may be written in place
    obj = small_problem.objectives[0]
    _, H = obj.grad_hess(small_problem.z0, 1.0)
    _, H2 = obj.grad_hess(small_problem.z0, 2.0)
    assert np.shares_memory(H.S.indices, H2.S.indices)
    assert np.shares_memory(H.S.indptr, H2.S.indptr)
    with pytest.raises(ValueError, match="read-only"):
        H.S.indices[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        H.S.indptr[-1] = 0


def hessian_arrays(obj, z):
    g, H = obj.grad_hess(z, 2.0)
    return g, H.S.data, H.slack.L, H.slack.W


# every method that evaluates an Objective at a point, its result as arrays
EVALUATIONS = {
    "value": lambda obj, z: (np.float64(obj.value(z, 2.0)),),
    "margin": lambda obj, z: (obj.margin(z),),
    "element_blocks": lambda obj, z: obj.element_blocks(z),
    "grad_hess": hessian_arrays,
}


@pytest.mark.parametrize("order", list(itertools.permutations(EVALUATIONS)),
                         ids="-".join)
def test_record_answers_as_a_fresh_objective(order):
    # the record of the last point evaluated serves every method bit for
    # bit, whichever filled it, in any order and on a repeat
    z = feasible_point(make_objective()[1])
    fresh = {name: f(make_objective()[0], z) for name, f in EVALUATIONS.items()}
    obj = make_objective()[0]
    for name in order + order:
        got = EVALUATIONS[name](obj, z)
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh[name], strict=True)), name


def counted_samples(monkeypatch, sampler):
    """The points at which sampler samples Dz from now on."""
    points, sample = [], DSampler.sample

    def logged(self, z):
        if self is sampler:
            points.append(z.copy())
        return sample(self, z)

    monkeypatch.setattr(DSampler, "sample", logged)
    return points


def test_record_misses_another_point_and_a_changed_array(monkeypatch):
    # matched by content: an equal copy hits, another point or the caller's
    # own array changed in place misses, and the record has one slot
    obj, fes, smp = make_objective()
    samples = counted_samples(monkeypatch, smp)
    z, z2 = feasible_point(fes), feasible_point(fes, margin=3.0)
    v, blocks = obj.value(z, 2.0), obj.element_blocks(z)
    assert obj.value(z.copy(), 2.0) == v and obj.element_blocks(z.copy()) is blocks
    assert len(samples) == 1
    assert obj.value(z2, 2.0) == make_objective()[0].value(z2, 2.0) != v
    assert obj.value(z, 2.0) == v and obj.element_blocks(z) is not blocks
    assert len(samples) == 3
    z[fes.n_u] += 0.5  # the first element's first slack dof
    assert obj.value(z, 2.0) == make_objective()[0].value(z, 2.0) != v
    assert len(samples) == 4 and np.array_equal(samples[-1], z)


def test_grad_hess_empties_the_record(monkeypatch):
    # nothing of the point lives on with the Hessian: the next evaluation
    # there samples Dz again
    obj, fes, smp = make_objective()
    obj.factor_plan  # built, as by a level's first Hessian
    samples = counted_samples(monkeypatch, smp)
    z = feasible_point(fes)
    obj.value(z, 2.0)
    blocks = obj.element_blocks(z)
    obj.grad_hess(z, 2.0)
    assert len(samples) == 1
    assert obj.element_blocks(z) is not blocks and len(samples) == 2


def test_record_hands_out_read_only_blocks():
    obj, fes, _ = make_objective()
    for x in obj.element_blocks(feasible_point(fes)):
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 0.0


def packed_factor(rng, n_ls, ne):
    """Dense lower-triangular L_K (ne, n_ls, n_ls), well conditioned, and
    their entries packed as condense lays them out."""
    L = np.tril(0.5 * rng.standard_normal((ne, n_ls, n_ls)), -1)
    L[:, range(n_ls), range(n_ls)] = 1.0 + rng.random((ne, n_ls))
    is_, js, at = sym_entries(n_ls)
    return L, np.ascontiguousarray(L[:, js, is_].T), at


@pytest.mark.parametrize("transpose", [False, True], ids=["forward", "back"])
@pytest.mark.parametrize("middle", [(), (6,)], ids=["vector", "W-shaped"])
@pytest.mark.parametrize("n_ls", [1, 2, 3])
def test_substitute_matches_solve_triangular(n_ls, middle, transpose):
    rng = np.random.default_rng(n_ls)
    ne = 5
    L_dense, L, at = packed_factor(rng, n_ls, ne)
    x = rng.standard_normal((n_ls, *middle, ne))
    b = x.copy()
    assert substitute(L, at, x, transpose) is x
    for e in range(ne):
        ref = sla.solve_triangular(L_dense[e], b[..., e].reshape(n_ls, -1), lower=True,
                                   trans="T" if transpose else "N")
        assert_close(x[..., e].reshape(n_ls, -1), ref, rtol=1e-13)


@pytest.mark.parametrize("transpose", [False, True], ids=["forward", "back"])
def test_substitute_carries_nan_diagonal_into_later_rows(transpose):
    # a NaN pivot in row 1 of element 2: forward, rows 1 and 2 of that
    # element turn NaN; back, rows 1 and 0; nothing else does, and no
    # floating-point warning is raised
    rng = np.random.default_rng(7)
    _, L, at = packed_factor(rng, 3, 4)
    L[at[1, 1], 2] = np.nan
    x = rng.standard_normal((3, 6, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        substitute(L, at, x, transpose)
    later = [0, 1] if transpose else [1, 2]
    nan = np.zeros(x.shape, dtype=bool)
    nan[later, :, 2] = True
    assert np.array_equal(np.isnan(x), nan)


def test_rank_one_slack_block_is_marked_and_named(small_problem):
    # a positive semidefinite slack block of rank one: its second pivot is
    # exactly 0, so that element's L is NaN-marked, without a warning, and a
    # decrement names it; no other element is marked
    obj = small_problem.objectives[0]
    g, uu, su, ss = obj.element_blocks(small_problem.z0)
    i, j, _ = sym_entries(obj.fesys.n_ls)
    v = np.array([1.0, 2.0, 3.0])
    ss = ss.copy()
    ss[:, 4] = v[i] * v[j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, H = obj.assemble(g, uu, su, ss, np.zeros(len(obj.free_idx())))
        assert H.slack.first_bad() is not None
        assert np.array_equal(np.flatnonzero(np.isnan(H.slack.L).any(axis=0)), [4])
        with pytest.raises(DecrementFailure, match="^slack block not SPD, element 4$"):
            newton_decrement(g, H)


@pytest.mark.parametrize("domain, alpha, n_inside", [
    (UNIT_SQUARE, 2, 3), (UNIT_SQUARE, 1, 0), (UNIT_INTERVAL, 2, 3), (UNIT_INTERVAL, 1, 1)],
    ids=["2d-a2", "2d-a1", "1d-a2", "1d-a1"])
def test_parent_dofs_lie_inside_one_parent(domain, alpha, n_inside):
    # The u dofs that the solver eliminates parent by parent: on every
    # refined level, n_inside per parent, each with all its elements among
    # one parent's children and none shared; the other free u dofs of the
    # children are the parent's boundary. S's block on them is
    # block-diagonal by parent. The coarsest level has no parents, and 2-D
    # alpha = 1 no dof inside one. A level's Galerkin system carries the
    # level's own plan.
    pr = build_problem(ProblemSpec(p=1.5, alpha=alpha, levels=3, cells0=2, domain=domain))
    assert pr.objectives[0].parent_dofs is None
    points = [pr.z0]
    for lvl in range(pr.L - 1):
        points.append(pr.refine_iterate(points[-1], lvl))
    blocks = pr.fine_objective.element_blocks(points[-1])
    for obj, gal, z in zip(pr.objectives[1:], pr.galerkin[1:], points[1:]):
        H = obj.grad_hess(z, 1.0)[1]
        assert H.plan is obj.factor_plan
        if gal is not None:
            assert gal.restrict(*blocks, 1.0)[1].plan is obj.factor_plan
        if n_inside == 0:
            assert obj.parent_dofs is None
            continue
        inside, boundary = obj.parent_dofs
        m, nu = len(CHILDREN[obj.fesys.d]), H.S.shape[0]
        n_p = obj.fesys.mesh.num_elements // m
        assert inside.shape == (n_inside, n_p) and boundary.shape[1] == n_p
        assert np.unique(inside).size == inside.size and inside.max() < nu
        uslot = obj._assembly_plan[1]  # (n_lu, ne), nu where fixed
        parent = np.broadcast_to(np.arange(uslot.shape[1]) // m, uslot.shape)
        for c in range(n_p):
            assert set(inside[:, c]).isdisjoint(boundary[:, c])
            children = uslot[:, c * m:(c + 1) * m].ravel()
            assert set(inside[:, c]) | set(boundary[:, c]) == set(children)
            for dof in inside[:, c]:
                assert set(parent[uslot == dof]) == {c}
        owner = np.full(nu, -1)
        owner[inside] = np.arange(n_p)
        ids = inside.ravel()
        block = H.S[ids][:, ids].tocoo()
        assert block.nnz > 0 and np.array_equal(owner[ids[block.row]], owner[ids[block.col]])


def scipy_compress(rows, cols, n):
    """compress's answer from scipy: the entries numbered from 1, so that
    none is an explicit zero, compressed into CSR."""
    P = sp.csr_matrix((np.arange(1, rows.size + 1), (rows, cols)), shape=(n, n))
    return P.data - 1, P.indices, P.indptr


def random_pattern(rng, n, k, symmetric):
    """k distinct entries of an n x n pattern, or the distinct entries of
    their union with its transpose, in a random order: (rows, cols)."""
    keys = rng.choice(n * n, size=k, replace=False)
    if symmetric:
        r, c = np.divmod(keys, n)
        keys = rng.permutation(np.unique(np.r_[r * n + c, c * n + r]))
    return np.divmod(keys, n)


def assert_same_compression(rows, cols, n):
    order, indices, indptr = compress(rows, cols, n)
    ref_order, ref_indices, ref_indptr = scipy_compress(rows, cols, n)
    assert np.array_equal(order, ref_order)
    assert np.array_equal(indices, ref_indices) and indices.dtype == np.int32
    assert np.array_equal(indptr, ref_indptr) and indptr.dtype == np.int32


@pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
@pytest.mark.parametrize("n, k", [(1, 1), (7, 20), (40, 300)])
def test_compress_matches_scipy(n, k, symmetric):
    rows, cols = random_pattern(np.random.default_rng(n), n, k, symmetric)
    assert_same_compression(rows, cols, n)


def test_compress_keeps_empty_rows_and_empty_patterns():
    rows, cols = random_pattern(np.random.default_rng(5), 6, 20, symmetric=False)
    keep = rows != 2
    assert_same_compression(rows[keep], cols[keep], 6)
    empty = np.zeros(0, dtype=np.int64)
    assert_same_compression(empty, empty, 0)
    order, indices, indptr = compress(empty, empty, 0)
    assert order.size == indices.size == 0 and np.array_equal(indptr, [0])


def test_compress_int32_entries_past_int32_keys():
    # SuperLU's perm_c is int32: on n = 50,000 dofs, row * n + col exceeds
    # 2^31 - 1 from row 42,950 on, and int32 keys would wrap silently
    n = 50_000
    rows, cols = random_pattern(np.random.default_rng(7), n, 4000, symmetric=True)
    rows, cols = rows.astype(np.int32), cols.astype(np.int32)
    assert int(rows.max()) * n > np.iinfo(np.int32).max
    assert_same_compression(rows, cols, n)


@pytest.mark.parametrize("levels, level", [(2, 0), (2, 1), (3, 2)],
                         ids=["one-stage", "two-stage", "two-stage-L3"])
def test_plan_orders_r_by_its_pattern_alone(levels, level):
    # A plan orders R once, from R's pattern, where a factorization of the
    # real R would order it from R itself: the two orders agree at t0 and
    # at 1e6 t0, on the coarsest level (one stage: R is S) and on refined
    # ones. The plan's R is the skeleton's, entry (i, j) at (perm[i],
    # perm[j]), and its gather lists R's unknowns in that order.
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=levels, cells0=2))
    z = pr.z0
    for lvl in range(level):
        z = pr.refine_iterate(z, lvl)
    obj = pr.objectives[level]
    plan = obj.factor_plan
    assert (plan.interior is None) == (level == 0)
    nr = len(plan.indptr) - 1
    assert np.array_equal(plan.gather[plan.perm], np.sort(plan.gather[:nr]))
    t0 = PathConfig().initial_t(pr)
    for t in (t0, 1e6 * t0):
        R, _ = regularize(obj.grad_hess(z, t)[1].S, plan)
        natural = R[plan.perm][:, plan.perm].tocsc()
        natural.sort_indices()
        assert np.array_equal(splu_order(natural), plan.perm)


@pytest.mark.parametrize("level", [0, 1], ids=["one-stage", "two-stage"])
def test_plan_gathers_with_intp_tables(small_problem, level):
    # np.take and np.bincount convert any other index type to intp on every
    # call, so every table that regularize gathers with is intp; int32
    # copies of them gather the same R and the same interior stage
    z = small_problem.z0 if level == 0 else small_problem.refine_iterate(small_problem.z0, 0)
    obj = small_problem.objectives[level]
    plan = obj.factor_plan
    assert (plan.interior is None) == (level == 0)
    tables = [plan.slots] + ([] if plan.interior is None else list(plan.interior[1:]))
    assert all(table.dtype == np.intp for table in tables)
    narrow = copy.copy(plan)
    narrow.slots = plan.slots.astype(np.int32)
    if plan.interior is not None:
        narrow.interior = (plan.interior[0],) + tuple(x.astype(np.int32) for x in plan.interior[1:])
    S = obj.grad_hess(z, PathConfig().initial_t(small_problem))[1].S
    (R, stage), (R32, stage32) = regularize(S, plan), regularize(S, narrow)
    for a, b in [(R.data, R32.data), (R.indices, R32.indices), (R.indptr, R32.indptr),
                 (stage.L, stage32.L), (stage.W, stage32.W)]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
