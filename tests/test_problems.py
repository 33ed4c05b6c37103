import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mgbarrier import mesh
from mgbarrier.barrier import PLapBarrier
from mgbarrier.cli import load_config, parse_config_text, spec_from_config
from mgbarrier.femspace import u_basis_grad
from mgbarrier.pathfollow import ALGORITHMS, PathConfig
from mgbarrier.problems import (UNIT_INTERVAL, UNIT_SQUARE, ProblemSpec,
                                apply_dirichlet, build_problem, default_boundary_data,
                                harmonic_extension, init_slack, repair_slack)
from mgbarrier.quadrature import reference_rule


def test_spec_validation():
    for kwargs, message in [
        (dict(p=0.5), "p must be >= 1 and finite"),
        (dict(p=math.inf), "p must be >= 1 and finite"),
        # a float count was once truncated (cells0) or failed deep in setup (levels)
        (dict(cells0=2.5), "cells0 must be an int"),
        (dict(levels=1.5), "levels must be an int"),
        (dict(alpha=2.0), "alpha must be an int"),
        (dict(levels=True), "levels must be an int"),
        (dict(cells0=True), "cells0 must be an int"),
    ]:
        with pytest.raises(ValueError, match=message):
            ProblemSpec(**kwargs)
    spec = ProblemSpec(p=2.0)
    assert spec.dirichlet is not None
    # quadrature exact to degree 2 * alpha on every level
    for alpha in (1, 2):
        pr = build_problem(ProblemSpec(p=2.0, alpha=alpha, levels=2, cells0=1))
        nodes = reference_rule(2, 2 * alpha).nodes
        for obj in pr.objectives:
            assert np.array_equal(obj.sampler.rule.nodes, nodes)


def test_default_boundary_data_dimensions():
    g2 = default_boundary_data(2)
    assert g2(0.0, 0.0) == pytest.approx(0.0)
    assert g2(0.5, 1.0) == pytest.approx(0.0)  # decays to zero at the top
    g1 = default_boundary_data(1)
    assert g1(1.0) == 1.0


def test_build_problem_structure(small_problem):
    pr = small_problem
    assert pr.L == 2
    assert len(pr.objectives) == 2
    assert len(pr.P_full) == 1
    assert [m.num_elements for m in pr.meshes] == [8, 32]
    assert pr.meshes[-1] is pr.fine_fesys.mesh
    assert pr.galerkin[-1] is None
    assert pr.galerkin[0].P.shape == (len(pr.fine_fesys.free_idx()),
                                      len(pr.objectives[0].free_idx()))
    # initial iterate is feasible on the coarsest level
    assert np.all(pr.objectives[0].margin(pr.z0) > 0.0)
    # with f = 0 nothing needs the physical quadrature nodes
    assert all("xq" not in obj.sampler.__dict__ for obj in pr.objectives)


def test_galerkin_prolongations_are_the_free_chain():
    # built on the first galerkin use: level lvl's cumulative free
    # prolongation is F[L-2] @ ... @ F[lvl], taken finest first, with F the
    # blocks of P_full on the free rows and columns
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=4, cells0=2))
    assert "galerkin" not in pr.__dict__
    free = [o.free_idx() for o in pr.objectives]
    F = [P[np.ix_(free[lvl + 1], free[lvl])] for lvl, P in enumerate(pr.P_full)]
    for lvl in range(pr.L - 1):
        P = functools.reduce(lambda acc, Q: acc @ Q, F[lvl:][::-1])
        assert pr.galerkin[lvl].P.shape == P.shape
        assert (pr.galerkin[lvl].P != P).nnz == 0


def test_only_a_multigrid_sweep_builds_the_free_prolongations():
    # the naive comparator never reads galerkin, whose first use forms the
    # free prolongations; an MGB step that misses its direct step sweeps and
    # builds them, and with direct_cap = 0 there is no direct step: every
    # t-step sweeps
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=2, cells0=2))
    ALGORITHMS["naive-theta"](pr, PathConfig())
    assert "galerkin" not in pr.__dict__
    ALGORITHMS["mgb"](pr, PathConfig(direct_cap=0))
    assert "galerkin" in pr.__dict__
    free_f, free_c = pr.objectives[1].free_idx(), pr.objectives[0].free_idx()
    assert (pr.galerkin[0].P != pr.P_full[0][np.ix_(free_f, free_c)]).nnz == 0


def test_build_problem_enumerates_edges_once_per_level(monkeypatch):
    # one edge numbering per level's P2 layout, which refine_uniform and the
    # level's P2 space share: edge_index on the box mesh and on each refined one
    calls = []

    def counted(elements, fn=mesh.edge_index):
        calls.append("edge_index")
        return fn(elements)

    monkeypatch.setattr(mesh, "edge_index", counted)
    L = 4
    build_problem(ProblemSpec(p=1.5, alpha=2, levels=L, cells0=2))
    assert calls == ["edge_index"] * L


def test_harmonic_extension_boundary_and_mean_value():
    pr = build_problem(ProblemSpec(p=2.0, alpha=1, levels=1, cells0=4))
    fes = pr.objectives[0].fesys
    g = lambda x, y: x + 2 * y
    u = harmonic_extension(pr.objectives[0], g)
    for i in np.flatnonzero(fes.u_boundary):
        x, y = fes.u_node_coords[i]
        assert u[i] == pytest.approx(g(x, y))
    # a linear function is discrete-harmonic: the extension reproduces it
    assert np.allclose(u, [g(*xy) for xy in fes.u_node_coords], atol=1e-10)


def coo_harmonic_extension(fes, smp, g, load=None):
    """Reference: the u-u stiffness, from the physical basis gradients at the
    quadrature nodes, scattered as COO and solved on np.ix_ blocks."""
    grads = np.einsum("eba,qib->eqia", fes.mesh.Ainv,
                      u_basis_grad(fes.d, fes.alpha, smp.rule.nodes))
    kloc = np.einsum("eq,eqia,eqja->eij", smp.wq, grads, grads)
    n_lu = fes.u_elem.shape[1]
    rows = np.repeat(fes.u_elem, n_lu, axis=1).ravel()
    cols = np.tile(fes.u_elem, (1, n_lu)).ravel()
    K = sp.csr_matrix((kloc.ravel(), (rows, cols)), shape=(fes.n_u, fes.n_u))
    u = apply_dirichlet(fes, np.zeros(fes.n_u), g)
    bidx, iidx = np.flatnonzero(fes.u_boundary), np.flatnonzero(~fes.u_boundary)
    rhs = -K[np.ix_(iidx, bidx)] @ u[bidx]
    if load is not None:
        rhs = load[iidx] + rhs
    u[iidx] = spla.splu(K[np.ix_(iidx, iidx)].tocsc()).solve(rhs)
    return u


@pytest.mark.parametrize("with_load", [False, True], ids=["harmonic", "load"])
@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_SQUARE], ids=["1d", "2d"])
def test_harmonic_extension_matches_coo_reference(domain, alpha, with_load):
    pr = build_problem(ProblemSpec(p=1.5, alpha=alpha, levels=2, cells0=3, domain=domain))
    obj, g = pr.fine_objective, pr.spec.dirichlet
    rng = np.random.default_rng(5)
    load = rng.standard_normal(obj.fesys.n_u) if with_load else None
    u = harmonic_extension(obj, g, load)
    ref = coo_harmonic_extension(obj.fesys, obj.sampler, g, load)
    assert np.linalg.norm(u - ref) <= 1e-13 * np.linalg.norm(ref)


def test_init_slack_feasible(small_problem):
    pr = small_problem
    fes = pr.objectives[0].fesys
    u0 = pr.z0[: fes.n_u]
    s = init_slack(pr.objectives[0], u0)
    assert np.all(s > 0)
    # slack is a power of two >= 1
    val = float(s[0])
    assert np.all(s == val)
    assert val == 2.0 ** round(np.log2(val))


def doubling_slack(objective, u0, max_doublings=200):
    """Reference for init_slack: the constant slack doubled from 1 until Dz is
    interior at every node."""
    fes = objective.fesys
    z = np.zeros(fes.total_dim)
    z[: fes.n_u] = u0
    q, _ = objective.dz(z)
    s = 1.0
    for _ in range(max_doublings + 1):
        if objective.barrier.feasible(q, np.full(q.shape[0], s)):
            return np.full(fes.n_s, s)
        s *= 2.0
    raise RuntimeError("slack doubling failed to reach the barrier domain")


SLACK_BOXES = {"square": UNIT_SQUARE, "skew": ((-0.3, 1.7), (0.1, 0.8)),
               "interval": UNIT_INTERVAL}


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("box", list(SLACK_BOXES))
def test_init_slack_matches_the_doubling_loop(box, alpha):
    # 5 p x 5 grids x 8 phases of the boundary data, at the harmonic extension
    domain = SLACK_BOXES[box]
    for cells0 in (1, 2, 3, 4, 6):
        base = build_problem(ProblemSpec(alpha=alpha, levels=1, cells0=cells0,
                                         domain=domain)).objectives[0]
        for phase in np.arange(8) * math.pi / 4:
            if len(domain) == 2:
                g = lambda x, y: 1.6 * math.sin(3.0 * math.pi * x + phase) * (1.0 - y)
            else:
                g = lambda x: 1.6 * math.sin(3.0 * math.pi * x + phase)
            u0 = harmonic_extension(base, g)
            for p in (1.0, 1.25, 1.5, 2.0, 3.0):
                obj = dataclasses.replace(base, barrier=PLapBarrier(p=p, d=len(domain)))
                assert np.array_equal(init_slack(obj, u0), doubling_slack(obj, u0))


def test_init_slack_fails_where_lambda_overflows(small_problem):
    obj = small_problem.objectives[0]
    u0 = np.full(obj.fesys.n_u, 1e200)
    u0[::2] = -1e200
    q, _ = obj.dz(np.concatenate([u0, np.zeros(obj.fesys.n_s)]))
    with np.errstate(over="ignore"):
        assert np.isinf(obj.barrier.lam(q)).any()
    with pytest.raises(RuntimeError, match="slack doubling failed"):
        init_slack(obj, u0)


def test_repair_slack_fixes_grazing_point(small_problem):
    pr = small_problem
    fes, smp = pr.fine_fesys, pr.fine_objective.sampler
    z = pr.refine_iterate(pr.z0, 0)
    bad = z.copy()
    bad[fes.n_u] = 0.0  # crush one element's slack
    repaired, n_bad = repair_slack(pr.fine_objective, bad)
    assert n_bad >= 1
    assert np.all(pr.fine_objective.margin(repaired) > 0.0)
    # loop reference: raise each bad element's slack dofs to the needed value
    grad_u, s_val = smp.sample(bad)
    q = grad_u.reshape(-1, fes.d)
    margin = pr.barrier.margin(q, s_val.ravel()).reshape(s_val.shape)
    lam = pr.barrier.lam(q).reshape(s_val.shape)
    expected = bad.copy()
    for e in np.flatnonzero(margin.min(axis=1) <= 0.0):
        need = (1.0 + 1e-8) * float(np.max(lam[e])) + 1e-8
        for j in range(fes.n_ls):
            dof = fes.n_u + e * fes.n_ls + j
            expected[dof] = max(expected[dof], need)
    assert np.array_equal(repaired, expected)
    # already-feasible points pass through untouched
    same, n0 = repair_slack(pr.fine_objective, z)
    assert n0 == 0
    assert same is z


def test_repair_slack_fixes_the_last_element(small_problem):
    # in both node orders the first element's first node is flat node 0, so
    # only a later element tells a wrong node axis from the right one
    pr = small_problem
    fes, obj = pr.fine_fesys, pr.fine_objective
    z = pr.refine_iterate(pr.z0, 0)
    bad = z.copy()
    last = fes.s_elem()[-1]
    bad[last] = 0.0
    repaired, n_bad = repair_slack(obj, bad)
    assert n_bad == 1
    assert np.all(obj.margin(repaired) > 0.0)
    grad_u, _ = obj.sampler.sample(bad)
    expected = bad.copy()
    expected[last] = (1.0 + 1e-8) * float(np.max(pr.barrier.lam(grad_u[-1]))) + 1e-8
    assert np.array_equal(repaired, expected)


def test_apply_dirichlet_only_touches_boundary(small_problem):
    pr = small_problem
    fes = pr.fine_fesys
    z = np.zeros(fes.total_dim)
    z2 = apply_dirichlet(fes, z, pr.spec.dirichlet)
    interior = np.flatnonzero(~fes.u_boundary)
    assert np.all(z2[interior] == 0.0)
    assert np.all(z2[fes.n_u:] == 0.0)
    i = int(np.flatnonzero(fes.u_boundary)[0])
    assert z2[i] == pytest.approx(pr.spec.dirichlet(*fes.u_node_coords[i]))


def test_refine_iterate_imposes_fine_boundary_data(small_problem):
    pr = small_problem
    z = pr.refine_iterate(pr.z0, 0)
    fes = pr.fine_fesys
    for i in np.flatnonzero(fes.u_boundary):
        assert z[i] == pytest.approx(pr.spec.dirichlet(*fes.u_node_coords[i]))
    assert np.all(pr.fine_objective.margin(z) > 0.0)


def test_parse_config_text():
    cfg = parse_config_text("""
    # benchmark setup
    p = 1.5
    alpha 2
    levels = 3
    algorithm = mgb
    rho0 = 2.0
    """)
    assert cfg == {"p": 1.5, "alpha": 2, "levels": 3,
                   "algorithm": "mgb", "rho0": 2.0}
    # a tab separates a key from its value as a space does
    cfg = parse_config_text("p\t1.5\npredictor\tfalse\n")
    assert cfg == {"p": 1.5, "predictor": False}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        parse_config_text("banana = 3\n")


def test_parse_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        parse_config_text("algorithm = superfast\n")
    for alg in ALGORITHMS:
        assert parse_config_text(f"algorithm = {alg}\n")["algorithm"] == alg


def test_load_config_and_spec(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p = 3\nlevels = 2\ncells0 = 4\ndim = 2\n")
    cfg = load_config(path)
    spec = spec_from_config(cfg)
    assert spec.p == 3.0
    assert spec.levels == 2
    assert spec.cells0 == 4
    assert len(spec.domain) == 2


@pytest.mark.parametrize("text", [
    "dim = 3\n", "dim = 0\n", "levels = 0\n", "cells0 = 0\n", "alpha = 3\n",
    "t_cap = 0\n", "theta = -0.5\n", "budget_s = -1\n", "t0 = 0\n", "t0 = -1\n",
    "t0 = nan\n", "p = inf\n",
])
def test_invalid_config_values_rejected(text):
    cfg = parse_config_text(text)
    path_keys = {k: cfg[k] for k in ("t_cap", "theta", "budget_s", "t0") if k in cfg}
    with pytest.raises(ValueError, match=next(iter(cfg))):
        spec_from_config(cfg)
        PathConfig(**path_keys)
