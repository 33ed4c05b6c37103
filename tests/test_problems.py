import numpy as np
import pytest

from mgbarrier import mesh
from mgbarrier.pathfollow import ALGORITHMS, PathConfig
from mgbarrier.problems import (ProblemSpec, apply_dirichlet,
                                build_problem, default_boundary_data,
                                harmonic_extension, init_slack, load_config,
                                parse_config_text, repair_slack,
                                spec_from_config)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(p=0.5)
    spec = ProblemSpec(p=2.0)
    assert spec.dirichlet is not None
    # quadrature exact to degree 2 * alpha on every level
    for alpha in (1, 2):
        pr = build_problem(ProblemSpec(p=2.0, alpha=alpha, levels=2, cells0=1))
        assert [smp.rule.exactness_degree for smp in pr.samplers] == [2 * alpha] * 2


def test_default_boundary_data_dimensions():
    g2 = default_boundary_data(2)
    assert g2(0.0, 0.0) == pytest.approx(0.0)
    assert g2(0.5, 1.0) == pytest.approx(0.0)  # decays to zero at the top
    g1 = default_boundary_data(1)
    assert g1(1.0) == 1.0


def test_build_problem_structure(small_problem):
    pr = small_problem
    assert pr.L == 2
    assert len(pr.fesystems) == 2
    assert len(pr.P_full) == 1 and len(pr.P_free) == 1
    assert pr.P_free_to_fine[-1] is None
    assert pr.P_free_to_fine[0].shape[0] == len(pr.fine_fesys.free_idx())
    # initial iterate is feasible on the coarsest level
    assert pr.objectives[0].feasible(pr.z0)


def test_build_problem_enumerates_edges_once_per_level(monkeypatch):
    # one edge_index for the coarse box mesh, then one per level's P2 layout,
    # which refine_uniform and the level's P2 space share
    calls = []
    edge_index = mesh.edge_index

    def counted(elements):
        calls.append(len(elements))
        return edge_index(elements)

    monkeypatch.setattr(mesh, "edge_index", counted)
    L = 4
    build_problem(ProblemSpec(p=1.5, alpha=2, levels=L, cells0=2))
    assert len(calls) <= L + 1


def test_harmonic_extension_boundary_and_mean_value():
    pr = build_problem(ProblemSpec(p=2.0, alpha=1, levels=1, cells0=4))
    fes, smp = pr.fesystems[0], pr.samplers[0]
    g = lambda x, y: x + 2 * y
    u = harmonic_extension(fes, smp, g)
    for i in np.flatnonzero(fes.u_boundary):
        x, y = fes.u_node_coords[i]
        assert u[i] == pytest.approx(g(x, y))
    # a linear function is discrete-harmonic: the extension reproduces it
    assert np.allclose(u, [g(*xy) for xy in fes.u_node_coords], atol=1e-10)


def test_init_slack_feasible(small_problem):
    pr = small_problem
    fes = pr.fesystems[0]
    u0 = pr.z0[: fes.n_u]
    s = init_slack(pr.objectives[0], u0)
    assert np.all(s > 0)
    # slack is a power of two (doubling from 1)
    val = float(s[0])
    assert np.all(s == val)
    assert val == 2.0 ** round(np.log2(val))


def test_repair_slack_fixes_grazing_point(small_problem):
    pr = small_problem
    fes, smp = pr.fine_fesys, pr.samplers[-1]
    z = pr.refine_iterate(pr.z0, 0)
    bad = z.copy()
    bad[fes.n_u] = 0.0  # crush one element's slack
    repaired, n_bad = repair_slack(pr.fine_objective, bad)
    assert n_bad >= 1
    assert pr.fine_objective.feasible(repaired)
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
    assert pr.fine_objective.feasible(z)


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
    "t0 = nan\n",
])
def test_invalid_config_values_rejected(text):
    cfg = parse_config_text(text)
    path_keys = {k: cfg[k] for k in ("t_cap", "theta", "budget_s", "t0") if k in cfg}
    with pytest.raises(ValueError, match=next(iter(cfg))):
        spec_from_config(cfg)
        PathConfig(**path_keys)
