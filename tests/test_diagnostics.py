import numpy as np
import pytest

from mgbarrier.diagnostics import (filter_gap, p2_linear_fem, p2_oracle_error,
                                   rh_constant_estimate)
from mgbarrier.mesh import CHILDREN
from mgbarrier.pathfollow import PathConfig, PathTrace, run_mgb
from mgbarrier.problems import ProblemSpec, build_problem, harmonic_extension


@pytest.fixture(scope="module")
def p2_problem():
    pr = build_problem(ProblemSpec(p=2.0, alpha=2, levels=2, cells0=2))
    tr = run_mgb(pr, PathConfig())
    assert tr.status == "converged"
    return pr, tr


def test_filter_gap_requires_costs():
    with pytest.raises(ValueError):
        filter_gap(PathTrace(), 4.0, 1.0)


def test_filter_gap_bound_holds(p2_problem):
    pr, tr = p2_problem
    gaps = filter_gap(tr, pr.barrier.nu, pr.domain_volume())
    assert len(gaps) == len(tr.costs)
    for _, t, gap, bound in gaps:
        assert bound == pytest.approx(2.0 * 4.0 * 1.0 / t)
        assert gap <= bound + 1e-9


def test_p2_linear_fem_matches_harmonic_extension(p2_problem):
    # with f = 0 the energy minimizer is the discrete-harmonic extension
    pr, _ = p2_problem
    u = p2_linear_fem(pr)
    u_harm = harmonic_extension(pr.fine_objective, pr.spec.dirichlet)
    assert np.allclose(u, u_harm, atol=1e-10)


def test_p2_linear_fem_with_forcing_reproduces_quadratic():
    # 2 Delta u = f with u = x^2 + y^2, f = 8: the P2 space holds u exactly
    u_exact = lambda x, y: x * x + y * y  # noqa: E731
    pr = build_problem(ProblemSpec(p=2.0, alpha=2, levels=2, cells0=2,
                                   forcing=lambda x, y: 8.0, dirichlet=u_exact))
    u = p2_linear_fem(pr)
    x, y = pr.fine_fesys.u_node_coords.T
    assert np.allclose(u, u_exact(x, y), atol=1e-12)


def test_p2_linear_fem_rejects_other_p(small_problem):
    with pytest.raises(ValueError):
        p2_linear_fem(small_problem)


def test_p2_oracle_error_small_at_path_end(p2_problem):
    pr, tr = p2_problem
    l2, linf = p2_oracle_error(pr, tr)
    assert 0 <= l2 <= linf * np.sqrt(pr.domain_volume()) + 1e-12
    assert linf < 0.5


def test_rh_constant_estimate_positive(small_problem):
    tr = run_mgb(small_problem, PathConfig())
    out = rh_constant_estimate(small_problem, tr.z_final, num_samples=3, seed=0)
    assert len(out) == small_problem.L - 1
    assert all(c > 0 for c in out)


def _rh_loop(problem, z, num_samples, seed):
    """Loop reference for rh_constant_estimate: one mask per coarse element."""
    rng = np.random.default_rng(seed)
    smp = problem.fine_objective.sampler
    d = problem.fine_fesys.d
    grad_u, s_val = smp.sample(z)
    _, _, H = problem.barrier.value_grad_hess(grad_u.reshape(-1, d), s_val.ravel())
    H = H.reshape(*smp.wq.shape, d + 1, d + 1)
    out = []
    for lvl in range(problem.L - 1):
        # fine element e is a child of element e // m one level coarser
        owner = np.arange(smp.wq.shape[0])
        for _ in problem.meshes[:lvl:-1]:
            owner = owner // len(CHILDREN[d])
        vols = problem.meshes[lvl].volumes()
        P = problem.galerkin[lvl].P
        worst = 0.0
        for _ in range(num_samples):
            v = rng.standard_normal(P.shape[1])
            gv, sv = smp.sample(problem.fine_objective.embed_free(P @ v))
            Dv = np.concatenate([gv, sv[..., None]], axis=-1)
            val = np.sqrt(np.maximum(np.einsum("eqa,eqab,eqb->eq", Dv, H, Dv), 0.0))
            for K in range(vols.size):
                mask = owner == K
                l1 = float(np.sum(smp.wq[mask] * val[mask]))
                if l1 > 0:
                    worst = max(worst, vols[K] * float(val[mask].max()) / l1)
        out.append(worst)
    return out


def test_rh_constant_estimate_matches_loop_reference():
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=3, cells0=2))
    z = pr.refine_iterate(pr.refine_iterate(pr.z0, 0), 1)
    got = rh_constant_estimate(pr, z, num_samples=2, seed=3)
    # the per-element sums accumulate in another order: roundoff only
    assert got == pytest.approx(_rh_loop(pr, z, 2, 3), rel=1e-12)
