"""Empirical verifiers and the benchmark harness.

Covers the minimizing-filter bound, a sampled lower estimate of the discrete
reverse Hölder constant, the p=2 linear-FEM oracle, and the iteration-count
benchmark grid emitted as CSV.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from .pathfollow import ALGORITHMS, PathConfig, check_algorithm
from .problems import ProblemSpec, build_problem, harmonic_extension

BENCH_HEADER = "algorithm,p,h,fine_cells,total_newton,max_step_newton,t_final,status,wall_s"


def filter_gap(trace, nu, domain_volume, slack_factor=2.0):
    """Suboptimality gaps vs the nu |Omega| / t filter bound.

    Returns a list of (k, t, gap, bound) using the cost integral at the
    largest achieved t as the reference. The bound carries a factor covering
    the centering tolerance.
    """
    if not trace.costs:
        raise ValueError("trace has no recorded cost integrals")
    ref = trace.costs[-1][2]
    out = []
    for k, t, c in trace.costs:
        out.append((k, t, c - ref, slack_factor * nu * domain_volume / t))
    return out


def rh_constant_estimate(problem, z, num_samples=20, seed=0):
    """Sampled lower estimate of the discrete reverse Hölder constant.

    For each coarse level H and element K of T_H, draws random coarse
    coefficient vectors v and computes
        |K| * ||sqrt(F''(Dz)[(Dv)^2])||_Linf_h(K) / ||...||_L1_h(K)
    with fine-grid quadrature. Returns per-level maxima (level 1 = coarsest).
    """
    rng = np.random.default_rng(seed)
    L = problem.L
    obj = problem.fine_objective
    smp, d = obj.sampler, obj.fesys.d

    _, _, H = obj.barrier.value_grad_hess(*obj.dz(z))
    ne_f, nq = smp.wq.shape
    Hn = H.reshape(ne_f, nq, d + 1, d + 1)

    # ancestor element of each fine element at every level
    ancestors = [np.arange(ne_f)]
    for mesh in reversed(problem.hierarchy.levels[1:]):
        ancestors.insert(0, mesh.parent_map[ancestors[0]])

    out = []
    for lvl in range(L - 1):
        Pff = problem.P_free_to_fine[lvl]
        vols = problem.hierarchy.levels[lvl].volumes()
        worst = 0.0
        for _ in range(num_samples):
            v = rng.standard_normal(Pff.shape[1])
            z_v = obj.embed_free(Pff @ v)
            gv, sv = smp.sample(z_v)
            Dv = np.concatenate([gv, sv[..., None]], axis=-1)  # (ne, nq, d+1)
            quad = np.einsum("eqa,eqab,eqb->eq", Dv, Hn, Dv)
            val = np.sqrt(np.maximum(quad, 0.0))
            # per coarse element K: max and quadrature integral of val over K
            owner = ancestors[lvl]
            linf = np.zeros(vols.size)
            np.maximum.at(linf, owner, val.max(axis=1))
            l1 = np.bincount(owner, weights=np.sum(smp.wq * val, axis=1),
                             minlength=vols.size)
            ratio = vols * linf / np.where(l1 > 0, l1, np.inf)
            worst = max(worst, float(ratio.max()))
        out.append(worst)
    return out


def p2_linear_fem(problem):
    """Direct FEM solution of the p=2 Euler-Lagrange equation 2 Delta u = f.

    Minimizes int f u + |grad u|^2 in the same space and quadrature; returns
    the full u coefficient vector with the problem's Dirichlet data.
    """
    if problem.spec.p != 2.0:
        raise ValueError("linear FEM oracle requires p = 2")
    fes = problem.fine_fesys
    smp = problem.samplers[-1]
    # stationarity 2 K u + int f phi = 0, i.e. K u = -(1/2) int f phi, and the
    # u part of the cost vector is int f phi
    load = -0.5 * problem.fine_objective.cost_vector[: fes.n_u]
    return harmonic_extension(fes, smp, problem.spec.dirichlet, load)


def p2_oracle_error(problem, trace):
    """(L2_h, Linf) error of the final path u against the linear FEM oracle."""
    u_fem = p2_linear_fem(problem)
    fes = problem.fine_fesys
    u_path = trace.z_final[: fes.n_u]
    diff = u_path - u_fem
    smp = problem.samplers[-1]
    vals = smp.sample_u(diff)
    l2 = float(np.sqrt(np.sum(smp.wq * vals ** 2)))
    linf = float(np.max(np.abs(diff)))
    return l2, linf


# ---------------------------------------------------------------------------
# benchmark harness

@dataclass
class BenchCell:
    algorithm: str       # a key of pathfollow.ALGORITHMS
    p: float
    levels: int


def run_cell(cell, base_spec_kwargs, config):
    runner = ALGORITHMS[check_algorithm(cell.algorithm)]
    spec = ProblemSpec(p=cell.p, levels=cell.levels, **base_spec_kwargs)
    problem = build_problem(spec)
    t0 = time.monotonic()
    trace = runner(problem, config)
    wall = time.monotonic() - t0
    return problem, trace, wall


def bench(algorithms, p_values, level_values, base_spec_kwargs=None, config=None):
    """Run the (algorithm, p, h) matrix; failures are recorded, not raised.

    Unknown algorithm names raise ValueError before the first cell runs.
    """
    for alg in algorithms:
        check_algorithm(alg)
    base_spec_kwargs = base_spec_kwargs or {}
    config = config or PathConfig()
    buf = io.StringIO()
    buf.write(BENCH_HEADER + "\n")
    for alg in algorithms:
        for p in p_values:
            for levels in level_values:
                cell = BenchCell(alg, p, levels)
                problem, trace, wall = run_cell(cell, base_spec_kwargs, config)
                h = problem.h_fine()
                cells = problem.hierarchy.fine.num_elements
                buf.write(
                    f"{alg},{p!r},{h!r},{cells},{trace.total_newton},"
                    f"{trace.max_step_newton()},{trace.t_final!r},"
                    f"{trace.status},{wall:.3f}\n"
                )
    return buf.getvalue()
