"""Empirical verifiers.

Covers the minimizing-filter bound, a sampled lower estimate of the discrete
reverse Hölder constant, and the p=2 linear-FEM oracle.
"""

from __future__ import annotations

import numpy as np

from .problems import harmonic_extension


def filter_gap(trace, nu, domain_volume):
    """Suboptimality gaps vs the nu |Omega| / t filter bound.

    Returns a list of (k, t, gap, bound) using the cost integral at the
    largest achieved t as the reference. The bound carries a factor 2
    covering the centering tolerance.
    """
    if not trace.costs:
        raise ValueError("trace has no recorded cost integrals")
    ref = trace.costs[-1][2]
    out = []
    for k, t, c in trace.costs:
        out.append((k, t, c - ref, 2.0 * nu * domain_volume / t))
    return out


def hessian_form(terms, vq, vs):
    """F''[(v_q, v_s)^2] at each point from the grad_hess_terms (a, f_s, c, b,
    h_ss) of the barrier there, without the dense Hessian:

        c |v_q|^2 + (a . v_q)^2 + 2 b v_s (a . v_q) + h_ss v_s^2,

    for directions vq of shape (N, d) and vs of shape (N,).
    """
    a, _, c, b, h_ss = terms
    av = np.einsum("ij,ij->i", a, vq)
    return c * np.einsum("ij,ij->i", vq, vq) + av * av + 2.0 * b * vs * av + h_ss * vs * vs


def rh_constant_estimate(problem, z, num_samples=20, seed=0):
    """Sampled lower estimate of the discrete reverse Hölder constant.

    For each coarse level H and element K of T_H, draws random coarse
    coefficient vectors v and computes
        |K| * ||sqrt(F''(Dz)[(Dv)^2])||_Linf_h(K) / ||...||_L1_h(K)
    with fine-grid quadrature. Returns per-level maxima (level 1 = coarsest).
    """
    rng = np.random.default_rng(seed)
    L, meshes = problem.L, problem.meshes
    obj = problem.fine_objective

    terms = obj.barrier.grad_hess_terms(*obj.dz(z))
    wq = obj.sampler.wq.T  # (nq, ne), dz's node order

    out = []
    for lvl in range(L - 1):
        Pff = problem.galerkin[lvl].P
        vols = meshes[lvl].volumes()
        worst = 0.0
        for _ in range(num_samples):
            v = rng.standard_normal(Pff.shape[1])
            z_v = obj.embed_free(Pff @ v)
            quad = hessian_form(terms, *obj.dz(z_v)).reshape(wq.shape)
            val = np.sqrt(np.maximum(quad, 0.0))
            # per coarse element K: max and quadrature integral of val over K,
            # whose fine elements are consecutive in refine_uniform's order
            linf = val.max(axis=0).reshape(vols.size, -1).max(axis=1)
            l1 = np.sum(wq * val, axis=0).reshape(vols.size, -1).sum(axis=1)
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
    obj = problem.fine_objective
    # stationarity 2 K u + int f phi = 0, i.e. K u = -(1/2) int f phi, and the
    # u part of the cost vector is int f phi
    load = -0.5 * obj.cost_vector[: obj.fesys.n_u]
    return harmonic_extension(obj, problem.spec.dirichlet, load)


def p2_oracle_error(problem, trace):
    """(L2_h, Linf) error of the final path u against the linear FEM oracle."""
    u_fem = p2_linear_fem(problem)
    fes = problem.fine_fesys
    u_path = trace.z_final[: fes.n_u]
    diff = u_path - u_fem
    smp = problem.fine_objective.sampler
    vals = smp.sample_u(diff)
    l2 = float(np.sqrt(np.sum(smp.wq * vals ** 2)))
    linf = float(np.max(np.abs(diff)))
    return l2, linf

