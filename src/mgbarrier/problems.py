"""Problem construction for the p-Laplacian family.

Builds the nested meshes, per-level FE systems and objectives, nested
prolongations, and the initial iterate (discrete-harmonic extension of the
Dirichlet data plus a constant power-of-two slack above the barrier's Lambda).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import Galerkin, Objective
from .barrier import PLapBarrier
from .femspace import DSampler, build_fe_system, prolongation
from .mesh import build_rect_mesh, refine_uniform
from .quadrature import reference_rule

UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))
UNIT_INTERVAL = ((0.0, 1.0),)


def default_boundary_data(d):
    """Benchmark Dirichlet trace: oscillatory on the bottom edge, decaying upward.

    Chosen steep enough that single-path h-refinement pays a visible Newton
    penalty while the multigrid strategy stays in its small-step regime.
    """
    if d == 2:
        return lambda x, y: 1.6 * math.sin(3.0 * math.pi * x) * (1.0 - y)
    return lambda x: x


@dataclass
class ProblemSpec:
    p: float = 1.5
    alpha: int = 2
    levels: int = 3
    cells0: int = 2
    domain: tuple = UNIT_SQUARE
    forcing: object = None           # callable f(x...) or None (f = 0)
    dirichlet: object = None         # callable g on the boundary; None -> default

    def __post_init__(self):
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must be >= 1 and finite, got {self.p}")
        for key in ("alpha", "levels", "cells0"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{key} must be an int, got {value!r}")
        if self.alpha not in (1, 2):
            raise ValueError(f"alpha must be 1 or 2, got {self.alpha}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.cells0 < 1:
            raise ValueError(f"cells0 must be >= 1, got {self.cells0}")
        if self.dirichlet is None:
            self.dirichlet = default_boundary_data(len(self.domain))


def harmonic_extension(objective, g, load=None):
    """Dirichlet-Poisson solve: u = g at boundary nodes and (K u)_i = load_i at
    interior nodes, K the stiffness matrix int grad phi_i . grad phi_j.

    With load None this is the discrete-harmonic extension (Delta_h u = 0).
    The element stiffness is the Hessian table at F'' = I, scattered by the
    objective's fixed pattern.
    """
    fes, smp = objective.fesys, objective.sampler
    (ne, nq), P = smp.wq.shape, smp.metric.shape[1]
    nloc = smp.grad_table.shape[1]
    kloc = (smp.metric[..., None] * smp.wq[:, None]).reshape(ne, -1)
    kloc = (kloc @ smp.hess_table[:P * nq]).reshape(ne, nloc, nloc)

    z = apply_dirichlet(fes, np.zeros(fes.total_dim), g)
    if not np.all(np.isfinite(z)):
        raise ValueError("Dirichlet data is not finite at a boundary node")
    # free rows of K z, interior u first, and K over the interior u dofs
    n_lu = fes.u_elem.shape[1]
    Kz, K = objective.scatter((kloc @ z[fes.elem_dofs(), None])[..., 0],
                              kloc[:, :n_lu, :n_lu], 0.0)
    iidx = np.flatnonzero(~fes.u_boundary)
    m = iidx.size
    if m:
        rhs = -Kz[:m] if load is None else load[iidx] - Kz[:m]
        z[iidx] = spla.splu(K.tocsc()).solve(rhs)
    return z[:fes.n_u]


def apply_dirichlet(fesys, z, g):
    """Overwrite boundary u dofs with the nodal interpolant of g."""
    z = z.copy()
    bidx = np.flatnonzero(fesys.u_boundary)
    z[bidx] = [g(*x) for x in fesys.u_node_coords[bidx]]
    return z


def init_slack(objective, u0):
    """Constant slack 2^m, the smallest power of two >= 1 above max Lambda(q)
    at the nodes, doubled once where roundoff leaves Dz on the boundary;
    RuntimeError if neither is feasible (as where Lambda(q) overflows)."""
    fes, barrier = objective.fesys, objective.barrier
    z = np.zeros(fes.total_dim)
    z[: fes.n_u] = u0
    q, _ = objective.dz(z)
    with np.errstate(over="ignore"):
        _, e = math.frexp(float(barrier.lam(q).max()))
    # 2^(e-1) <= max Lambda < 2^e; e <= 1022 keeps the doubled slack finite
    e = min(max(e, 0), 1022)
    for s in (math.ldexp(1.0, e), math.ldexp(1.0, e + 1)):
        if barrier.feasible(q, np.full(q.shape[0], s)):
            return np.full(fes.n_s, s)
    raise RuntimeError("slack doubling failed to reach the barrier domain")


def repair_slack(objective, z, safety=1e-8):
    """Minimally inflate per-element slack so Dz is interior at all nodes.

    Used after prolongation: the prolongated gradient can graze the epigraph
    boundary at the new quadrature nodes through roundoff.
    """
    q, s = objective.dz(z)
    barrier, shape = objective.barrier, objective.sampler.wq.shape
    bad = np.flatnonzero(np.min(barrier.margin(q, s).reshape(shape), axis=1) <= 0.0)
    if bad.size == 0:
        return z, 0
    z = z.copy()
    lam = barrier.lam(q).reshape(shape)
    snew = (1.0 + safety) * np.max(lam[bad], axis=1) + safety
    dofs = objective.fesys.s_elem()[bad]
    z[dofs] = np.maximum(z[dofs], snew[:, None])
    return z, int(bad.size)


@dataclass
class ProblemInstance:
    spec: ProblemSpec
    barrier: PLapBarrier
    objectives: list        # per level, coarsest first: FE system, sampler, quadrature
    P_full: list            # consecutive full prolongations, len L-1
    z0: np.ndarray          # initial iterate on the coarsest level

    @property
    def L(self):
        return len(self.objectives)

    @property
    def meshes(self):
        """The nested meshes T_1 coarsest .. T_L finest."""
        return [o.fesys.mesh for o in self.objectives]

    @property
    def fine_objective(self):
        return self.objectives[-1]

    @property
    def fine_fesys(self):
        return self.fine_objective.fesys

    @functools.cached_property
    def P_free(self):
        """The blocks of P_full on the free dofs (zero-trace u and all s),
        built on the first use."""
        return [P[hi.free_idx()][:, lo.free_idx()] for P, lo, hi
                in zip(self.P_full, self.objectives[:-1], self.objectives[1:])]

    @functools.cached_property
    def galerkin(self):
        """Per level, the Galerkin restriction of fine element blocks to its
        free dofs (None on the fine level), built on the first use together
        with the cumulative free prolongations to the fine level."""
        c_free = self.fine_objective.cost_free
        out, P = [None] * self.L, None
        for lvl in range(self.L - 2, -1, -1):
            P = self.P_free[lvl] if P is None else (P @ self.P_free[lvl]).tocsr()
            out[lvl] = Galerkin(self.objectives[lvl], P, P.T @ c_free)
        return out

    def h_fine(self):
        return self.fine_fesys.mesh.h()

    def domain_volume(self):
        return self.fine_fesys.mesh.total_volume()

    def refine_iterate(self, z, level):
        """Move an iterate one level finer: prolongate, re-impose the Dirichlet
        interpolant at the new boundary nodes, and repair the slack so the
        result stays in the barrier domain."""
        z = self.P_full[level] @ z
        obj = self.objectives[level + 1]
        z = apply_dirichlet(obj.fesys, z, self.spec.dirichlet)
        z, _ = repair_slack(obj, z)
        return z


def build_meshes(spec):
    """The nested meshes T_1 (the box at cells0 cells per side) .. T_L."""
    meshes = [build_rect_mesh(spec.domain, spec.cells0)]
    for _ in range(spec.levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def build_objectives(spec, meshes, barrier):
    """Per mesh, the Objective of its FE system, sampled at the degree
    2 alpha quadrature rule."""
    rule = reference_rule(len(spec.domain), 2 * spec.alpha)
    objectives = []
    for mesh in meshes:
        fes = build_fe_system(mesh, spec.alpha)
        objectives.append(Objective(fes, DSampler(fes, rule), barrier, spec.forcing))
    return objectives


def build_prolongations(objectives):
    """The prolongations between consecutive levels."""
    return [prolongation(lo.fesys, hi.fesys)
            for lo, hi in zip(objectives[:-1], objectives[1:])]


def starting_point(objective, g):
    """The initial iterate: the discrete-harmonic extension of the Dirichlet
    data g, and the constant slack of init_slack."""
    fes = objective.fesys
    u0 = harmonic_extension(objective, g)
    z0 = np.zeros(fes.total_dim)
    z0[: fes.n_u] = u0
    z0[fes.n_u:] = init_slack(objective, u0)
    return z0


def build_problem(spec):
    barrier = PLapBarrier(p=spec.p, d=len(spec.domain))
    objectives = build_objectives(spec, build_meshes(spec), barrier)
    return ProblemInstance(
        spec=spec,
        barrier=barrier,
        objectives=objectives,
        P_full=build_prolongations(objectives),
        z0=starting_point(objectives[0], spec.dirichlet),
    )
