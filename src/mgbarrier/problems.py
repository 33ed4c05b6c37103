"""Problem construction for the p-Laplacian family.

Builds the mesh hierarchy, per-level FE systems and objectives, nested
prolongations, and the initial iterate (discrete-harmonic extension of the
Dirichlet data plus a doubled-until-feasible constant slack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import Objective
from .barrier import PLapBarrier
from .femspace import DSampler, build_fe_system, free_prolongation, prolongation
from .mesh import MeshHierarchy
from .pathfollow import check_algorithm
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
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.alpha not in (1, 2):
            raise ValueError(f"alpha must be 1 or 2, got {self.alpha}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.cells0 < 1:
            raise ValueError(f"cells0 must be >= 1, got {self.cells0}")
        if self.dirichlet is None:
            self.dirichlet = default_boundary_data(len(self.domain))


def harmonic_extension(fesys, sampler, g, load=None):
    """Dirichlet-Poisson solve: u = g at boundary nodes and (K u)_i = load_i at
    interior nodes, K the stiffness matrix int grad phi_i . grad phi_j.

    With load None this is the discrete-harmonic extension (Delta_h u = 0).
    """
    smp = sampler
    n_lu = fesys.u_elem.shape[1]
    kloc = np.einsum("eq,eqia,eqja->eij", smp.wq, smp.grads, smp.grads)
    rows = np.repeat(fesys.u_elem, n_lu, axis=1).ravel()
    cols = np.tile(fesys.u_elem, (1, n_lu)).ravel()
    K = sp.csr_matrix((kloc.ravel(), (rows, cols)), shape=(fesys.n_u, fesys.n_u))

    u = apply_dirichlet(fesys, np.zeros(fesys.n_u), g)
    bidx = np.flatnonzero(fesys.u_boundary)
    if not np.all(np.isfinite(u[bidx])):
        raise ValueError("Dirichlet data is not finite at a boundary node")
    iidx = np.flatnonzero(~fesys.u_boundary)
    if iidx.size:
        Kii = K[np.ix_(iidx, iidx)].tocsc()
        rhs = -K[np.ix_(iidx, bidx)] @ u[bidx]
        if load is not None:
            rhs = load[iidx] + rhs
        u[iidx] = spla.splu(Kii).solve(rhs)
    return u


def apply_dirichlet(fesys, z, g):
    """Overwrite boundary u dofs with the nodal interpolant of g."""
    z = z.copy()
    bidx = np.flatnonzero(fesys.u_boundary)
    z[bidx] = [g(*x) for x in fesys.u_node_coords[bidx]]
    return z


def init_slack(objective, u0, max_doublings=200):
    """Constant slack 2^m, doubled from 1 until Dz is interior at every node."""
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
    hierarchy: MeshHierarchy
    fesystems: list
    samplers: list
    objectives: list        # per level, quadrature on that level's mesh
    P_full: list            # consecutive full prolongations, len L-1
    P_free: list            # consecutive free prolongations, len L-1
    P_free_to_fine: list    # cumulative free prolongation level l -> fine, len L (last None)
    z0: np.ndarray          # initial iterate on the coarsest level

    @property
    def L(self):
        return self.hierarchy.L

    @property
    def fine_objective(self):
        return self.objectives[-1]

    @property
    def fine_fesys(self):
        return self.fesystems[-1]

    def h_fine(self):
        return self.hierarchy.fine.h()

    def domain_volume(self):
        return self.hierarchy.fine.total_volume()

    def refine_iterate(self, z, level):
        """Move an iterate one level finer: prolongate, re-impose the Dirichlet
        interpolant at the new boundary nodes, and repair the slack so the
        result stays in the barrier domain."""
        z = self.P_full[level] @ z
        fes = self.fesystems[level + 1]
        z = apply_dirichlet(fes, z, self.spec.dirichlet)
        z, _ = repair_slack(self.objectives[level + 1], z)
        return z


def build_problem(spec):
    d = len(spec.domain)
    barrier = PLapBarrier(p=spec.p, d=d)
    hier = MeshHierarchy.build(spec.domain, spec.cells0, spec.levels)
    rule = reference_rule(d, 2 * spec.alpha)

    fesystems = [build_fe_system(m, spec.alpha) for m in hier.levels]
    samplers = [DSampler(fes, rule) for fes in fesystems]
    objectives = [
        Objective(fes, smp, barrier, spec.forcing)
        for fes, smp in zip(fesystems, samplers)
    ]

    P_full, P_free = [], []
    for lo, hi in zip(fesystems[:-1], fesystems[1:]):
        P = prolongation(lo, hi)
        P_full.append(P)
        P_free.append(free_prolongation(lo, hi, P_full=P))

    L = hier.L
    P_free_to_fine = [None] * L
    acc = None
    for lvl in range(L - 2, -1, -1):
        acc = P_free[lvl] if acc is None else (acc @ P_free[lvl]).tocsr()
        P_free_to_fine[lvl] = acc

    fes0 = fesystems[0]
    u0 = harmonic_extension(fes0, samplers[0], spec.dirichlet)
    z0 = np.zeros(fes0.total_dim)
    z0[: fes0.n_u] = u0
    z0[fes0.n_u:] = init_slack(objectives[0], u0)

    return ProblemInstance(
        spec=spec,
        barrier=barrier,
        hierarchy=hier,
        fesystems=fesystems,
        samplers=samplers,
        objectives=objectives,
        P_full=P_full,
        P_free=P_free,
        P_free_to_fine=P_free_to_fine,
        z0=z0,
    )


# ---------------------------------------------------------------------------
# plain-text key-value configuration

_CONFIG_KEYS = {
    "p": float,
    "alpha": int,
    "levels": int,
    "cells0": int,
    "theta": float,
    "rho0": float,
    "t_cap": float,
    "c_stp": float,
    "budget_s": float,
    "algorithm": str,
    "dim": int,
    "t0": float,
}


def parse_config_text(text):
    """Parse `key = value` (or `key value`) lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            key, _, val = line.partition(" ")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        out[key] = _CONFIG_KEYS[key](val)
    if "algorithm" in out:
        check_algorithm(out["algorithm"])
    return out


def load_config(path):
    with open(path) as fh:
        return parse_config_text(fh.read())


def spec_from_config(cfg):
    dim = cfg.get("dim", 2)
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    return ProblemSpec(
        p=cfg.get("p", 1.5),
        alpha=cfg.get("alpha", 2),
        levels=cfg.get("levels", 3),
        cells0=cfg.get("cells0", 2),
        domain=UNIT_SQUARE if dim == 2 else UNIT_INTERVAL,
    )
