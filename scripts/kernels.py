#!/usr/bin/env python3
"""Micro-benchmarks of one Newton step's kernels at a fixed fine-grid iterate.

The iterate is the problem's initial z0 carried to the finest level with
refine_iterate, at the path's initial t. Prints one JSON line with the
repeat-median milliseconds of:

- sample: Dz at every fine quadrature node;
- grad_hess: the free gradient and the condensed Hessian, which is
  - element_blocks: the element gradients and the u-u, s-u and s-s
    Hessian blocks, each a reference table times per-node features, laid
    out (entries, elements), barrier terms included, and
  - assemble: the elimination of each element's slack (condense) and the
    scatter into the free gradient and the free-u CSR pattern of the Schur
    complement S;
- condense: that elimination alone, the Cholesky of every slack block and
  the Schur complement of its u-u block, on the distinct entries;
- restrict (one per coarse level, coarsest first): the Galerkin restriction
  of the fine element blocks to that level's free dofs, one product of each
  block with its child-to-parent table per level, including the
  condensation and scatter into the level's pattern;
- decrement_repeated_pattern: DirectSolver.decrement, the same on a new
  solver as on a used one: the shift of S, the elimination of every
  parent's interior and the gather of the skeleton Schur complement R in
  the plan's order, the factorization of R in that order, and the solve;
- regularize: that shift, elimination and gather alone;
- interior: condense on every parent's interior block alone, the core of
  that elimination (null on a fine level without parents);
- solve: one DirectSolver.solve with that decrement's factor, i.e. the
  slack condensed out of the right-hand side, then the parents' interiors,
  the solve with R, and both back-substituted (CondensedHessian.solve,
  twice);
- plan: building the fine level's TwoStagePlan: the skeleton, R's pattern
  (the union of the parents' boundary cliques), R's order, and R's CSC
  pattern and the interior stage's tables in that order, built once per
  level on its first Hessian and shared by every later run;
- order: R's minimum-degree order alone (min_degree_order on R's pattern
  in skeleton order), the part of plan that SuperLU runs;
- value: one line-search evaluation;

plus build: build_problem, the setup of every level, and its split into
the phases build_problem runs in order, each repeat from scratch:

- setup_refine: the box mesh and its uniform refinements (build_meshes);
- setup_fe_systems: every level's FE system, sampler and objective
  (build_objectives);
- setup_prolongations: the prolongations P_full between consecutive
  levels (build_prolongations; the free blocks P_free are built on a
  run's first multigrid sweep, not here);
- setup_start: the starting point, the harmonic extension plus init_slack
  (starting_point);

and the free dofs, the dofs and nnz of S, the dofs (skeleton_dofs) and
nnz (skeleton_nnz) of R, the fill (nnz of L+U) of R's factor and the
host's versions.
BLAS and OpenMP pools are pinned to one thread, as in perfbench/run.py.

    PYTHONPATH=src python3 scripts/kernels.py --levels 4 --repeats 15
"""

import os

# BLAS reads these when numpy is first imported, so they are set before it is
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys
import time

import numpy as np
import scipy
import scipy.sparse.linalg as spla

from mgbarrier import newton
from mgbarrier.assembly import TwoStagePlan, condense, min_degree_order
from mgbarrier.barrier import PLapBarrier
from mgbarrier.pathfollow import PathConfig
from mgbarrier.problems import (ProblemSpec, build_meshes, build_objectives,
                                build_problem, build_prolongations, starting_point)


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def setup_split_ms(spec, repeats):
    """Repeat-median ms of build_problem's phases, in its order. Every
    repeat builds new meshes, so no phase finds work cached by an earlier one."""
    times = {"refine": [], "fe_systems": [], "prolongations": [], "start": []}
    barrier = PLapBarrier(p=spec.p, d=len(spec.domain))
    for _ in range(repeats):
        t0 = time.perf_counter()
        meshes = build_meshes(spec)
        t1 = time.perf_counter()
        objectives = build_objectives(spec, meshes, barrier)
        t2 = time.perf_counter()
        build_prolongations(objectives)
        t3 = time.perf_counter()
        starting_point(objectives[0], spec.dirichlet)
        t4 = time.perf_counter()
        for name, dt in zip(times, np.diff([t0, t1, t2, t3, t4])):
            times[name].append(dt)
    return {f"setup_{name}_ms": 1e3 * statistics.median(ts) for name, ts in times.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--p", type=float, default=1.5)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--cells0", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args()

    spec = ProblemSpec(p=args.p, alpha=2, levels=args.levels, cells0=args.cells0)
    problem = build_problem(spec)
    z = problem.z0
    for lvl in range(problem.L - 1):
        z = problem.refine_iterate(z, lvl)
    obj = problem.fine_objective
    t = PathConfig().initial_t(problem)
    g, H = obj.grad_hess(z, t)
    blocks = obj.element_blocks(z)
    g0 = t * obj.cost_vector[obj.free_idx()]

    fills = []
    splu = spla.splu

    def logged_splu(A, **kwargs):
        lu = splu(A, **kwargs)
        fills.append(lu.nnz)
        return lu

    solver = newton.DirectSolver()
    spla.splu = logged_splu
    try:
        decrement_ms = median_ms(lambda: solver.decrement(g, H), args.repeats)
    finally:
        spla.splu = splu
    plan = H.plan
    R = newton.regularize(H.S, plan).S
    # R's pattern in skeleton order, entry (i, j) of R at (perm[i], perm[j])
    inverse = np.argsort(plan.perm)
    cols = inverse[np.repeat(np.arange(R.shape[0]), np.diff(plan.indptr))]
    rows = inverse[plan.indices]
    interior_ms = None
    if plan.interior is not None:
        n_int, ii, ib, _, _ = plan.interior
        entries = np.append(H.S.data, 0.0)  # S's entries and the 0 that R's fill reads
        su, ss = np.take(entries, ib), np.take(entries, ii)
        interior_ms = median_ms(lambda: condense(0.0, su, ss, n_int), args.repeats)

    print(json.dumps({
        "levels": args.levels,
        "dofs": len(g),
        "schur_dofs": H.S.shape[0],
        "schur_nnz": H.S.nnz,
        "skeleton_dofs": R.shape[0],
        "skeleton_nnz": R.nnz,
        "repeats": args.repeats,
        "sample_ms": median_ms(lambda: obj.sampler.sample(z), args.repeats),
        "grad_hess_ms": median_ms(lambda: obj.grad_hess(z, t), args.repeats),
        "element_blocks_ms": median_ms(lambda: obj.element_blocks(z), args.repeats),
        "assemble_ms": median_ms(lambda: obj.assemble(*blocks, g0), args.repeats),
        "condense_ms": median_ms(lambda: condense(*blocks[1:], obj.fesys.n_ls), args.repeats),
        "restrict_ms": [median_ms(lambda: gal.restrict(*blocks, t), args.repeats)
                        for gal in problem.galerkin[:-1]],
        "decrement_repeated_pattern_ms": decrement_ms,
        "regularize_ms": median_ms(lambda: newton.regularize(H.S, plan), args.repeats),
        "interior_ms": interior_ms,
        "solve_ms": median_ms(lambda: solver.solve(g), args.repeats),
        "plan_ms": median_ms(lambda: TwoStagePlan(H.S.indptr, H.S.indices, obj.parent_dofs),
                             args.repeats),
        "order_ms": median_ms(lambda: min_degree_order(rows, cols, R.shape[0]), args.repeats),
        "value_ms": median_ms(lambda: obj.value(z, t), args.repeats),
        "build_ms": median_ms(lambda: build_problem(spec), args.repeats),
        **setup_split_ms(spec, args.repeats),
        "fill_nnz_repeated_pattern": fills[-1],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
