#!/usr/bin/env python3
"""Micro-benchmarks of one Newton step's kernels at a fixed fine-grid iterate.

The iterate is the problem's initial z0 carried to the finest level with
refine_iterate, at the path's initial t. The objective keeps a record of the
last point it evaluated, so the kernels that evaluate it at a point (value,
element_blocks, grad_hess and value_grad_hess) take turns between that
iterate and a second one, the same with every slack dof raised by 1%: no
call finds its point in the record, and each times the kernel cold. Prints
one JSON line with the repeat-median milliseconds of:

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
- condense_coarse (one per element count, 32, 128, 512 and 2,048, the
  element counts of levels 1 to 4 from cells0 = 4): condense on that many
  of the fine element blocks, cycled where the fine level has fewer, the
  sizes at which a coarse level's Galerkin Hessian condenses its slack;
- restrict (one per coarse level, coarsest first): the Galerkin restriction
  of the fine element blocks to that level's free dofs, one product of each
  block with its child-to-parent table per level, including the
  condensation and scatter into the level's pattern;
- decrement_repeated_pattern: newton.newton_decrement on a pattern whose
  plan is built: the shift of S, the elimination of every parent's
  interior and the gather of the skeleton Schur complement R in the plan's
  order, the factorization of R in that order, and the solve;
- regularize: that shift, elimination and gather alone;
- interior: condense on every parent's interior block alone, the core of
  that elimination (null on a fine level without parents);
- solve: one H.solve with the factor that decrement leaves on H, i.e.
  the slack condensed out of the right-hand side, then the parents'
  interiors, the solve with R, and both back-substituted (Stage.solve
  twice: H.slack's, then the interior stage's that newton.regularize
  returns);
- plan: building the fine level's TwoStagePlan: the skeleton, R's pattern
  (the union of the parents' boundary cliques), R's order, and R's CSC
  pattern and the interior stage's tables in that order, built once per
  level on its first Hessian and shared by every later run;
- order: R's minimum-degree order alone (min_degree_order on R's pattern
  in skeleton order), the part of plan that SuperLU runs;
- value: one line-search evaluation;
- value_grad_hess: a line-search value followed by grad_hess at the same
  point, the pair that an accepted trial costs a centering, which share
  the sampled Dz and the barrier's gap terms through the record;

plus build: build_problem, the setup of every level, and its split into
the phases build_problem runs in order, each repeat from scratch
(timed after the kernels, outside the heap policy, as perfbench/run.py
times set-up):

- setup_refine: the box mesh and its uniform refinements (build_meshes);
- setup_fe_systems: every level's FE system, sampler and objective
  (build_objectives);
- setup_prolongations: the prolongations P_full between consecutive
  levels (build_prolongations; their free blocks are sliced on a run's
  first multigrid sweep, where galerkin multiplies them, not here);
- setup_start: the starting point, the harmonic extension plus init_slack
  (starting_point);

and the free dofs, the dofs and nnz of S, the dofs (skeleton_dofs) and
nnz (skeleton_nnz) of R, the fill (nnz of L+U) of R's factor and the
host's versions.

Every *_ms is in milliseconds at the reference speed of perfbench's probe
kernel (perfbench/probe.py): the raw median is scaled by the speed of the
probes run just before and just after its repeats, so that runs on a
shared host, whose speed drifts by tens of percent, can be compared.
probe_ms is the median raw probe time, against probe.REFERENCE_S. The step
kernels are timed inside pathfollow.heap_policy, the allocation conditions
of a solve. BLAS and OpenMP pools are pinned to one thread, as in
perfbench/run.py.

    PYTHONPATH=src python3 scripts/kernels.py --levels 4 --repeats 15
"""

import os

# BLAS reads these when numpy is first imported, so they are set before it is
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse.linalg as spla

from mgbarrier import newton
from mgbarrier.assembly import TwoStagePlan, condense, min_degree_order
from mgbarrier.barrier import PLapBarrier
from mgbarrier.pathfollow import PathConfig, heap_policy
from mgbarrier.problems import (ProblemSpec, build_meshes, build_objectives,
                                build_problem, build_prolongations, starting_point)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from probe import SpeedProbe  # noqa: E402

# the element counts of levels 1 to 4 from cells0 = 4, at which condense_coarse times condense
COARSE_ELEMENTS = (32, 128, 512, 2048)


def reference_speed(probe, timed):
    """timed() between two probe runs, then the probes' speed relative to
    the probe's reference: the factor from raw to reference time."""
    probe.probe()
    timed()
    probe.probe()
    wall, ref = probe.segments()[-1]
    return ref / wall


def median_ms(fn, repeats, probe):
    """The repeat-median ms of fn at the probe's reference speed."""
    times = []

    def timed():
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)

    speed = reference_speed(probe, timed)
    return 1e3 * statistics.median(times) * speed


def setup_split_ms(spec, repeats, probe):
    """Repeat-median ms of build_problem's phases, in its order, at the
    probe's reference speed. Every repeat builds new meshes, so no phase
    finds work cached by an earlier one."""
    times = {"refine": [], "fe_systems": [], "prolongations": [], "start": []}
    barrier = PLapBarrier(p=spec.p, d=len(spec.domain))

    def timed():
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

    speed = reference_speed(probe, timed)
    return {f"setup_{name}_ms": 1e3 * statistics.median(ts) * speed
            for name, ts in times.items()}


def step_kernels(problem, repeats, probe):
    """The kernels of one Newton step at the refined iterate, by name."""
    z = problem.z0
    for lvl in range(problem.L - 1):
        z = problem.refine_iterate(z, lvl)
    obj = problem.fine_objective
    t = PathConfig().initial_t(problem)
    g, H = obj.grad_hess(z, t)
    blocks = obj.element_blocks(z)
    g0 = t * obj.cost_vector[obj.free_idx()]
    raised = z.copy()
    raised[obj.fesys.n_u:] *= 1.01
    points = itertools.cycle([raised, z])

    def cold(fn):
        """fn at the next of the two points in turn: never the point of the
        call before it, so never one that the record holds."""
        return lambda: fn(next(points))

    def ms(fn):
        return median_ms(fn, repeats, probe)

    fills = []
    splu = spla.splu

    def logged_splu(A, **kwargs):
        lu = splu(A, **kwargs)
        fills.append(lu.nnz)
        return lu

    spla.splu = logged_splu
    try:
        decrement_ms = ms(lambda: newton.newton_decrement(g, H))
    finally:
        spla.splu = splu
    plan = H.plan
    R, _ = newton.regularize(H.S, plan)
    # R's pattern in skeleton order, entry (i, j) of R at (perm[i], perm[j])
    inverse = np.argsort(plan.perm)
    cols = inverse[np.repeat(np.arange(R.shape[0]), np.diff(plan.indptr))]
    rows = inverse[plan.indices]
    interior_ms = None
    if plan.interior is not None:
        n_int, ii, ib, _, _ = plan.interior
        entries = np.append(H.S.data, 0.0)  # S's entries and the 0 that R's fill reads
        su, ss = np.take(entries, ib), np.take(entries, ii)
        interior_ms = ms(lambda: condense(0.0, su, ss, n_int))
    ne = blocks[1].shape[1]
    coarse = {n: [np.ascontiguousarray(x[:, np.arange(n) % ne]) for x in blocks[1:]]
              for n in COARSE_ELEMENTS}

    return {
        "dofs": len(g),
        "schur_dofs": H.S.shape[0],
        "schur_nnz": H.S.nnz,
        "skeleton_dofs": R.shape[0],
        "skeleton_nnz": R.nnz,
        "sample_ms": ms(lambda: obj.sampler.sample(z)),
        "grad_hess_ms": ms(cold(lambda x: obj.grad_hess(x, t))),
        "element_blocks_ms": ms(cold(obj.element_blocks)),
        "assemble_ms": ms(lambda: obj.assemble(*blocks, g0)),
        "condense_ms": ms(lambda: condense(*blocks[1:], obj.fesys.n_ls)),
        "condense_coarse_ms": {str(n): ms(lambda: condense(*coarse[n], obj.fesys.n_ls))
                               for n in COARSE_ELEMENTS},
        "restrict_ms": [ms(lambda: gal.restrict(*blocks, t)) for gal in problem.galerkin[:-1]],
        "decrement_repeated_pattern_ms": decrement_ms,
        "regularize_ms": ms(lambda: newton.regularize(H.S, plan)),
        "interior_ms": interior_ms,
        "solve_ms": ms(lambda: H.solve(g)),
        "plan_ms": ms(lambda: TwoStagePlan(H.S.indptr, H.S.indices, obj.parent_dofs)),
        "order_ms": ms(lambda: min_degree_order(rows, cols, R.shape[0])),
        "value_ms": ms(cold(lambda x: obj.value(x, t))),
        "value_grad_hess_ms": ms(cold(lambda x: (obj.value(x, t), obj.grad_hess(x, t)))),
        "fill_nnz_repeated_pattern": fills[-1],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--p", type=float, default=1.5)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--cells0", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args()

    spec = ProblemSpec(p=args.p, alpha=2, levels=args.levels, cells0=args.cells0)
    problem = build_problem(spec)
    probe = SpeedProbe()
    with heap_policy():
        kernels = step_kernels(problem, args.repeats, probe)
    setup = {"build_ms": median_ms(lambda: build_problem(spec), args.repeats, probe),
             **setup_split_ms(spec, args.repeats, probe)}
    print(json.dumps({
        "levels": args.levels,
        "repeats": args.repeats,
        **kernels,
        **setup,
        "probe_ms": probe.median_ms(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
