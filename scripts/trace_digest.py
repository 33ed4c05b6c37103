#!/usr/bin/env python3
"""Digests of solver traces and set-up arrays, for comparing two checkouts.

Builds a fixed set of problems, solves each in several ways and prints one
line per solve and then one per problem:

- a solve line: status, failure reason, t_final, the true Newton steps of
  the run (newton=N, PathTrace.newton_steps: no step-summary rows), a
  digest of the trace's (k, level, newton_iters, direct_step) rows, the
  number of scipy.sparse.linalg.splu calls the solve made (splu=N, counted
  by a wrapper installed around it), and sha256 digests of the trace's
  to_csv(wall_times=False) and of z_final;
- a problem line: digests of z0, of P_full (data, indices and indptr of
  every level pair), of the free prolongations galerkin[lvl].P that a sweep
  multiplies with (the same parts, every coarse level), and of
  rh_constant_estimate at the final iterate of the problem's first solve.

The problems and solves:

- the three benchmark workloads (mgb-p1.5-L4, naive-theta-p1.5-L4,
  mgb-full-p1-L3), each at its default data and with its config;
- p in {1, 1.5, 2} x L in {1, 2, 3} x alpha in {1, 2} at cells0 = 2, each
  under run_mgb with the default config, with direct_cap = 0, with
  predictor = False and with both (Algorithm MGB proper), and under
  naive-theta and naive-h-then-t;
- the p = 1.5 problems of that grid again with t0 = 1e4, past stop_t on
  every one of them, under all three algorithms: each run centers on every
  level at t0 and stops, or fails with one of the runners' first-centering
  and h-refinement reasons;
- the 1-D problem of configs/mgb_p15_1d.cfg (L = 4) under run_mgb;
- the cells of the failure map that the grid lacks: the map is
  p in {1, 1.25, 1.5, 2, 2.5, 3, 4} x alpha in {1, 2} x cells0 in {2, 4} x
  L in {2, 3}, each cell under mgb, naive-theta and naive-h-then-t with the
  default config (its 12 cells at p in {1, 1.5, 2}, cells0 = 2 are grid
  problems, named like them; the others are named p2.5-L3-a2 at cells0 = 2
  and p1.5-L2-a1-c4 at cells0 = 4).

After the count of solves it prints the failure map (ROADMAP item 20) from
those 168 map runs: the failures per p and algorithm, then per failure kind
with the ROADMAP item that owns the kind, then the number of failed runs.

Nothing printed depends on wall time, so two checkouts that behave alike
print the same text, and `diff` of their outputs checks that a change keeps
behaviour. A solver failure is a line like any other; the script exits
non-zero only on an exception.

The rows view, the output without problem lines and with each solve line
cut before " csv=", holds the Newton work, factorizations and outcome of
every solve and the failure map, without the objective, decrement and
z_final values that roundoff moves. A change that moves only roundoff
prints the same rows view as its parent, so `diff` of two rows views checks
that it keeps every Newton count, factorization and failure; a change in
the factorizations alone shows as a changed splu count. The script needs
only the solver's public calls, so this checkout's copy can run against
another checkout's solver by PYTHONPATH.

    PYTHONPATH=src python3 -W error::RuntimeWarning scripts/trace_digest.py > digest.txt
    sed -e '/ problem: /d' -e 's/ csv=.*//' digest.txt > rows.txt
"""

import os

# BLAS reads these when numpy is first imported, so they are set before it is
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import sys
from collections import Counter

import numpy as np
import scipy.sparse.linalg as spla

from mgbarrier.diagnostics import rh_constant_estimate
from mgbarrier.pathfollow import ALGORITHMS, STATUS_CONVERGED, PathConfig
from mgbarrier.problems import UNIT_INTERVAL, ProblemSpec, build_problem

GRID_RUNS = (("mgb", "mgb", {}),
             ("mgb-direct0", "mgb", dict(direct_cap=0)),
             ("mgb-nopredictor", "mgb", dict(predictor=False)),
             ("naive-theta", "naive-theta", {}),
             ("naive-h-then-t", "naive-h-then-t", {}),
             ("mgb-full", "mgb", dict(direct_cap=0, predictor=False)))
# the failure map's runs: the grid's runs at the default config
MAP_RUNS = tuple(run for run in GRID_RUNS if not run[2])
# t0 past stop_t: the runners go straight from the first centering to the
# fine level
PAST_STOP_RUNS = tuple((f"{name}-t0=1e4", name, dict(t0=1e4))
                       for name in ("mgb", "naive-theta", "naive-h-then-t"))

GRID_P = (1.0, 1.5, 2.0)
MAP_P = (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0)
# (p, alpha, cells0, L) of every failure map cell
MAP_CELLS = tuple(itertools.product(MAP_P, (1, 2), (2, 4), (2, 3)))
# failure kind (a substring of the failure reason) -> the ROADMAP item that owns it
FAILURE_OWNERS = (("iteration-cap", "items 1, 21 and 7"),
                  ("slack block not SPD", "item 10"),
                  ("interior block not SPD", "item 10"),
                  ("diagonal of S not positive", "item 10"),
                  ("lambda^2", "none: not yet understood"))


def cases():
    """(problem name, ProblemSpec, [(run name, algorithm, PathConfig keys)])."""
    yield ("mgb-p1.5-L4", ProblemSpec(p=1.5, alpha=2, levels=4, cells0=4),
           [("mgb", "mgb", dict(rho0=2.0, c_stp=1.0, t_cap=1e8))])
    yield ("naive-theta-p1.5-L4", ProblemSpec(p=1.5, alpha=2, levels=4, cells0=4),
           [("naive-theta", "naive-theta", dict(theta=0.5, rho0=2.0))])
    yield ("mgb-full-p1-L3", ProblemSpec(p=1.0, alpha=2, levels=3, cells0=4),
           [("mgb", "mgb", dict(direct_cap=0))])
    for p in GRID_P:
        for levels in (1, 2, 3):
            for alpha in (1, 2):
                runs = GRID_RUNS + (PAST_STOP_RUNS if p == 1.5 else ())
                yield (f"p{p}-L{levels}-a{alpha}",
                       ProblemSpec(p=p, alpha=alpha, levels=levels, cells0=2), runs)
    yield ("1d-p1.5-L4", ProblemSpec(p=1.5, alpha=2, levels=4, cells0=4,
                                     domain=UNIT_INTERVAL), [("mgb", "mgb", {})])
    for p, alpha, cells0, levels in MAP_CELLS:
        if cells0 == 4 or p not in GRID_P:
            yield (f"p{p}-L{levels}-a{alpha}" + ("-c4" if cells0 == 4 else ""),
                   ProblemSpec(p=p, alpha=alpha, levels=levels, cells0=cells0), MAP_RUNS)


def digest(*parts):
    """First 16 hex digits of the sha256 of strings and arrays (an array's
    dtype and shape included)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()[:16]


def csr_parts(matrices):
    return [x for P in matrices for x in (P.data, P.indices, P.indptr)]


def count_splu_calls():
    """Wrap scipy.sparse.linalg.splu, which the solver looks up at each call,
    so that it counts its calls; returns a function giving the count."""
    splu, calls = spla.splu, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return splu(*args, **kwargs)

    spla.splu = counted
    return lambda: calls[0]


def failure_kind(reason):
    """(kind, owning ROADMAP item) of a failure reason."""
    for kind, owner in FAILURE_OWNERS:
        if kind in reason:
            return kind, owner
    return reason, "none"


def print_failure_map(fails, runs, kinds):
    """The failures per p and algorithm and per failure kind, then the total."""
    algorithms = [algorithm for _, algorithm, _ in MAP_RUNS]
    print("\n| p | " + " | ".join(f"{a} fails" for a in algorithms) + " |")
    print("|---" * (len(algorithms) + 1) + "|")
    for p in MAP_P:
        print(f"| {p:g} | " + " | ".join(f"{fails[p, a]} of {runs[p, a]}"
                                         for a in algorithms) + " |")
    print("\n| failure kind | failures | ROADMAP owner |\n|---|---|---|")
    for (kind, owner), n in sorted(kinds.items(), key=lambda item: (-item[1], item[0][0])):
        print(f"| {kind} | {n} | {owner} |")
    print(f"{fails.total()} of {runs.total()} runs failed")


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    splu_calls = count_splu_calls()
    n = 0
    fails, map_runs, kinds = Counter(), Counter(), Counter()
    for name, spec, runs in cases():
        problem = build_problem(spec)
        in_map = (spec.p, spec.alpha, spec.cells0, spec.levels) in MAP_CELLS
        finals = []
        for run, algorithm, keys in runs:
            before = splu_calls()
            trace = ALGORITHMS[algorithm](problem, PathConfig(**keys))
            splu = splu_calls() - before
            z = trace.z_final
            finals.append(z)
            work = [(r.k, r.level, r.newton_iters, r.direct_step) for r in trace.rows]
            print(f"{name} {run}: {trace.status} {trace.failure_reason!r} "
                  f"t_final={trace.t_final!r} newton={trace.newton_steps} "
                  f"rows={digest(np.array(work, dtype=np.int64))} splu={splu} "
                  f"csv={digest(trace.to_csv(wall_times=False))} "
                  f"z_final={'-' if z is None else digest(z)}")
            if in_map and not keys:
                failed = trace.status != STATUS_CONVERGED
                map_runs[spec.p, algorithm] += 1
                fails[spec.p, algorithm] += failed
                if failed:
                    kinds[failure_kind(trace.failure_reason)] += 1
        n += len(runs)
        z = finals[0]
        rh = "-" if z is None else digest(repr(rh_constant_estimate(problem, z)))
        print(f"{name} problem: z0={digest(problem.z0)} "
              f"P_full={digest(*csr_parts(problem.P_full))} "
              f"galerkin_P={digest(*csr_parts(g.P for g in problem.galerkin[:-1]))} "
              f"rh={rh}")
    print(f"{n} solves")
    print_failure_map(fails, map_runs, kinds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
