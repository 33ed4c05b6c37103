"""Command line interface: solve, bench, check.

Exit codes: 0 success, 2 solver failure, 3 budget exhaustion, 4 invalid
input: an unreadable or invalid config, or invalid arguments (a one-line
message on stderr; nothing is solved).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import diagnostics
from .femspace import dump_solution
from .mesh import dump_mesh, quasi_uniformity
from .pathfollow import (ALGORITHMS, PathConfig, STATUS_BUDGET,
                         STATUS_CONVERGED, check_algorithm, run_mgb)
from .problems import ProblemSpec, build_problem, load_config, spec_from_config

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 2
EXIT_BUDGET = 3
EXIT_INVALID_INPUT = 4


def _path_config(cfg):
    keys = ("rho0", "c_stp", "t_cap", "theta", "budget_s", "t0", "predictor")
    return PathConfig(**{key: cfg[key] for key in keys if key in cfg})


def _invalid_input(exc):
    print(f"mgbarrier: invalid input: {exc}", file=sys.stderr)
    return EXIT_INVALID_INPUT


def cmd_solve(args):
    try:
        cfg = load_config(args.config)
        spec = spec_from_config(cfg)
        config = _path_config(cfg)
    except (OSError, ValueError) as exc:
        return _invalid_input(exc)
    problem = build_problem(spec)
    algorithm = cfg.get("algorithm", "mgb")
    trace = ALGORITHMS[algorithm](problem, config)

    if args.dump_mesh:
        dump_mesh(problem.hierarchy.fine, args.dump_mesh)
    if args.dump_solution and trace.z_final is not None:
        dump_solution(problem.fine_fesys, trace.z_final, args.dump_solution)
    if args.trace:
        trace.write_csv(args.trace)

    print(f"algorithm={algorithm} p={spec.p} levels={spec.levels} "
          f"n={problem.fine_fesys.total_dim}")
    print(f"status={trace.status} t_final={trace.t_final!r} "
          f"total_newton={trace.total_newton}")
    if trace.status == STATUS_CONVERGED:
        return EXIT_OK
    if trace.status == STATUS_BUDGET:
        print(f"budget exhausted: {trace.failure_reason}", file=sys.stderr)
        return EXIT_BUDGET
    print(f"solver failure: {trace.failure_reason}", file=sys.stderr)
    return EXIT_SOLVER_FAILURE


def _parse_list(text, cast):
    return [cast(tok.strip()) for tok in text.split(",") if tok.strip()]


def cmd_bench(args):
    try:
        cfg = load_config(args.config) if args.config else {}
        config = _path_config(cfg)
        algorithms = [check_algorithm(a) for a in _parse_list(args.algorithms, str)]
        p_values = _parse_list(args.p_values, float)
        level_values = _parse_list(args.levels, int)
        base = {"alpha": cfg.get("alpha", 2), "cells0": cfg.get("cells0", 4)}
        ProblemSpec(**base)  # rejects an invalid alpha or cells0 before any cell
    except (OSError, ValueError) as exc:
        return _invalid_input(exc)
    csv = diagnostics.bench(algorithms, p_values, level_values,
                            base_spec_kwargs=base, config=config)
    with open(args.out, "w") as fh:
        fh.write(csv)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_check(args):
    """Cheap invariant suite: substrate identities and a small solver run."""
    failures = []

    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    spec = ProblemSpec(p=1.5, alpha=2, levels=3, cells0=2)
    problem = build_problem(spec)
    for lvl, mesh in enumerate(problem.hierarchy.levels, start=1):
        check(f"level {lvl}: element volumes sum to |Omega|",
              abs(mesh.total_volume() - 1.0) < 1e-12)
        _, rho = quasi_uniformity(mesh)
        check(f"level {lvl}: quasi-uniformity 0 < rho <= 1", 0 < rho <= 1)
    for smp in problem.samplers:
        check("positive quadrature weights", bool(np.all(smp.wq > 0)))

    trace = run_mgb(problem, PathConfig(budget_s=120))
    check("small MGB run converges", trace.status == STATUS_CONVERGED)
    check("t capped at 1e8", trace.t_final <= 1e8)

    gaps = diagnostics.filter_gap(trace, problem.barrier.nu,
                                  problem.domain_volume())
    check("filter bound holds along the path",
          all(gap <= bound + 1e-9 for _, _, gap, bound in gaps))

    return EXIT_OK if not failures else EXIT_SOLVER_FAILURE


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mgbarrier",
        description="Multigrid barrier solver for convex Euler-Lagrange problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="follow the central path for one problem")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--dump-mesh", default=None, metavar="PATH")
    p_solve.add_argument("--dump-solution", default=None, metavar="PATH")
    p_solve.add_argument("--trace", default=None, metavar="PATH")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="iteration-count benchmark matrix")
    p_bench.add_argument("--config", default=None)
    p_bench.add_argument("--out", required=True, metavar="CSV")
    p_bench.add_argument("--algorithms", default="mgb,naive-theta")
    p_bench.add_argument("--p-values", default="1.5")
    p_bench.add_argument("--levels", default="1,2,3")
    p_bench.set_defaults(func=cmd_bench)

    p_check = sub.add_parser("check", help="run the invariant/diagnostic suite")
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
