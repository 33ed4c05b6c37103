"""Command line interface: solve, bench, check; the config format.

Exit codes: 0 success, 2 solver failure, 3 budget exhaustion, 4 invalid
input: an unreadable or invalid config, invalid arguments, an unwritable output
path or an unbuildable starting point (one line on stderr; nothing is solved).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import diagnostics
from .femspace import dump_solution
from .mesh import dump_mesh, quasi_uniformity
from .pathfollow import (ALGORITHMS, PathConfig, STATUS_BUDGET,
                         STATUS_CONVERGED, check_algorithm, run_mgb)
from .problems import UNIT_INTERVAL, UNIT_SQUARE, ProblemSpec, build_problem

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 2
EXIT_BUDGET = 3
EXIT_INVALID_INPUT = 4


# ---------------------------------------------------------------------------
# plain-text key-value configuration

def _boolean(text):
    """True for "true", False for "false", in any case."""
    word = text.lower()
    if word not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return word == "true"


# every config key and its parser, grouped by the object the key sets;
# an unset key keeps that object's default
_SPEC_KEYS = {"p": float, "alpha": int, "levels": int, "cells0": int}
_PATH_KEYS = {"rho0": float, "c_stp": float, "t_cap": float, "t0": float,
              "theta": float, "budget_s": float, "predictor": _boolean}
_CONFIG_KEYS = {**_SPEC_KEYS, **_PATH_KEYS, "dim": int, "algorithm": check_algorithm}


def parse_config_text(text):
    """Parse `key = value` or `key value` lines (any whitespace); '#' starts a comment.

    A key may be set once. An unknown or repeated key, or a value its parser
    rejects, is a ValueError naming the key and its line.
    """
    out, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            key, val = (line.split(None, 1) + [""])[:2]
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        if key in lines:
            raise ValueError(f"config key {key!r} on line {lineno} "
                             f"repeats line {lines[key]}")
        try:
            out[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ValueError(f"config key {key!r} on line {lineno}: {exc}") from None
        lines[key] = lineno
    return out


def load_config(path):
    with open(path) as fh:
        return parse_config_text(fh.read())


def spec_from_config(cfg, **overrides):
    """ProblemSpec from the config's problem keys, `overrides` taking precedence."""
    dim = cfg.get("dim", 2)
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    keys = {key: cfg[key] for key in _SPEC_KEYS if key in cfg}
    return ProblemSpec(**{**keys, **overrides},
                       domain=UNIT_SQUARE if dim == 2 else UNIT_INTERVAL)


def _path_config(cfg):
    return PathConfig(**{key: cfg[key] for key in _PATH_KEYS if key in cfg})


def _check_writable(*paths):
    """Raise OSError unless every given path (None is skipped) can be opened
    for writing; a file this creates is removed again."""
    for path in filter(None, paths):
        existed = os.path.exists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)


def _invalid_input(exc):
    print(f"mgbarrier: invalid input: {exc}", file=sys.stderr)
    return EXIT_INVALID_INPUT


def cmd_solve(args):
    try:
        cfg = load_config(args.config)
        spec = spec_from_config(cfg)
        config = _path_config(cfg)
        _check_writable(args.dump_mesh, args.dump_solution, args.trace)
        problem = build_problem(spec)
    except (OSError, ValueError, RuntimeError) as exc:
        return _invalid_input(exc)
    algorithm = cfg.get("algorithm", "mgb")
    trace = ALGORITHMS[algorithm](problem, config)

    if args.dump_mesh:
        dump_mesh(problem.fine_fesys.mesh, args.dump_mesh)
    if args.dump_solution and trace.z_final is not None:
        dump_solution(problem.fine_fesys, trace.z_final, args.dump_solution)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace.to_csv())

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
    """Run the (algorithm, p, levels) matrix; failed cells are rows, not errors.

    The config sets every other problem and path key (cells0 defaults to 4
    here); every cell's spec is validated before the first cell runs.
    """
    try:
        cfg = {"cells0": 4, **(load_config(args.config) if args.config else {})}
        config = _path_config(cfg)
        algorithms = [check_algorithm(a) for a in _parse_list(args.algorithms, str)]
        specs = [spec_from_config(cfg, p=p, levels=levels)
                 for p in _parse_list(args.p_values, float)
                 for levels in _parse_list(args.levels, int)]
        _check_writable(args.out)
    except (OSError, ValueError) as exc:
        return _invalid_input(exc)
    rows = ["algorithm,p,h,fine_cells,total_newton,max_step_newton,t_final,status,wall_s"]
    for algorithm in algorithms:
        for spec in specs:
            try:
                problem = build_problem(spec)
            except RuntimeError:  # no starting point: a row without numbers
                rows.append(f"{algorithm},{spec.p!r},,,,,,setup-failure,")
                continue
            start = time.monotonic()
            trace = ALGORITHMS[algorithm](problem, config)
            wall = time.monotonic() - start
            rows.append(f"{algorithm},{spec.p!r},{problem.h_fine()!r},"
                        f"{problem.fine_fesys.mesh.num_elements},{trace.total_newton},"
                        f"{trace.max_step_newton()},{trace.t_final!r},"
                        f"{trace.status},{wall:.3f}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(rows) + "\n")
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
    for lvl, obj in enumerate(problem.objectives, start=1):
        mesh = obj.fesys.mesh
        check(f"level {lvl}: element volumes sum to |Omega|",
              abs(mesh.total_volume() - 1.0) < 1e-12)
        _, rho = quasi_uniformity(mesh)
        check(f"level {lvl}: quasi-uniformity 0 < rho <= 1", 0 < rho <= 1)
        check(f"level {lvl}: positive quadrature weights", bool(np.all(obj.sampler.wq > 0)))

    trace = run_mgb(problem, PathConfig(budget_s=120))
    check("small MGB run converges", trace.status == STATUS_CONVERGED)
    check("t capped at 1e8", trace.t_final <= 1e8)

    gaps = diagnostics.filter_gap(trace, problem.barrier.nu,
                                  problem.domain_volume())
    check("filter bound holds along the path",
          all(gap <= bound + 1e-9 for _, _, gap, bound in gaps))
    # a sampled lower estimate at the final iterate, >= 1 by definition
    for lvl, C in enumerate(diagnostics.rh_constant_estimate(problem, trace.z_final), 1):
        check(f"level {lvl}: reverse Hoelder estimate 1 <= C < inf (C = {C:.3g})",
              1.0 <= C < np.inf)

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
