"""Solver benchmark: time to solution and Newton work per workload.

    python3 perfbench/run.py --workload mgb-p1.5-L4 --seed 0 --seconds 30 --trace 0

Run from the repository root; the solver is imported from ./src. A run
builds the problem 15 times, then times one solve (15-35 s on 2 cores; the
--seconds argument does not change that). With --trace 0 the last stdout
line is a JSON object with the end-to-end metrics of that solve, which is
untraced apart from two counting hooks. Its times are in seconds at the
reference speed of a fixed probe kernel run between builds and during the
solve (perfbench/probe.py), because a shared host's speed can drift by tens
of percent; the raw wall times are printed above it. With --trace 1 a
second, traced solve follows; the JSON has its per-layer split, from
wrappers around each module's public calls, and the tracing overhead
(traced minus untraced wall time). The raw spans go to .bench_build/spans/. Earlier lines give each metric with
its unit (as declared in BENCHMARK.json), the host, the correctness gate and
the behaviour digest.

Workloads: mgb-p1.5-L4, naive-theta-p1.5-L4, mgb-full-p1-L3. Metric
definitions and what each layer metric should move: perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = Path(".bench_build") / "spans"   # relative to ROOT; git-ignored
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """Pin BLAS/OpenMP pools to one thread (before numpy is imported).

    Only SuperLU's BLAS calls would use a second thread; on 2 cores it gave
    the same wall time at 1.5x the CPU time, and more exposure to contention.
    The thread count also changes roundoff, so it is part of the digest.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_solver():
    """Import mgbarrier from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mgbarrier" / "__init__.py").is_file():
        sys.exit(f"solver source not found under {src}")
    sys.path.insert(0, str(src))
    import mgbarrier
    if Path(mgbarrier.__file__).resolve().parent != src / "mgbarrier":
        sys.exit(f"imported mgbarrier from {mgbarrier.__file__}, not {src}")


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def host_info():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_threads()
    import_solver()
    import harness
    from probe import REFERENCE_S

    if args.workload not in harness.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(harness.WORKLOADS)}")
    workload = harness.WORKLOADS[args.workload]
    phase_idx = args.seed % harness.N_PHASES
    ref_entry = harness.load_reference()["workloads"][workload.name][phase_idx]

    print("host:", json.dumps(host_info()))
    print(f"workload: {workload.name} seed={args.seed} "
          f"phase={harness.phase_of(args.seed):.4g} rad trace={args.trace}")
    problem, setup, records = harness.run(workload, args.seed, ref_entry, bool(args.trace))
    print(f"free dofs (fine): {len(problem.fine_objective.free_idx())}")

    failed = 0
    for i, rec in zip(("untraced", "traced"), records):
        if rec.error:
            print(f"solve {i}: ERROR\n{rec.error}", end="")
        else:
            tc = harness.trace_counts(rec.trace)
            b = harness.behaviour(rec.trace, ref_entry)
            kind = ("unchanged" if b["digest_match"] else
                    "roundoff-only change" if b["newton_rows_changed"] == 0
                    else "Newton steps changed")
            print(f"solve {i}: {rec.ref_s:.3f} s at reference speed; median probe "
                  f"{rec.probe_ms:.3f} ms against {1e3 * REFERENCE_S:.3f} ms")
            print(f"solve {i}: {rec.solve_s:.3f} s (cpu {rec.cpu_s:.3f} s) status={rec.trace.status} "
                  f"t_final={rec.trace.t_final:.6g} "
                  f"cost={rec.trace.costs[-1][2] if rec.trace.costs else None!r} "
                  f"gate={'pass' if not rec.reasons else 'FAIL'}")
            for reason in rec.reasons:
                print(f"  gate: {reason}")
            print(f"  behaviour: digest {'match' if b['digest_match'] else 'differs'}, "
                  f"{b['newton_rows_changed']} of {b['rows']} Newton rows changed ({kind})")
            print(f"  newton: true steps {tc['true_newton']} (hooked "
                  f"{rec.counts['steps']:.0f}), reported total_newton "
                  f"{tc['reported_total_newton']}")
        failed += not rec.ok
    print(f"failures: {failed} of {len(records)} runs")

    if args.trace:
        metrics = harness.per_layer(setup, records)
        spans = SPAN_DIR / f"{workload.name}-seed{args.seed}.jsonl"
        harness.write_spans(records, ROOT / spans)
        print(f"spans: {spans}")
        traced = records[-1]
        if traced.trace is not None:
            samples = harness.trace_counts(traced.trace)["tstep_ms"]
            pct = (harness.tail_percentile(samples) or (100,))[0]
            print(f"pathfollow.tstep_ms_tail is p{pct} of {len(samples)} t-step "
                  f"wall times (at least 10 samples above it)")
    else:
        metrics = harness.end_to_end(setup, records)
    units = declared_units(args.trace)
    if metrics and metrics.keys() != units.keys():
        sys.exit(f"metrics {sorted(metrics.keys() ^ units.keys())} are not "
                 f"both reported and declared in BENCHMARK.json")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")

    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
