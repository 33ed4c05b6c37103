"""Regenerate perfbench/reference.json: one solve per workload and phase.

    python3 perfbench/make_reference.py

Records the final cost integral (the correctness gate's reference), the sha256
of the wall-time-free trace CSV and the per-row Newton counts (the behaviour
digest) of every workload at every phase, into a fresh file. Rerun only for a
change that declares it alters the algorithm's results.
"""

from __future__ import annotations

import json
import sys

from run import import_solver, pin_threads


def main():
    pin_threads()
    import_solver()
    import harness

    ref = {"phase_step": harness.PHASE_STEP, "phases": harness.N_PHASES, "workloads": {}}
    for name, workload in harness.WORKLOADS.items():
        entries = ref["workloads"][name] = []
        for idx in range(harness.N_PHASES):
            # the cost reference is not known yet, so the gate's cost check fails
            problem, _, (rec,) = harness.run(workload, idx, {"cost_integral": float("nan")})
            if rec.error:
                sys.exit(f"{name} phase {idx}:\n{rec.error}")
            others = [r for r in rec.reasons if not r.startswith("cost integral")]
            if others:
                sys.exit(f"{name} phase {idx}: " + "; ".join(others))
            entries.append({
                "phase": harness.phase_of(idx),
                "cost_integral": rec.trace.costs[-1][2],
                "newton_steps": rec.counts["steps"],
                "factorizations": rec.counts["factorizations"],
                "digest": harness.digest(rec.trace),
                "newton_rows": harness.newton_rows(rec.trace),
            })
            print(f"{name} phase {idx}: {rec.solve_s:.1f} s, "
                  f"{rec.counts['steps']:.0f} steps", flush=True)
    with open(harness.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
