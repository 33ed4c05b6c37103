"""Workloads, the timed solve loop, the correctness gate and the metrics.

Everything here goes through the solver's public API. Layer timings come from
wrappers that `instrument` installs on module and class attributes; the solver
source is never modified.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import scipy.sparse.linalg as spla

from mgbarrier import assembly, barrier, diagnostics, femspace, newton, pathfollow, problems
from probe import SpeedProbe
from spans import END, NAME, PARENT, START, Tracer

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# A seed selects one of N_PHASES phase shifts of the default boundary data;
# seed 0 is the unshifted data. The shifts are tiny on purpose: the adaptive
# step size makes the Newton work depend sharply on the data (shifts of
# 0.025 rad moved mgb-p1.5-L4 from 108 to 143 Newton steps), and seeds are
# meant to give held-out inputs that cost the same work, not other problems.
PHASE_STEP = 1e-4
N_PHASES = 8

SETUP_REPS = 15       # build_problem repetitions; setup_s is their median
BUDGET_S = 150.0      # a solve slower than this fails instead of overrunning


def phase_of(seed):
    return PHASE_STEP * (seed % N_PHASES)


def boundary_data(phase):
    """Default Dirichlet data shifted by `phase` radians along x (None at 0)."""
    if phase == 0.0:
        return None
    g0 = problems.default_boundary_data(2)
    shift = phase / (3.0 * math.pi)   # the default data is sin(3 pi x) (1 - y)
    return lambda x, y: g0(x + shift, y)


@dataclass(frozen=True)
class Workload:
    name: str
    p: float
    levels: int
    algorithm: str            # "mgb" or "naive-theta"
    config: dict = field(default_factory=dict)
    cells0: int = 4
    alpha: int = 2

    def spec(self, seed):
        return problems.ProblemSpec(p=self.p, alpha=self.alpha, levels=self.levels,
                                    cells0=self.cells0,
                                    dirichlet=boundary_data(phase_of(seed)))

    def path_config(self):
        return pathfollow.PathConfig(budget_s=BUDGET_S, **self.config)

    def solve(self, problem, config):
        # looked up at call time so that installed wrappers are used
        if self.algorithm == "mgb":
            return pathfollow.run_mgb(problem, config)
        if self.algorithm == "naive-theta":
            return pathfollow.run_naive(problem, config, schedule="theta")
        raise ValueError(f"unknown algorithm {self.algorithm!r}")


WORKLOADS = {w.name: w for w in (
    # configs/mgb_p15.cfg: practical MGB, bound by fine-grid factorization
    Workload("mgb-p1.5-L4", 1.5, 4, "mgb", dict(rho0=2.0, c_stp=1.0, t_cap=1e8)),
    # configs/naive_theta_p15.cfg: the paper's comparator, many small systems
    Workload("naive-theta-p1.5-L4", 1.5, 4, "naive-theta", dict(theta=0.5, rho0=2.0)),
    # Algorithm MGB proper: every t-step re-centers on all levels (Galerkin P^T H P)
    Workload("mgb-full-p1-L3", 1.0, 3, "mgb", dict(direct_cap=0)),
)}


# ---------------------------------------------------------------------------
# instrumentation

class _TimedLU:
    """SuperLU stand-in whose solve() is wrapped in a span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def instrument(tracer, probe):
    """Install the wrappers. Counting hooks always; layer spans if tracing.

    The speed probe runs after a splu call once it is due, inside a "probe"
    span, so that no layer's self time includes it.
    """
    counts = tracer.counts
    run_probe = tracer.wrap(probe.probe, "probe")

    def on_center(args, res):
        counts["center_calls"] += 1
        counts["steps"] += res.iterations
        counts["cap_hits"] += res.status == newton.ITERATION_CAP
        return res

    def on_splu(args, lu):
        counts["factorizations"] += 1
        counts["fill_nnz_max"] = max(counts["fill_nnz_max"], lu.nnz)
        if probe.due():
            run_probe()
        if tracer.record_spans:
            return _TimedLU(lu, tracer.wrap(lu.solve, "newton.solve"))
        return lu

    tracer.patch(pathfollow, "center", "newton.center", on_center)
    tracer.patch(spla, "splu", "newton.factor", on_splu)
    if not tracer.record_spans:
        return

    def on_points(args, result):
        counts["points"] += len(args[2])   # (self, q, s): one point per s entry
        return result

    def on_hessian(args, gh):
        counts["hess_nnz"] = max(counts["hess_nnz"], gh[1].nnz)
        return gh

    tracer.patch(pathfollow, "run_mgb", "pathfollow.run")
    tracer.patch(pathfollow, "run_naive", "pathfollow.run")
    tracer.patch(problems.ProblemInstance, "refine_iterate", "problems.refine_iterate")
    tracer.patch(femspace.DSampler, "sample", "femspace.sample")
    tracer.patch(barrier.PLapBarrier, "value_grad_hess", "barrier.value_grad_hess",
                 on_points)
    tracer.patch(barrier.PLapBarrier, "value", "barrier.value", on_points)
    tracer.patch(barrier.PLapBarrier, "margin", "barrier.margin")
    tracer.patch(assembly.Objective, "grad_hess", "assembly.grad_hess", on_hessian)
    tracer.patch(assembly.Objective, "value", "assembly.value")
    tracer.patch(assembly.LevelObjective, "grad_hess",
                 lambda args: "assembly.galerkin" if args[0].P is not None
                 else "assembly.level_grad_hess")
    tracer.patch(assembly.LevelObjective, "value", "assembly.level_value")
    tracer.patch(newton, "newton_decrement", "newton.decrement")
    tracer.patch(newton, "regularize", "assembly.regularize")


# ---------------------------------------------------------------------------
# what a trace says about the run

def final_row(trace):
    """The last row: the final re-centering at t_final (a level -1 row today)."""
    return trace.rows[-1]


def trace_counts(trace):
    """Counts taken from the solver's own trace rows.

    Rows at level >= 0 did Newton work; level -1 rows are step summaries that
    repeat the per-level maximum, except the final re-centering row.
    """
    rows = trace.rows
    level_newton = {}
    for r in rows[:-1]:
        if r.level >= 0:
            level_newton[r.level] = level_newton.get(r.level, 0) + r.newton_iters
    level_newton["final"] = final_row(trace).newton_iters if rows else 0

    summary = trace.summary_rows()
    by_k = {r.k: r for r in summary}
    direct = [r for r in rows if r.level == 0]
    failed_direct = [r for r in direct if r.k not in by_k or not by_k[r.k].direct_step]

    tstep_ms = []
    for prev, r in zip(summary, summary[1:]):
        if r.t > prev.t:
            tstep_ms.append(r.wall_ms - prev.wall_ms)
    return {
        "level_newton": level_newton,
        "true_newton": sum(level_newton.values()),
        "reported_total_newton": trace.total_newton,
        "t_steps": len(tstep_ms),
        "tstep_ms": tstep_ms,
        "direct_attempts": len(direct),
        "fallback_steps": len(failed_direct),
        "wasted_newton_steps": sum(r.newton_iters for r in failed_direct),
    }


def tail_percentile(samples, beyond=10):
    """(percentile, value): the highest whole percentile with at least
    `beyond` samples above it, by nearest rank; None if too few samples."""
    n = len(samples)
    if n <= beyond:
        return None
    pct = math.floor(100.0 * (n - beyond) / n)
    rank = max(math.ceil(pct / 100.0 * n), 1)
    return pct, sorted(samples)[rank - 1]


# ---------------------------------------------------------------------------
# correctness gate and behaviour digest

def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        ref = json.load(fh)
    if ref["phase_step"] != PHASE_STEP or ref["phases"] != N_PHASES:
        raise ValueError("reference.json was made for another seed-to-phase map")
    return ref


def gate(problem, config, trace, ref_cost):
    """Reasons the run is wrong; empty when it passes.

    The cost tolerance is the filter bound nu |Omega| / t_stop: both this run
    and the reference lie within it above the discrete optimum.
    """
    reasons = []
    if trace.status != pathfollow.STATUS_CONVERGED:
        reasons.append(f"status {trace.status}: {trace.failure_reason}")
    if not trace.costs or not trace.rows:
        return reasons + ["no recorded steps"]
    t_stop = config.stop_t(problem)
    # the path loop stops at the first t beyond stop_t (or at t_cap)
    if not t_stop <= trace.t_final <= max(t_stop, config.t_cap):
        reasons.append(f"t_final {trace.t_final!r} does not reach stop_t {t_stop!r}")
    last = final_row(trace)
    if not last.decrement <= config.lam_tol_final:
        reasons.append(f"final decrement {last.decrement!r} > {config.lam_tol_final}")
    nu, vol = problem.barrier.nu, problem.domain_volume()
    for k, t, gap, bound in diagnostics.filter_gap(trace, nu, vol):
        if not gap <= bound:
            reasons.append(f"filter gap {gap!r} > {bound!r} at step {k}")
    cost = trace.costs[-1][2]
    tol = nu * vol / t_stop
    if not abs(cost - ref_cost) <= tol:
        reasons.append(f"cost integral {cost!r} differs from reference {ref_cost!r} "
                       f"by more than {tol:.3g}")
    return reasons


def digest(trace):
    return hashlib.sha256(trace.to_csv(wall_times=False).encode()).hexdigest()


def newton_rows(trace):
    return [[r.k, r.level, r.newton_iters] for r in trace.rows]


def behaviour(trace, ref_entry):
    """Digest match, and how many (k, level, newton_iters) rows differ.

    A changed digest with no changed rows is a roundoff-only change; changed
    rows mean the algorithm took other Newton steps.
    """
    ours, theirs = newton_rows(trace), ref_entry["newton_rows"]
    changed = sum(a != b for a, b in zip(ours, theirs)) + abs(len(ours) - len(theirs))
    return {"digest_match": digest(trace) == ref_entry["digest"],
            "newton_rows_changed": changed, "rows": len(ours)}


# ---------------------------------------------------------------------------
# the run

@dataclass
class SolveRecord:
    solve_s: float            # wall time, probes left out
    ref_s: float              # solve_s at the probe's reference speed
    probe_ms: float           # median probe time during the solve
    cpu_s: float              # CPU time, probes included
    trace: object = None
    error: str = ""
    reasons: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def ok(self):
        return self.trace is not None and not self.error and not self.reasons


LEVEL_KEYS = ("0", "1", "2", "3", "4", "final")   # trace level codes; 0 = direct step


def layer_metrics(tracer, trace):
    """Per-layer metrics of one traced solve."""
    st = tracer.self_time_by_name()
    calls = tracer.calls_by_name()
    spans = tracer.spans
    c = tracer.counts
    center_idx = {i for i, s in enumerate(spans) if s[NAME] == "newton.center"}
    search = [s for s in spans if s[NAME] == "assembly.level_value" and s[PARENT] in center_idx]
    tc = trace_counts(trace)
    attempts = tc["direct_attempts"]
    tstep = tc["tstep_ms"] or [0.0]
    _, tail_ms = tail_percentile(tstep) or (100, max(tstep))
    out = {
        "problems.refine_s": st["problems.refine_iterate"],
        "problems.refine_calls": calls["problems.refine_iterate"],
        "femspace.sample_s": st["femspace.sample"],
        "femspace.sample_calls": calls["femspace.sample"],
        "barrier.value_grad_hess_s": st["barrier.value_grad_hess"],
        "barrier.value_s": st["barrier.value"],
        "barrier.margin_s": st["barrier.margin"],
        "barrier.points": c["points"],
        "assembly.grad_hess_s": st["assembly.grad_hess"] + st["assembly.level_grad_hess"],
        "assembly.grad_hess_calls": calls["assembly.grad_hess"],
        "assembly.galerkin_s": st["assembly.galerkin"],
        "assembly.galerkin_calls": calls["assembly.galerkin"],
        "assembly.value_s": st["assembly.value"] + st["assembly.level_value"],
        "assembly.value_calls": calls["assembly.value"],
        "assembly.regularize_s": st["assembly.regularize"],
        "assembly.hess_nnz": c["hess_nnz"],
        "newton.factor_s": st["newton.factor"],
        "newton.factorizations": c["factorizations"],
        "newton.fill_nnz_max": c["fill_nnz_max"],
        "newton.solve_s": st["newton.solve"],
        "newton.decrement_s": st["newton.decrement"],
        "newton.center_calls": c["center_calls"],
        "newton.steps": c["steps"],
        "newton.backtracks": len(search) - c["center_calls"] - c["steps"],
        "newton.cap_hits": c["cap_hits"],
        "newton.linesearch_s": sum(s[END] - s[START] for s in search),
        "pathfollow.t_steps": tc["t_steps"],
        "pathfollow.direct_attempts": attempts,
        "pathfollow.direct_ok_ratio":
            (attempts - tc["fallback_steps"]) / attempts if attempts else 0.0,
        "pathfollow.fallback_steps": tc["fallback_steps"],
        "pathfollow.wasted_newton_steps": tc["wasted_newton_steps"],
        "newton.center_self_s": st["newton.center"],
        "pathfollow.self_s": st["pathfollow.run"],
        "pathfollow.reported_total_newton": tc["reported_total_newton"],
        "pathfollow.tstep_ms_p50": statistics.median(tstep),
        "pathfollow.tstep_ms_tail": tail_ms,
        "trace.spans": len(spans),
    }
    for lvl in LEVEL_KEYS:
        out[f"pathfollow.level_newton.{lvl}"] = tc["level_newton"].get(
            int(lvl) if lvl.isdigit() else lvl, 0)
    return out


def timed_solve(workload, problem, config, ref_cost, trace_layers, run_id=0):
    """One solve, timed between speed probes, with counting hooks and, if
    tracing, layer spans."""
    probe = SpeedProbe()
    with Tracer(spans=trace_layers, run_id=run_id) as tracer:
        instrument(tracer, probe)
        gc.collect()
        probe.probe()
        c0 = time.process_time()
        try:
            tr = workload.solve(problem, config)
        except Exception:  # a crashing solve is a failed run, not a crash
            tr, error = None, traceback.format_exc()
        else:
            error = ""
        cpu_s = time.process_time() - c0
        probe.probe()
        rec = SolveRecord(*probe.totals(), probe.median_ms(), cpu_s, trace=tr, error=error)
        if tr is not None:
            rec.counts = dict(tracer.counts)
            rec.reasons = gate(problem, config, tr, ref_cost)
            if trace_layers:
                rec.layers = layer_metrics(tracer, tr)
                rec.spans = list(tracer.spans)
    return rec


def run(workload, seed, ref_entry, trace_layers=False):
    """Set up SETUP_REPS times, then time one untraced solve.

    Setup returns (wall_s, reference_s) per build_problem call, with a speed
    probe between calls. A traced run then times a second, traced solve of
    the same problem; the untraced one before it is the baseline of the
    tracing overhead.
    """
    spec = workload.spec(seed)
    config = workload.path_config()
    probe = SpeedProbe()
    gc.collect()
    probe.probe()
    for _ in range(SETUP_REPS):
        problem = problems.build_problem(spec)
        probe.probe()
    setup = probe.segments()
    ref_cost = ref_entry["cost_integral"]
    records = [timed_solve(workload, problem, config, ref_cost, False)]
    if trace_layers:
        records.append(timed_solve(workload, problem, config, ref_cost, True,
                                   run_id=f"{workload.name}/seed{seed}"))
    return problem, setup, records


def end_to_end(setup, records):
    """End-to-end metrics of the untraced solve; times at reference speed."""
    rec = records[0]
    if rec.trace is None:
        return {}
    steps = rec.counts["steps"]
    return {
        "setup_s": statistics.median(ref for _, ref in setup),
        "solve_s": rec.ref_s,
        "ms_per_newton_step": 1e3 * rec.ref_s / max(steps, 1),
        "newton_steps": steps,
        "factorizations": rec.counts["factorizations"],
        "t_steps": trace_counts(rec.trace)["t_steps"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def write_spans(records, path):
    """Write the traced solves' spans as JSON lines (parent = line index in its run)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            for name, start, end, parent, run_id in rec.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def per_layer(setup, records):
    """Per-layer metrics of the traced solve; the overhead is its time minus
    that of the untraced solve before it in the same process, both at the
    probe's reference speed."""
    plain, traced = records
    if plain.trace is None or not traced.layers:
        return {}
    out = dict(traced.layers)
    out["problems.build_s"] = statistics.median(wall for wall, _ in setup)
    out["trace.solve_s"] = traced.ref_s
    out["trace.untraced_solve_s"] = plain.ref_s
    out["trace.overhead_s"] = traced.ref_s - plain.ref_s
    return out
