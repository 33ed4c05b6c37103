"""Central-path following: naive schedules, Algorithm MGB, and the practical
MGB algorithm with direct steps and adaptive step sizes.

All strategies record a PathTrace with per-(step, level) Newton counts,
decrements, objective values and timings, emitted as CSV.
"""

from __future__ import annotations

import functools
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import LevelObjective
from .newton import (BUDGET, CONVERGED, LAM_TOL, MAX_BACKTRACK, MAX_CENTER_ITERS,
                     DirectSolver, center)

STATUS_CONVERGED = "converged"
STATUS_BUDGET = "budget"
STATUS_FAILURE = "solver-failure"

CSV_HEADER = "k,t,rho,level,newton_iters,direct_step,objective,decrement,cum_newton,wall_ms"


@dataclass
class PathConfig:
    rho0: float = 2.0
    c_stp: float = 1.0
    t_cap: float = 1e8
    t0: float | None = None       # absolute t0; None -> min(h_fine^d, t_cap)
    theta: float = 0.5            # naive theta-schedule parameter
    direct_cap: int = 5           # Newton cap for the practical direct step
    budget_s: float = 300.0
    predictor: bool = True        # practical MGB: start t-steps on the tangent
    lam_tol_final = 1e-6          # final centering tolerance, a constant

    def __post_init__(self):
        # written as `not x > bound` so that NaN fails every check
        if not 1.0 < self.rho0 < math.inf:
            raise ValueError(f"rho0 must be > 1 and finite, got {self.rho0}")
        if not self.c_stp > 0.0:
            raise ValueError(f"c_stp must be > 0, got {self.c_stp}")
        if not 0.0 < self.t_cap < math.inf:
            raise ValueError(f"t_cap must be > 0 and finite, got {self.t_cap}")
        if self.t0 is not None and not (0.0 < self.t0 < math.inf and self.t0 <= self.t_cap):
            raise ValueError(f"t0 must be > 0, finite and <= t_cap = {self.t_cap}, "
                             f"got {self.t0}")
        if not 0.0 < self.theta < math.inf:
            raise ValueError(f"theta must be > 0 and finite, got {self.theta}")
        cap = self.direct_cap
        if isinstance(cap, bool) or not (isinstance(cap, int) and cap >= 0):
            raise ValueError(f"direct_cap must be an int >= 0, got {cap!r}")
        if not self.budget_s >= 0.0:
            raise ValueError(f"budget_s must be >= 0, got {self.budget_s}")
        if not isinstance(self.predictor, bool):
            raise ValueError(f"predictor must be True or False, got {self.predictor!r}")

    def initial_t(self, problem):
        if self.t0 is not None:
            return float(self.t0)
        return min(problem.h_fine() ** problem.fine_fesys.d, self.t_cap)

    def stop_t(self, problem):
        h = problem.h_fine()
        return min(self.c_stp * h ** (-2 * problem.spec.alpha), self.t_cap)


@dataclass
class TraceRow:
    k: int
    t: float
    rho: float
    level: int          # 0 = direct step, 1..L = grid level, -1 = step summary
    newton_iters: int
    direct_step: int
    objective: float
    decrement: float
    cum_newton: int
    wall_ms: float


@dataclass
class PathTrace:
    rows: list = field(default_factory=list)
    status: str = STATUS_CONVERGED
    costs: list = field(default_factory=list)   # (k, t, int^(h) c[z^(k)])
    iterates: list = field(default_factory=list)  # (k, z) fine iterates if stored
    z_final: np.ndarray | None = None
    t_final: float = 0.0
    failure_reason: str = ""

    @property
    def total_newton(self):
        return self.rows[-1].cum_newton if self.rows else 0

    def summary_rows(self):
        return [r for r in self.rows if r.level == -1]

    def max_step_newton(self):
        """max_k m_k over path steps k >= 1."""
        return max((r.newton_iters for r in self.summary_rows() if r.k >= 1), default=0)

    def to_csv(self, wall_times=True):
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for r in self.rows:
            wall = r.wall_ms if wall_times else 0.0
            buf.write(
                f"{r.k},{float(r.t)!r},{float(r.rho)!r},{r.level},"
                f"{r.newton_iters},{r.direct_step},{float(r.objective)!r},"
                f"{float(r.decrement)!r},{r.cum_newton},{float(wall)!r}\n"
            )
        return buf.getvalue()

    def write_csv(self, path, wall_times=True):
        with open(path, "w") as fh:
            fh.write(self.to_csv(wall_times=wall_times))


def adapt_stepsize(rho_prev, m_k):
    """Step-size adaptation from the worst per-level Newton count m_k."""
    if m_k <= 2:
        return rho_prev * rho_prev
    if m_k <= 5:
        return rho_prev
    return math.sqrt(rho_prev)


class _Run:
    """Shared bookkeeping for one path-following run."""

    def __init__(self, problem, config, store_iterates=False):
        self.problem = problem
        self.config = config
        self.store_iterates = store_iterates
        self.trace = PathTrace()
        self.cum_newton = 0
        self.t_start = time.monotonic()
        self.deadline = self.t_start + config.budget_s
        self.timed_out = False  # a centering stopped at the deadline
        self.solver = DirectSolver()  # orderings by Hessian pattern, the last factor
        self.tangent = None  # dz/dt (free dofs) at the last center asked for it
        self.prev = None  # (z, t) of the center before the one self.tangent is at

    def wall_ms(self):
        return (time.monotonic() - self.t_start) * 1e3

    def over_budget(self):
        return time.monotonic() > self.deadline

    def add_row(self, k, t, rho, level, m, direct, objective, decrement):
        self.cum_newton += m
        self.trace.rows.append(TraceRow(
            k, t, rho, level, m, int(direct), objective, decrement,
            self.cum_newton, self.wall_ms(),
        ))

    def add_summary(self, k, t, rho, m, direct=False):
        """Step-summary row (level -1) with the last row's objective and decrement."""
        last = self.trace.rows[-1]
        self.add_row(k, t, rho, -1, m, direct, last.objective, last.decrement)

    def center_at(self, obj, base, galerkin, t, k, level, rho, y0=None,
                  lam_tol=LAM_TOL, max_iters=MAX_CENTER_ITERS, direct=False,
                  tangent=False):
        """Center f_h on the shifted path base + span(galerkin.P) at t (base
        itself on the fine level, galerkin None) and record the row.

        With tangent (fine level), self.tangent becomes the central-path
        tangent at the center if it converged, else None.
        Returns (level_obj, CenteringResult).
        """
        level_obj = LevelObjective(obj, base, galerkin)
        y0 = np.zeros(level_obj.dim) if y0 is None else y0
        res = center(level_obj, y0, t, lam_tol=lam_tol, max_iters=max_iters,
                     deadline=self.deadline, solver=self.solver)
        # the Hessian of t c[z] + F(Dz) does not depend on t, so the factor
        # that ends the centering gives dz/dt = H^{-1} (-c)
        self.tangent = (self.solver.solve(-obj.cost_vector[obj.free_idx()])
                        if tangent and res.status == CONVERGED else None)
        self.solver.release()
        self.timed_out = res.status == BUDGET
        self.add_row(k, t, rho, level, res.iterations, direct, res.value,
                     res.decrement)
        return level_obj, res

    def record_step(self, k, t, z_fine):
        self.trace.costs.append((k, t, self.problem.fine_objective.cost_integral(z_fine)))
        if self.store_iterates:
            self.trace.iterates.append((k, z_fine.copy()))
        self.trace.z_final = z_fine
        self.trace.t_final = t

    def fail(self, reason, status=STATUS_FAILURE):
        """Stop the run; after a centering cut at the deadline the status is budget."""
        self.trace.status = STATUS_BUDGET if self.timed_out else status
        self.trace.failure_reason = reason
        return self.trace

    def finish(self, z, t, k, rho):
        """Tighten the last center to lam_tol_final (for error measurement) and
        record it as step k; if that centering does not converge the run fails."""
        level_obj, res = self.center_at(self.problem.fine_objective, z, None, t, k,
                                        -1, rho, lam_tol=self.config.lam_tol_final)
        if res.status != CONVERGED:
            return self.fail(f"final re-centering: {res.outcome}")
        self.record_step(k, t, level_obj.full_point(res.y))
        return self.trace


def mgb_t_step(run, z_k, t_next, k, rho):
    """One Algorithm MGB step of run: center the shifted path on levels
    1..L, recording rows (k, t_next, rho).

    Returns (z_next, per-level Newton counts, "") or (None, counts, reason).
    With run.config.predictor, the fine level L leaves its tangent in run.tangent.
    """
    problem = run.problem
    counts = []
    y0 = None
    for lvl in range(problem.L):
        fine = lvl == problem.L - 1
        level_obj, res = run.center_at(problem.fine_objective, z_k,
                                       problem.galerkin[lvl], t_next, k,
                                       lvl + 1, rho, y0=y0,
                                       tangent=fine and run.config.predictor)
        counts.append(res.iterations)
        if res.status != CONVERGED:
            return None, counts, f"level {lvl + 1} centering: {res.outcome}"
        if lvl < problem.L - 1:
            y0 = problem.P_free[lvl] @ res.y
    return level_obj.full_point(res.y), counts, ""


def predict(objective, z_k, tangent, t_k, t_next, prev=None):
    """The predicted center at t_next: z_k plus a step along the tangent, or
    z_k itself.

    The step follows the tangent in 1/t, (t_next - t_k) (t_k / t_next) dz/dt,
    which is exact for z*(t) = z_inf + a/t. With prev = (z_p, t_p), the
    center before z_k, it adds the curvature of the quadratic in 1/t through
    z_p and through z_k with that tangent, (hn/hp)^2 (z_p - z_k + t_k^2 hp
    dz/dt) for hp = 1/t_p - 1/t_k and hn = 1/t_next - 1/t_k, which is exact
    for z*(t) = z_inf + a/t + b/t^2 (Mehrotra, SIAM J. Optim. 2, 1992).

    The step is halved, at most MAX_BACKTRACK lengths, until the barrier
    margin at every quadrature node exceeds t_k / (nu t_next) times its
    margin at z_k. On the central path a node's slack gap lies in
    [1/t, nu/t], so from t_k to t_next it shrinks by no more than that
    factor; a prediction that cuts a margin further has overshot toward the
    boundary, where Newton converges slowly. z_k without a tangent or an
    accepted length.
    """
    if tangent is None:
        return z_k
    floor = t_k / (objective.barrier.nu * t_next) * objective.margin(z_k)
    y = (t_next - t_k) * (t_k / t_next) * tangent
    if prev is not None:
        z_p, t_p = prev
        hp, hn = 1.0 / t_p - 1.0 / t_k, 1.0 / t_next - 1.0 / t_k
        free = objective.free_idx()
        y = y + (hn / hp) ** 2 * ((z_p - z_k)[free] + t_k * t_k * hp * tangent)
    for _ in range(MAX_BACKTRACK):
        z = z_k + objective.embed_free(y)
        if np.all(objective.margin(z) > floor):
            return z
        y = 0.5 * y
    return z_k


def practical_step(run, z_k, t_k, rho_prev, k):
    """t_{k+1} = rho * t_k; direct fine-grid centering (cap 5) with MGB fallback.

    When run.tangent holds the tangent at (z_k, t_k), the direct step starts
    from the tangent prediction, and the sweep from the quadratic one through
    run.prev (the same point while run.prev is None); else both start from z_k.
    """
    problem, config = run.problem, run.config
    t_next = min(rho_prev * t_k, config.t_cap)
    tangent = run.tangent  # the direct step's centering replaces it
    z_start = predict(problem.fine_objective, z_k, tangent, t_k, t_next)
    level_obj, res = run.center_at(problem.fine_objective, z_start, None, t_next, k,
                                   0, rho_prev, max_iters=config.direct_cap,
                                   direct=True, tangent=config.predictor)
    counts = [res.iterations]
    direct_ok = res.status == CONVERGED
    if direct_ok:
        z_next = level_obj.full_point(res.y)
    else:
        if run.prev is not None:
            z_start = predict(problem.fine_objective, z_k, tangent, t_k, t_next,
                              run.prev)
        z_next, mgb_counts, err = mgb_t_step(run, z_start, t_next, k=k, rho=rho_prev)
        counts.extend(mgb_counts)
        if z_next is None:
            return None, t_next, rho_prev, err
    run.prev = (z_k, t_k) if run.tangent is not None else None

    m_k = max(counts)
    rho_k = adapt_stepsize(rho_prev, m_k)
    run.add_summary(k, t_next, rho_k, m_k, direct_ok)
    return z_next, t_next, rho_k, ""


def _initial_phase(run, t0):
    """Coarse-grid centering then h-then-t style refinement to the fine grid.

    Returns the fine-grid iterate centered at t0, or None on failure.
    """
    problem, rho0 = run.problem, run.config.rho0
    z = problem.z0
    for lvl in range(problem.L):
        fine = lvl == problem.L - 1
        level_obj, res = run.center_at(problem.objectives[lvl], z, None, t0, 0,
                                       lvl + 1, rho0,
                                       tangent=fine and run.config.predictor)
        if res.status != CONVERGED:
            run.fail(f"initial centering failed on level {lvl + 1}: {res.outcome}")
            return None
        z = level_obj.full_point(res.y)
        if lvl < problem.L - 1:
            z = problem.refine_iterate(z, lvl)
        if run.over_budget():
            run.fail("budget exhausted in initial phase", STATUS_BUDGET)
            return None
    run.add_summary(0, t0, rho0, max(r.newton_iters for r in run.trace.rows))
    return z


def run_mgb(problem, config=None, store_iterates=False):
    """Practical MGB: initial h-then-t phase at t0, then adaptive direct/MGB
    steps, each started from a predicted center if config.predictor."""
    config = config or PathConfig()
    run = _Run(problem, config, store_iterates)
    t = config.initial_t(problem)
    t_stop = config.stop_t(problem)

    z = _initial_phase(run, t)
    if z is None:
        return run.trace
    run.record_step(0, t, z)

    rho = config.rho0
    k = 0
    while t <= t_stop and t < config.t_cap:
        if run.over_budget():
            return run.fail("wall-clock budget exhausted", STATUS_BUDGET)
        k += 1
        z, t, rho, err = practical_step(run, z, t, rho, k)
        if z is None:
            return run.fail(err)
        run.record_step(k, t, z)
    return run.finish(z, t, k + 1, rho)


def run_naive(problem, config=None, schedule="h-then-t", store_iterates=False):
    """Naive single-path algorithm with an h/t refinement schedule.

    schedule: "h-then-t" or "theta" (grid level ceil(theta * log2(rho t)), clamped).
    Each h-refinement prolongates the iterate and re-centers at the current t;
    each t-refinement re-centers at rho * t on the current grid and adapts rho.
    """
    if schedule not in ("h-then-t", "theta"):
        raise ValueError(f"unknown schedule {schedule!r}")
    config = config or PathConfig()
    run = _Run(problem, config, store_iterates)
    t = config.initial_t(problem)
    t_stop = config.stop_t(problem)
    L = problem.L

    def target_level(t, rho):
        """1-based grid level for the step from t > 0: the finest for h-then-t
        and past t_stop (a run never ends below the finest grid), else
        ceil(theta * log2(rho t)) clamped to [1, L]."""
        if schedule == "h-then-t" or t > t_stop:
            return L
        return min(max(math.ceil(config.theta * math.log2(rho * t)), 1), L)

    rho = config.rho0
    lvl = 0  # 0-based current level
    k = 0

    # center the initial iterate on the coarsest grid
    level_obj, res = run.center_at(problem.objectives[0], problem.z0, None, t, 0, 1,
                                   rho)
    if res.status != CONVERGED:
        return run.fail(f"initial centering: {res.outcome}")
    z = level_obj.full_point(res.y)
    run.add_summary(0, t, rho, res.iterations)
    if lvl == L - 1:
        run.record_step(0, t, z)

    while lvl < L - 1 or (t <= t_stop and t < config.t_cap):
        if run.over_budget():
            return run.fail("wall-clock budget exhausted", STATUS_BUDGET)
        refine_h = lvl < target_level(t, rho) - 1
        k += 1
        if refine_h:
            z = problem.refine_iterate(z, lvl)
            lvl += 1
            t_next = t
        else:
            t_next = min(rho * t, config.t_cap)
        level_obj, res = run.center_at(problem.objectives[lvl], z, None, t_next, k,
                                       lvl + 1, rho)
        if res.status != CONVERGED:
            return run.fail(f"{'h' if refine_h else 't'}-refinement centering: "
                            f"{res.outcome}")
        z, t = level_obj.full_point(res.y), t_next
        if not refine_h:
            rho = adapt_stepsize(rho, res.iterations)
        run.add_summary(k, t, rho, res.iterations)

        if lvl == L - 1:
            run.record_step(k, t, z)

    return run.finish(z, t, k + 1, rho)


# name -> runner(problem, config); the names are the config `algorithm` values
ALGORITHMS = {
    "mgb": run_mgb,
    "naive-h-then-t": functools.partial(run_naive, schedule="h-then-t"),
    "naive-theta": functools.partial(run_naive, schedule="theta"),
}


def check_algorithm(name):
    """Return name if ALGORITHMS has it, else raise ValueError."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; "
                         f"choose from {', '.join(ALGORITHMS)}")
    return name
