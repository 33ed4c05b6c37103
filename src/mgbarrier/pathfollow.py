"""Central-path following: naive schedules, Algorithm MGB, and the practical
MGB algorithm with direct steps and adaptive step sizes.

All strategies record a PathTrace with per-(step, level) Newton counts,
decrements, objective values and timings, emitted as CSV.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import LevelObjective
from .newton import (BUDGET, CONVERGED, LAM_TOL, MAX_BACKTRACK, MAX_CENTER_ITERS,
                     SOLVER_FAILURE, center)

# a run's statuses, under the names that cli and perfbench read
STATUS_CONVERGED, STATUS_BUDGET, STATUS_FAILURE = CONVERGED, BUDGET, SOLVER_FAILURE

CSV_HEADER = "k,t,rho,level,newton_iters,direct_step,objective,decrement,cum_newton,wall_ms"

# Algorithm MGB proper (direct_cap 0): its sweep visits every PROPER_STRIDE-th
# level, its step size stays at most PROPER_RHO_MAX, and each sweep starts
# from the longest PROPER_SHRINK^j fraction of the prediction that predict admits
PROPER_STRIDE = 2
PROPER_RHO_MAX = 4.0
PROPER_SHRINK = 0.9


@dataclass
class PathConfig:
    rho0: float = 2.0
    c_stp: float = 1.0
    t_cap: float = 1e8
    t0: float | None = None       # absolute t0; None -> min(h_fine^d, t_cap)
    theta: float = 0.5            # naive theta-schedule parameter
    direct_cap: int = 5           # Newton cap for the practical direct step; 0 takes
                                  # none: every t-step sweeps levels L, L-2, ...
                                  # from a 0.9^j prediction, with rho <= 4
                                  # (Algorithm MGB proper, mgb_t_step)
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
    level: int          # 0 = direct step (none with direct_cap 0), 1..L = grid
                        # level, -1 = step summary or the final re-centering
    newton_iters: int
    direct_step: int
    objective: float
    decrement: float
    wall_ms: float


@dataclass
class PathTrace:
    rows: list = field(default_factory=list)
    status: str = STATUS_CONVERGED
    costs: list = field(default_factory=list)   # (k, t, int^(h) c[z^(k)])
    z_final: np.ndarray | None = None
    t_final: float = 0.0
    failure_reason: str = ""
    newton_steps: int = 0  # the Newton steps every centering took, each once

    @property
    def total_newton(self):
        """The sum of newton_iters over every row, level -1 rows included:
        a step summary counts its step's largest centering again. Only
        perfbench reads it (as reported_total_newton); newton_steps is the
        true count."""
        return sum(r.newton_iters for r in self.rows)

    def summary_rows(self):
        return [r for r in self.rows if r.level == -1]

    def max_step_newton(self):
        """max_k m_k over the level -1 rows of steps k >= 1: the path steps'
        summaries and the final re-centering's row."""
        return max((r.newton_iters for r in self.summary_rows() if r.k >= 1), default=0)

    def to_csv(self, wall_times=True):
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        cum_newton = 0
        for r in self.rows:
            cum_newton += r.newton_iters
            wall = r.wall_ms if wall_times else 0.0
            buf.write(
                f"{r.k},{float(r.t)!r},{float(r.rho)!r},{r.level},"
                f"{r.newton_iters},{r.direct_step},{float(r.objective)!r},"
                f"{float(r.decrement)!r},{cum_newton},{float(wall)!r}\n"
            )
        return buf.getvalue()


def adapt_stepsize(rho_prev, m_k):
    """Step-size adaptation from the worst per-level Newton count m_k."""
    if m_k <= 2:
        return rho_prev * rho_prev
    if m_k <= 5:
        return rho_prev
    return math.sqrt(rho_prev)


class _Run:
    """Shared bookkeeping for one path-following run."""

    def __init__(self, problem, config):
        self.problem = problem
        self.config = config
        self.trace = PathTrace()
        self.t_start = time.monotonic()
        self.deadline = self.t_start + config.budget_s
        self.timed_out = False  # a centering stopped at the deadline
        self.tangent = None  # dz/dt (free dofs) at the last center asked for it
        self.prev = None  # (z, t) of the center before the one self.tangent is at
        self.step_newton = 0  # the largest Newton count of the step's centerings so far

    def wall_ms(self):
        return (time.monotonic() - self.t_start) * 1e3

    def over_budget(self):
        return time.monotonic() > self.deadline

    def add_row(self, k, t, rho, level, m, direct, objective, decrement):
        self.trace.rows.append(TraceRow(k, t, rho, level, m, int(direct), objective,
                                        decrement, self.wall_ms()))

    def add_summary(self, k, t, rho, direct=False):
        """Step-summary row (level -1): step k's largest Newton count, and the
        last row's objective and decrement; the next centering starts a step."""
        last = self.trace.rows[-1]
        self.add_row(k, t, rho, -1, self.step_newton, direct, last.objective,
                     last.decrement)
        self.step_newton = 0

    def center_at(self, obj, base, galerkin, t, k, level, rho,
                  lam_tol=LAM_TOL, max_iters=MAX_CENTER_ITERS, direct=False,
                  tangent=False):
        """Center f_h on the shifted path base + span(galerkin.P) at t (base
        itself on the fine level, galerkin None), from base, and record the row.

        With tangent (fine level), self.tangent becomes the central-path
        tangent at the center if it converged, else None.
        Returns (level_obj, CenteringResult).
        """
        level_obj = LevelObjective(obj, base, galerkin)
        # the Hessian of t c[z] + F(Dz) does not depend on t, so the factor
        # that ends the centering gives dz/dt = H^{-1} (-c)
        res = center(level_obj, np.zeros(level_obj.dim), t, lam_tol=lam_tol,
                     max_iters=max_iters, deadline=self.deadline,
                     rhs=-obj.cost_free if tangent else None)
        self.tangent = res.solved
        self.timed_out = res.status == BUDGET
        self.trace.newton_steps += res.iterations
        self.step_newton = max(self.step_newton, res.iterations)
        self.add_row(k, t, rho, level, res.iterations, direct, res.value,
                     res.decrement)
        return level_obj, res

    def record_step(self, k, t, z_fine):
        self.trace.costs.append((k, t, self.problem.fine_objective.cost_integral(z_fine)))
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
    1..L, recording rows (k, t_next, rho). Algorithm MGB proper (direct_cap
    0) at L >= 3 visits levels L, L-2, ... down to 1 or 2 only: MGB on every
    second mesh, whose size falls by 4 between visited levels. Practical
    MGB's fallback sweep keeps every level; the stride there put more
    Newton steps on the fine level. _follow starts MGB proper's sweep from
    predict's PROPER_SHRINK ladder and the fallback sweep from its halving.

    Each level centers on the affine subspace through the point the level
    before it ended at, z_k's own on the first: the spaces are nested, so
    that point lies in the subspace z_k + span(P) of the level, and its
    value and element blocks are the fine objective's record of it. A level
    the sweep skips makes no restriction and no fine evaluation.

    Returns (z_next, "") or (None, reason).
    With run.config.predictor, the fine level L leaves its tangent in run.tangent.
    """
    problem, z, L = run.problem, z_k, run.problem.L
    stride = PROPER_STRIDE if run.config.direct_cap == 0 and L > 2 else 1
    for lvl in range((L - 1) % stride, L, stride):
        fine = lvl == L - 1
        level_obj, res = run.center_at(problem.fine_objective, z,
                                       problem.galerkin[lvl], t_next, k,
                                       lvl + 1, rho,
                                       tangent=fine and run.config.predictor)
        if res.status != CONVERGED:
            return None, f"level {lvl + 1} centering: {res.outcome}"
        z = level_obj.full_point(res.y)
    return z, ""


def predict(objective, z_k, tangent, t_k, t_next, prev=None, shrink=0.5):
    """The predicted center at t_next: z_k plus a step along the tangent, or
    z_k itself.

    The step follows the tangent in 1/t, (t_next - t_k) (t_k / t_next) dz/dt,
    which is exact for z*(t) = z_inf + a/t. With prev = (z_p, t_p), the
    center before z_k, it adds the curvature of the quadratic in 1/t through
    z_p and through z_k with that tangent, (hn/hp)^2 (z_p - z_k + t_k^2 hp
    dz/dt) for hp = 1/t_p - 1/t_k and hn = 1/t_next - 1/t_k, which is exact
    for z*(t) = z_inf + a/t + b/t^2 (Mehrotra, SIAM J. Optim. 2, 1992).

    The step is cut, at most MAX_BACKTRACK lengths, until the barrier
    margin at every quadrature node exceeds t_k / (nu t_next) times its
    margin at z_k. On the central path a node's slack gap lies in
    [1/t, nu/t], so from t_k to t_next it shrinks by no more than that
    factor; a prediction that cuts a margin further has overshot toward the
    boundary, where Newton converges slowly. Each cut scales the step by
    shrink while its length is above half the full step, then by 0.5: the
    default 0.5 halves, and Algorithm MGB proper's 0.9 tries 1, 0.9, ...,
    0.9^7 = 0.48 and halves from there. z_k without a tangent or an
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
    frac = 1.0
    for _ in range(MAX_BACKTRACK):
        z = z_k + objective.embed_free(y)
        if np.all(objective.margin(z) > floor):
            return z
        factor = shrink if frac > 0.5 else 0.5
        frac *= factor
        y = factor * y
    return z_k


_libc = functools.partial(ctypes.CDLL, "libc.so.6")  # glibc; OSError where there is none


@contextlib.contextmanager
def heap_policy():
    """In it glibc trims its heap only past 256 MiB (M_TRIM_THRESHOLD) and mmaps 1 MiB blocks."""
    try:
        mallopt = _libc().mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    except (OSError, AttributeError):
        mallopt = None
    for param, value in ((-1, 256 << 20), (-3, 1 << 20)) if mallopt else ():
        mallopt(param, value)
    try:
        yield
    finally:
        for param in (-1, -3) if mallopt else ():
            mallopt(param, 128 << 10)


@heap_policy()
def _follow(problem, config, schedule):
    """Follow the central path under schedule "mgb" (practical MGB),
    "h-then-t" or "theta" (naive), one move toward a target level per pass.

    An h-step centers z0 on level 1, or prolongates the iterate one level and
    re-centers it at t; MGB's h-steps are all step 0. A t-step centers at
    rho * t; for MGB on the fine level from the tangent prediction with at
    most direct_cap Newton steps, then sweeps every level from the quadratic
    one on a miss. With direct_cap 0 there is no direct step: every MGB
    t-step sweeps, at L >= 3 every second level only, from the longest
    PROPER_SHRINK^j fraction of the quadratic prediction that keeps
    predict's margin floor, and rho stays at most PROPER_RHO_MAX.
    """
    run = _Run(problem, config)
    mgb = schedule == "mgb"
    proper = mgb and config.direct_cap == 0  # Algorithm MGB proper
    predictor = mgb and config.predictor
    t, t_stop, rho = config.initial_t(problem), config.stop_t(problem), config.rho0
    L = problem.L

    def past_range(t):
        return not (t <= t_stop and t < config.t_cap)

    def target_level(t, rho):
        """0-based: for theta in the t range ceil(theta * log2(rho t)) clamped
        to [1, L], else the finest (a run never ends below it)."""
        if schedule != "theta" or past_range(t):
            return L - 1
        return min(max(math.ceil(config.theta * math.log2(rho * t)), 1), L) - 1

    z, lvl, k = problem.z0, -1, 0
    while lvl < L - 1 or not past_range(t):
        if lvl >= 0 and run.over_budget():
            return run.fail("wall-clock budget exhausted", STATUS_BUDGET)
        if lvl < target_level(t, rho):
            if lvl >= 0:
                z = problem.refine_iterate(z, lvl)
                k += not mgb  # a naive h-step is its own step
            lvl += 1
            level_obj, res = run.center_at(problem.objectives[lvl], z, None, t, k,
                                           lvl + 1, rho,
                                           tangent=predictor and lvl == L - 1)
            if res.status != CONVERGED:
                reason = (f"initial centering failed on level {lvl + 1}" if mgb
                          else "h-refinement centering" if lvl else "initial centering")
                return run.fail(f"{reason}: {res.outcome}")
            z = level_obj.full_point(res.y)
            if not mgb or lvl == L - 1:
                run.add_summary(k, t, rho)
        else:
            k += 1
            obj = problem.objectives[lvl]
            t_next = min(rho * t, config.t_cap)
            tangent = run.tangent  # the centering below replaces it
            direct_ok = False
            if not proper:
                level_obj, res = run.center_at(
                    obj, predict(obj, z, tangent, t, t_next), None, t_next, k,
                    0 if mgb else lvl + 1, rho, direct=mgb, tangent=predictor,
                    max_iters=config.direct_cap if mgb else MAX_CENTER_ITERS)
                direct_ok = res.status == CONVERGED
            if direct_ok:
                z_next = level_obj.full_point(res.y)
            elif not mgb:
                return run.fail(f"t-refinement centering: {res.outcome}")
            else:
                start = predict(obj, z, tangent, t, t_next, run.prev,
                                PROPER_SHRINK if proper else 0.5)
                z_next, err = mgb_t_step(run, start, t_next, k=k, rho=rho)
                if z_next is None:
                    return run.fail(err)
            run.prev = (z, t) if run.tangent is not None else None
            rho = adapt_stepsize(rho, run.step_newton)
            if proper:
                rho = min(rho, PROPER_RHO_MAX)
            run.add_summary(k, t_next, rho, mgb and direct_ok)
            z, t = z_next, t_next
        if lvl == L - 1:
            run.record_step(k, t, z)
    return run.finish(z, t, k + 1, rho)


def run_mgb(problem, config=None):
    """Practical MGB: h-then-t centerings at t0, then adaptive direct/MGB
    steps, each started from a predicted center if config.predictor."""
    return _follow(problem, config or PathConfig(), "mgb")


def run_naive(problem, config=None, schedule="h-then-t"):
    """Naive single-path algorithm: h- and t-refinements of one iterate, the
    grid level by schedule "h-then-t" or "theta"."""
    if schedule not in ("h-then-t", "theta"):
        raise ValueError(f"unknown schedule {schedule!r}")
    return _follow(problem, config or PathConfig(), schedule)


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
