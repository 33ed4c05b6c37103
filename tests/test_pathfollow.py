import functools
import gc
import math
import re
import types
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mgbarrier import diagnostics, newton, pathfollow
from mgbarrier.assembly import LevelObjective, Objective
from mgbarrier.femspace import DSampler
from mgbarrier.newton import CONVERGED, newton_decrement
from mgbarrier.pathfollow import (CSV_HEADER, STATUS_FAILURE, PathConfig,
                                  PathTrace, TraceRow, adapt_stepsize,
                                  mgb_t_step, predict, run_mgb, run_naive)
from mgbarrier.problems import ProblemSpec, build_problem


def test_adapt_stepsize_table():
    assert adapt_stepsize(1.5, 2) == 2.25
    assert adapt_stepsize(1.5, 4) == 1.5
    assert adapt_stepsize(1.5, 7) == pytest.approx(math.sqrt(1.5))
    # boundaries of the three cases
    assert adapt_stepsize(2.0, 1) == 4.0
    assert adapt_stepsize(2.0, 3) == 2.0
    assert adapt_stepsize(2.0, 5) == 2.0
    assert adapt_stepsize(2.0, 6) == pytest.approx(math.sqrt(2.0))


def test_path_config_defaults_and_validation():
    cfg = PathConfig()
    assert cfg.rho0 == 2.0
    assert cfg.t_cap == 1e8
    with pytest.raises(ValueError):
        PathConfig(rho0=1.0)
    assert cfg.predictor is True


def _case(index, kwargs, message):
    # the ids keep the numbers these cases had before the lam_tol,
    # max_center_iters and lam_tol_final cases went with their fields
    return pytest.param(kwargs, message, id=f"kwargs{index}-{message}")


@pytest.mark.parametrize("kwargs,message", [
    _case(0, dict(rho0=math.inf), "rho0 must be > 1 and finite"),
    _case(1, dict(theta=math.inf), "theta must be > 0 and finite"),
    _case(2, dict(predictor=1), "predictor must be True or False"),
    _case(3, dict(predictor="false"), "predictor must be True or False"),
    # a negative cap once gave direct rows of -1 Newton steps
    _case(4, dict(direct_cap=-1), "direct_cap must be an int >= 0"),
    _case(5, dict(direct_cap=2.5), "direct_cap must be an int >= 0"),
    # t0 past t_cap once wrote trace rows at t = t0 > t_cap
    _case(12, dict(t0=100.0, t_cap=10.0), "t0 must be > 0, finite and <= t_cap"),
    _case(13, dict(t0=math.inf), "t0 must be > 0, finite and <= t_cap"),
    _case(14, dict(t0=math.inf, t_cap=math.inf), "t_cap must be > 0 and finite"),
    _case(15, dict(t0=math.nan), "t0 must be > 0, finite and <= t_cap"),
    _case(16, dict(t0=0.0), "t0 must be > 0, finite and <= t_cap"),
    # a bool is an int to isinstance
    _case(17, dict(direct_cap=True), "direct_cap must be an int >= 0"),
    # with c_stp = inf too, t_cap = inf once ran to t ~ 1e12 and a solver failure
    _case(21, dict(t_cap=math.inf), "t_cap must be > 0 and finite"),
])
def test_path_config_rejects_infinite_steps_and_non_bool_predictor(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PathConfig(**kwargs)


@pytest.mark.parametrize("key", ["lam_tol", "max_center_iters", "lam_tol_final"])
def test_path_config_leaves_the_stop_rule_to_newton(key):
    # every centering of a run stops by newton.LAM_TOL and MAX_CENTER_ITERS,
    # the final one by the constant PathConfig.lam_tol_final
    with pytest.raises(TypeError, match=key):
        PathConfig(**{key: 1})


def test_t0_at_t_cap_is_a_named_failure(small_problem):
    # at t0 = t_cap the first centering once reached a point that value and
    # margin accepted and value_grad_hess rejected, and raised ValueError.
    # It cannot center from there: at t = 1e8 a diagonal entry of the Schur
    # complement turns negative through cancellation, a named solver failure
    tr = run_mgb(small_problem, PathConfig(t0=1e8))
    assert tr.status == STATUS_FAILURE
    # the reason names the decrement's check, the row and its value
    assert re.fullmatch(r"initial centering failed on level 1: solver-failure "
                        r"\(diagonal of S not positive, row \d+: -\d+\.\d+\)",
                        tr.failure_reason), tr.failure_reason
    assert all(r.t <= 1e8 for r in tr.rows)


def test_initial_and_stop_t(small_problem):
    cfg = PathConfig()
    h = small_problem.h_fine()
    assert cfg.initial_t(small_problem) == pytest.approx(h ** 2)
    assert cfg.stop_t(small_problem) == pytest.approx(min(h ** -4, 1e8))
    assert PathConfig(t0=3.0).initial_t(small_problem) == 3.0
    assert PathConfig(t_cap=1e-6).initial_t(small_problem) == 1e-6
    assert PathConfig(c_stp=2.0).stop_t(small_problem) == pytest.approx(
        min(2.0 * h ** -4, 1e8))


@pytest.mark.parametrize("runner", [run_mgb, run_naive,
                                    functools.partial(run_naive, schedule="theta")],
                         ids=["run_mgb", "run_naive", "naive-theta"])
def test_default_t0_stays_below_a_small_t_cap(small_problem, runner):
    # t0 = h_fine^d = 1/16 here; above t_cap it once gave rows at t = 0.164
    tr = runner(small_problem, PathConfig(t_cap=1e-6))
    assert tr.status == "converged"
    assert tr.t_final == 1e-6
    assert all(r.t <= 1e-6 for r in tr.rows)
    # at t = t_cap the run goes to the fine level: naive-theta once took
    # t-steps of 0 Newton steps on level 1, squaring rho, until the level
    # formula reached 2
    assert all(r.rho == PathConfig().rho0 for r in tr.rows)


def test_trace_csv_roundtrip():
    tr = PathTrace()
    tr.rows.append(TraceRow(1, 2.0, 1.5, 0, 3, 1, -4.25, 1e-4, 12.5))
    tr.rows.append(TraceRow(1, 2.0, 2.25, -1, 3, 1, -4.25, 1e-4, 13.0))
    text = tr.to_csv()
    assert text.splitlines()[0] == CSV_HEADER
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert rows == [["1", "2.0", "1.5", "0", "3", "1", "-4.25", "0.0001", "3", "12.5"],
                    ["1", "2.0", "2.25", "-1", "3", "1", "-4.25", "0.0001", "6", "13.0"]]
    # wall_times=False zeroes the timing column only
    rows2 = [line.split(",") for line in tr.to_csv(wall_times=False).splitlines()[1:]]
    assert rows2 == [row[:-1] + ["0.0"] for row in rows]


def test_mgb_t_step_reaches_center(small_problem):
    pr = small_problem
    cfg = PathConfig()
    tr = run_mgb(pr, cfg)
    assert tr.status == "converged"
    z = tr.z_final
    t_next = tr.t_final * 1.5
    run = pathfollow._Run(pr, cfg)
    z_next, err = mgb_t_step(run, z, t_next, 1, 1.5)
    assert err == ""
    # one row per level, each at step 1 and t_next
    assert [(r.k, r.t, r.level) for r in run.trace.rows] == [
        (1, t_next, lvl) for lvl in range(1, pr.L + 1)]
    assert all(r.newton_iters > 0 for r in run.trace.rows)
    assert np.all(pr.fine_objective.margin(z_next) > 0.0)


def test_run_mgb_small(small_problem):
    tr = run_mgb(small_problem, PathConfig())
    assert tr.status == "converged"
    assert tr.t_final >= PathConfig().stop_t(small_problem)
    assert tr.t_final <= 1e8
    assert tr.newton_steps > 0
    # summary rows exist for each step and the k column is non-decreasing
    ks = [r.k for r in tr.rows]
    assert ks == sorted(ks)
    assert len(tr.summary_rows()) >= 2
    # cost integrals decrease along the path (minimization)
    costs = [c for _, _, c in tr.costs]
    assert costs[-1] <= costs[0]


@pytest.mark.parametrize("algorithm, config, status",
                         [("mgb", PathConfig(), "converged"),
                          ("mgb", PathConfig(direct_cap=0), "converged"),
                          ("naive-theta", PathConfig(), "converged"),
                          ("mgb", PathConfig(t0=1e8), "solver-failure")],
                         ids=["mgb", "direct_cap=0", "naive-theta", "t0=1e8"])
def test_newton_steps_count_every_centering_once(small_problem, monkeypatch,
                                                 algorithm, config, status):
    # newton_steps is the sum of the iterations that center returned. The
    # total_newton that perfbench still reports adds every summary row again,
    # each its step's largest centering: every level -1 row but the final
    # re-centering's, none in a run that fails before its first step summary
    iterations, center = [], pathfollow.center

    def logged_center(*args, **kw):
        res = center(*args, **kw)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(pathfollow, "center", logged_center)
    tr = pathfollow.ALGORITHMS[algorithm](small_problem, config)
    assert tr.status == status
    assert tr.newton_steps == sum(iterations) > 0
    summaries = tr.summary_rows()[:-1] if status == "converged" else tr.summary_rows()
    assert tr.total_newton == tr.newton_steps + sum(r.newton_iters for r in summaries)

def test_run_mgb_budget_exhaustion(small_problem):
    tr = run_mgb(small_problem, PathConfig(budget_s=0.0))
    assert tr.status == "budget"


@pytest.mark.parametrize("runner", [run_mgb, run_naive])
def test_budget_holds_inside_a_centering(small_problem, runner):
    # the first centering needs 4 Newton steps; a spent budget must stop it
    # after at most one, not at the end of the centering or t-step
    tr = runner(small_problem, PathConfig(budget_s=1e-9))
    assert tr.status == "budget"
    assert sum(r.newton_iters for r in tr.rows if r.level >= 0) <= 1
    assert tr.failure_reason.endswith(": budget")


@pytest.mark.parametrize("algorithm", list(pathfollow.ALGORITHMS))
def test_budget_spent_between_steps_stops_before_the_next(small_problem, monkeypatch,
                                                          algorithm):
    # the budget is checked before every move but the first centering
    monkeypatch.setattr(pathfollow._Run, "over_budget", lambda self: True)
    tr = pathfollow.ALGORITHMS[algorithm](small_problem, PathConfig())
    assert tr.status == "budget"
    assert tr.failure_reason == "wall-clock budget exhausted"
    assert [(r.k, r.level) for r in tr.rows if r.level >= 0] == [(0, 1)]
    assert all(r.k == 0 for r in tr.rows)


def test_run_naive_schedules_agree_with_mgb(small_problem):
    cfg = PathConfig()
    tr_mgb = run_mgb(small_problem, cfg)
    for schedule in ("h-then-t", "theta"):
        tr = run_naive(small_problem, cfg, schedule=schedule)
        assert tr.status == "converged", schedule
        u_a = tr.z_final[: small_problem.fine_fesys.n_u]
        u_b = tr_mgb.z_final[: small_problem.fine_fesys.n_u]
        # both strategies end on (nearly) the same central point
        assert np.max(np.abs(u_a - u_b)) < 1e-2


def test_run_naive_rejects_unknown_schedule(small_problem, monkeypatch):
    calls = []
    monkeypatch.setattr(pathfollow, "center", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="bogus"):
        run_naive(small_problem, PathConfig(), schedule="bogus")
    assert calls == []


def test_naive_theta_visits_intermediate_levels():
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=3, cells0=2))
    tr = run_naive(pr, PathConfig(), schedule="theta")
    assert tr.status == "converged"
    levels = {r.level for r in tr.rows if r.level > 0}
    assert levels == {1, 2, 3}


def test_step_sizes_respect_adaptation(small_problem):
    tr = run_mgb(small_problem, PathConfig())
    for r in tr.summary_rows():
        if r.k >= 1:
            assert r.rho > 1.0


def test_iterates_stored_on_request(small_problem, mgb_with_iterates):
    tr, iterates = mgb_with_iterates(small_problem, PathConfig())
    assert [k for k, _ in iterates] == [k for k, _, _ in tr.costs]
    for _, z in iterates:
        assert np.all(small_problem.fine_objective.margin(z) > 0.0)


# (k, level, newton_iters, direct_step) of every trace row on small_problem,
# written as "k:level:m:direct" tokens. The first four were recorded before
# the centering blocks were merged into one primitive, and are run without
# the tangent predictor (the paper's algorithms); any change in Newton work
# shows up here. The "-predictor" rows pin practical MGB as it runs by default,
# and MGB proper with its bound rho <= 4 and its 0.9^j sweep start.
# The first h-refinement centering (35 steps) starts from repair_slack's 1e-8
# gap, where roundoff in the linear solve can move its count by one.
PINNED_ROWS = {
    "mgb": """
        0:1:4:0 0:2:35:0 0:-1:35:0 1:0:4:1 1:-1:4:1 2:0:4:1 2:-1:4:1
        3:0:4:1 3:-1:4:1 4:0:4:1 4:-1:4:1 5:0:3:1 5:-1:3:1 6:0:3:1
        6:-1:3:1 7:0:3:1 7:-1:3:1 8:0:4:1 8:-1:4:1 9:-1:1:0""",
    "mgb-full": """
        0:1:4:0 0:2:35:0 0:-1:35:0 1:1:4:0 1:2:5:0 1:-1:5:0 2:1:6:0
        2:2:4:0 2:-1:6:0 3:1:3:0 3:2:3:0 3:-1:3:0 4:1:3:0 4:2:3:0
        4:-1:3:0 5:1:3:0 5:2:3:0 5:-1:3:0 6:1:3:0 6:2:3:0 6:-1:3:0
        7:1:3:0 7:2:4:0 7:-1:4:0 8:1:3:0 8:2:5:0 8:-1:5:0 9:1:3:0
        9:2:7:0 9:-1:7:0 10:1:2:0 10:2:3:0 10:-1:3:0 11:1:2:0 11:2:3:0
        11:-1:3:0 12:1:2:0 12:2:3:0 12:-1:3:0 13:1:2:0 13:2:3:0
        13:-1:3:0 14:1:2:0 14:2:3:0 14:-1:3:0 15:1:2:0 15:2:3:0
        15:-1:3:0 16:1:2:0 16:2:3:0 16:-1:3:0 17:1:2:0 17:2:3:0
        17:-1:3:0 18:1:2:0 18:2:2:0 18:-1:2:0 19:1:3:0 19:2:5:0
        19:-1:5:0 20:-1:1:0""",
    "naive-h-then-t": """
        0:1:4:0 0:-1:4:0 1:2:35:0 1:-1:35:0 2:2:4:0 2:-1:4:0 3:2:4:0
        3:-1:4:0 4:2:4:0 4:-1:4:0 5:2:4:0 5:-1:4:0 6:2:3:0 6:-1:3:0
        7:2:3:0 7:-1:3:0 8:2:3:0 8:-1:3:0 9:2:4:0 9:-1:4:0 10:-1:1:0""",
    "naive-theta": """
        0:1:4:0 0:-1:4:0 1:1:4:0 1:-1:4:0 2:1:3:0 2:-1:3:0 3:1:3:0
        3:-1:3:0 4:1:3:0 4:-1:3:0 5:2:220:0 5:-1:220:0 6:2:3:0
        6:-1:3:0 7:2:3:0 7:-1:3:0 8:2:3:0 8:-1:3:0 9:2:4:0 9:-1:4:0
        10:-1:1:0""",
    "mgb-predictor": """
        0:1:4:0 0:2:35:0 0:-1:35:0 1:0:3:1 1:-1:3:1 2:0:3:1 2:-1:3:1
        3:0:3:1 3:-1:3:1 4:0:3:1 4:-1:3:1 5:0:3:1 5:-1:3:1 6:0:3:1
        6:-1:3:1 7:0:3:1 7:-1:3:1 8:0:3:1 8:-1:3:1 9:-1:2:0""",
    "mgb-full-predictor": """
        0:1:4:0 0:2:35:0 0:-1:35:0 1:1:2:0 1:2:3:0 1:-1:3:0 2:1:2:0
        2:2:2:0 2:-1:2:0 3:1:5:0 3:2:4:0 3:-1:5:0 4:1:5:0 4:2:4:0
        4:-1:5:0 5:1:3:0 5:2:5:0 5:-1:5:0 6:-1:1:0""",
}


PINNED_RUNNERS = {
    "mgb": lambda pr: run_mgb(pr, PathConfig(predictor=False)),
    "mgb-full": lambda pr: run_mgb(pr, PathConfig(direct_cap=0, predictor=False)),
    "naive-h-then-t": lambda pr: run_naive(pr, schedule="h-then-t"),
    "naive-theta": lambda pr: run_naive(pr, schedule="theta"),
    "mgb-predictor": lambda pr: run_mgb(pr, PathConfig()),
    "mgb-full-predictor": lambda pr: run_mgb(pr, PathConfig(direct_cap=0)),
}


@pytest.mark.parametrize("name", list(PINNED_ROWS))
def test_trace_rows_pinned(small_problem, name):
    tr = PINNED_RUNNERS[name](small_problem)
    assert tr.status == "converged"
    got = [f"{r.k}:{r.level}:{r.newton_iters}:{r.direct_step}" for r in tr.rows]
    assert got == PINNED_ROWS[name].split()


def test_failed_final_recentering_is_a_failure(small_problem, monkeypatch):
    # lam_tol_final = 0 cannot be met: the last centering hits the cap
    monkeypatch.setattr(PathConfig, "lam_tol_final", 0.0)
    tr = run_mgb(small_problem, PathConfig())
    assert tr.status == STATUS_FAILURE
    assert tr.failure_reason == "final re-centering: iteration-cap"
    assert tr.rows[-1].newton_iters == newton.MAX_CENTER_ITERS
    # the last recorded step is the last accepted t-step, not the failed centering
    assert tr.costs[-1][0] == tr.rows[-1].k - 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="naive-theta's first h-refinement centering hits the "
                   "iteration cap at p=2, alpha=2, cells0=2, L=2")
def test_naive_theta_converges_at_p2_quadratic_elements():
    # Known failure: the centering after the first refinement stalls near
    # lam = 0.1 and the run ends "h-refinement centering: iteration-cap";
    # run_mgb converges on the same problem (test_diagnostics' p2_problem).
    # The shift is not the cause: with it set to zero, and with the
    # diagonal-relative shift newton_decrement uses, L=2 and L=3 still fail
    # the same way (lam = 0.10 after 500 steps).
    pr = build_problem(ProblemSpec(p=2.0, alpha=2, levels=2, cells0=2))
    tr = run_naive(pr, PathConfig(), schedule="theta")
    assert tr.status == "converged", tr.failure_reason


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="naive-theta's h-refinement centering hits the "
                   "iteration cap at p=2, alpha=1, cells0=2, L=3")
def test_naive_theta_converges_at_p2_alpha1():
    # Known failure, like the alpha=2 one above: the run ends
    # "h-refinement centering: iteration-cap", while run_mgb and
    # naive-h-then-t converge on the same problem.
    pr = build_problem(ProblemSpec(p=2.0, alpha=1, levels=3, cells0=2))
    tr = run_naive(pr, PathConfig(), schedule="theta")
    assert tr.status == "converged", tr.failure_reason


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="run_mgb's first centering hits the iteration cap "
                   "at t0 = 1e3, p=1.5, alpha=2, cells0=2, L=1")
def test_mgb_converges_from_a_large_t0():
    # Known failure: the run ends "initial centering failed on level 1:
    # iteration-cap" after 500 Newton steps from z0 (lam ~ 0.2), while
    # t0 = 100 converges. The centering stalls before any path step.
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=1, cells0=2))
    tr = run_mgb(pr, PathConfig(t0=1e3))
    assert tr.status == "converged", tr.failure_reason


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="run_mgb's centering on level 2 hits the iteration "
                   "cap at p=3, alpha=2, cells0=2, L=2")
def test_mgb_converges_at_p3_after_refinement():
    # Known failure: the run ends "initial centering failed on level 2:
    # iteration-cap" after 513 Newton steps, and naive-h-then-t ends
    # "h-refinement centering: iteration-cap". L=1 converges at p=2.5, 3
    # and 4; p=4 fails at L=2 too. The cause is not known.
    pr = build_problem(ProblemSpec(p=3.0, alpha=2, levels=2, cells0=2))
    tr = run_mgb(pr, PathConfig())
    assert tr.status == "converged", tr.failure_reason


def test_run_mgb_repeats_bit_for_bit():
    # A second run on the same ProblemInstance reuses every level's plan and
    # its order, and its trace is byte-identical to the first run's, on the
    # fresh instance. (A grid no other test uses, so that the first run
    # builds every plan.)
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=2, cells0=3))
    first = run_mgb(pr, PathConfig())
    second = run_mgb(pr, PathConfig())
    assert first.status == "converged"
    assert first.to_csv(wall_times=False) == second.to_csv(wall_times=False)


def _fine_center(pr, t):
    """A fine-level center at t, tight enough for a finite difference."""
    tr = run_mgb(pr, PathConfig(predictor=False, t0=t, c_stp=1e-9))
    assert tr.status == "converged" and tr.t_final == t
    return tr.z_final


def _center_with_tangent(pr, t):
    """(run, z, dz/dt) at a fine-level center at t, from the factor that
    ended its centering."""
    run = pathfollow._Run(pr, PathConfig())
    level_obj, res = run.center_at(pr.fine_objective, _fine_center(pr, t), None, t,
                                   1, 0, 2.0, lam_tol=1e-9, tangent=True)
    assert res.status == CONVERGED
    return run, level_obj.full_point(res.y), run.tangent


def test_tangent_matches_central_path_difference(small_problem):
    # The tangent from the factor that ended the centering is dz*/dt: the
    # difference quotient of the central path approaches it at rate O(eps).
    pr, obj = small_problem, small_problem.fine_objective
    free = obj.free_idx()
    t = 1.3
    run, z, tangent = _center_with_tangent(pr, t)
    errors = []
    for eps in (1e-2, 1e-3):
        lo, res = run.center_at(obj, z, None, t * (1 + eps), 1, 0, 2.0, lam_tol=1e-9)
        assert res.status == CONVERGED
        fd = (lo.full_point(res.y) - z)[free] / (t * eps)
        errors.append(np.linalg.norm(fd - tangent) / np.linalg.norm(tangent))
        assert errors[-1] <= 2 * eps
    assert errors[1] < errors[0] / 5

    # the predicted start is closer to the center at t_next than z is
    t_next = 1.5 * t
    z_pred = predict(obj, z, tangent, t, t_next)
    # a step in 1/t: (t_next - t) (t / t_next) dz/dt, here not halved
    step = (t_next - t) * (t / t_next) * tangent
    assert np.array_equal(z_pred, z + obj.embed_free(step))
    lam_z = newton_decrement(*obj.grad_hess(z, t_next))[0]
    lam_pred = newton_decrement(*obj.grad_hess(z_pred, t_next))[0]
    assert lam_pred < lam_z


def test_prediction_keeps_a_margin_floor(small_problem):
    # At rho = 2 the full 1/t step is feasible, but it cuts some node's
    # barrier margin below t_k / (nu t_next) of its value at z_k: halved once.
    obj = small_problem.fine_objective
    t, t_next = 1.3, 2.6
    _, z, tangent = _center_with_tangent(small_problem, t)
    full = (t_next - t) * (t / t_next) * tangent
    floor = t / (obj.barrier.nu * t_next) * obj.margin(z)
    assert np.all(obj.margin(z + obj.embed_free(full)) > 0.0)
    assert not np.all(obj.margin(z + obj.embed_free(full)) > floor)
    z_pred = predict(obj, z, tangent, t, t_next)
    assert np.array_equal(z_pred, z + obj.embed_free(0.5 * full))
    assert np.all(obj.margin(z_pred) > floor)


def test_predictor_costs_no_newton_steps_on_a_coarse_grid():
    # p = 1 on a 4 x 4 fine grid: a prediction without the margin floor
    # overshot toward the boundary, and the run took 68 Newton steps against
    # 41 from z_k
    pr = build_problem(ProblemSpec(p=1.0, alpha=2, levels=2, cells0=2))
    on = run_mgb(pr, PathConfig())
    off = run_mgb(pr, PathConfig(predictor=False))
    assert on.status == off.status == "converged"
    assert on.newton_steps <= off.newton_steps


def _record_starts(monkeypatch, direct_cap):
    """Patch center and mgb_t_step to log (k, start point) of every direct
    step and every fallback sweep."""
    direct, sweeps = [], []
    center, t_step = pathfollow.center, pathfollow.mgb_t_step

    def logged_center(level_obj, y0, t, **kw):
        if kw["max_iters"] == direct_cap and level_obj.P is None:
            direct.append(level_obj.full_point(y0))
        return center(level_obj, y0, t, **kw)

    def logged_t_step(run, z_k, *args, **kw):
        sweeps.append((kw["k"], z_k))
        return t_step(run, z_k, *args, **kw)

    monkeypatch.setattr(pathfollow, "center", logged_center)
    monkeypatch.setattr(pathfollow, "mgb_t_step", logged_t_step)
    return direct, sweeps


def test_fallback_sweep_starts_from_the_predicted_point(small_problem, monkeypatch,
                                                        mgb_with_iterates):
    # direct_cap = 0: no direct step, and every t-step sweeps the levels. At
    # k = 1 no earlier center exists and the sweep starts at the tangent
    # prediction; from k = 2 on it starts from the quadratic prediction
    # through the center before z_{k-1}. Both are cut along MGB proper's
    # 0.9^j ladder, not halved.
    direct, sweeps = _record_starts(monkeypatch, direct_cap=0)
    tangents = {}  # t_next -> the tangent the sweep was predicted with
    predict_ = pathfollow.predict

    def logged_predict(objective, z_k, tangent, t_k, t_next, *args, **kwargs):
        tangents[t_next] = tangent
        return predict_(objective, z_k, tangent, t_k, t_next, *args, **kwargs)

    monkeypatch.setattr(pathfollow, "predict", logged_predict)
    tr, iterates = mgb_with_iterates(small_problem, PathConfig(direct_cap=0))
    assert tr.status == "converged" and len(sweeps) > 2 and direct == []
    obj = small_problem.fine_objective
    iterates = dict(iterates)
    ts = {k: t for k, t, _ in tr.costs}
    for k, z_start in sweeps:
        assert not np.array_equal(z_start, iterates[k - 1])
        assert np.all(obj.margin(z_start) > 0.0)
        prev = (iterates[k - 2], ts[k - 2]) if k >= 2 else None
        start = predict_(obj, iterates[k - 1], tangents[ts[k]], ts[k - 1], ts[k], prev,
                         shrink=pathfollow.PROPER_SHRINK)
        assert np.array_equal(z_start, start)
        if k >= 2:
            linear = _tangent_prediction(obj, iterates[k - 1], tangents[ts[k]], ts[k - 1],
                                         ts[k])
            assert not np.array_equal(z_start, linear)


def _tangent_prediction(objective, z_k, tangent, t_k, t_next):
    """The first-order prediction written out: the tangent step in 1/t,
    halved until every node keeps the margin floor."""
    floor = t_k / (objective.barrier.nu * t_next) * objective.margin(z_k)
    y = (t_next - t_k) * (t_k / t_next) * tangent
    for _ in range(pathfollow.MAX_BACKTRACK):
        z = z_k + objective.embed_free(y)
        if np.all(objective.margin(z) > floor):
            return z
        y = 0.5 * y
    return z_k


def test_prediction_without_prev_is_the_tangent_prediction(small_problem):
    obj = small_problem.fine_objective
    t = 1.3
    _, z, tangent = _center_with_tangent(small_problem, t)
    # rho = 2 is halved once (test_prediction_keeps_a_margin_floor)
    for rho in (1.2, 2.0, 16.0):
        assert np.array_equal(predict(obj, z, tangent, t, rho * t, prev=None),
                              _tangent_prediction(obj, z, tangent, t, rho * t))


class _UnboundedObjective:
    """The parts of an Objective that predict uses, for n free dofs followed
    by one fixed dof, with a barrier margin that never binds."""

    barrier = types.SimpleNamespace(nu=3.0)

    def __init__(self, n):
        self.n = n

    def free_idx(self):
        return np.arange(self.n)

    def embed_free(self, y):
        return np.append(y, 0.0)

    def margin(self, z):
        return np.ones(5)


class _SlabObjective(_UnboundedObjective):
    """One free dof z[0] and a barrier margin 1 - z[0]."""

    def __init__(self):
        super().__init__(1)

    def margin(self, z):
        return np.array([1.0 - z[0]])


@pytest.mark.parametrize("slope,shrink,fraction", [
    (1.75, 0.9, 0.9), (1.75, 0.5, 0.5), (2e9, 0.9, 0.9 ** 7 * 0.5 ** 30),
    (2e9, 0.5, 0.5 ** 31)], ids=["ladder", "halving", "ladder-tail", "halving-tail"])
def test_prediction_starts_from_the_longest_fraction_that_keeps_the_floor(slope, shrink,
                                                                         fraction):
    # t_k = 1, t_next = 2, nu = 3: the floor is 1/6 of the margin 1 at z_k = 0,
    # and the full step moves z[0] by slope / 2. At slope 1.75 the full step
    # leaves a margin of 1/8 and its 0.9 fraction 0.2125: MGB proper's ladder
    # starts at 0.9, the halving at 0.5. At slope 2e9 only a fraction below
    # 8.3e-10 keeps the floor: below 0.5 the ladder halves, so it reaches one
    # within MAX_BACKTRACK lengths as the halving does
    obj = _SlabObjective()
    z_k = np.zeros(2)
    z = predict(obj, z_k, np.array([slope]), 1.0, 2.0, shrink=shrink)
    np.testing.assert_allclose(z, [fraction * slope / 2, 0.0], rtol=1e-12, atol=0)
    assert obj.margin(z)[0] > 1 / 6


def test_quadratic_prediction_is_exact_on_a_quadratic_path_in_1_over_t():
    rng = np.random.default_rng(7)
    a, b, c = rng.standard_normal((3, 6))
    b[-1] = c[-1] = 0.0  # the fixed dof stays put

    def z(t):
        return a + b / t + c / t ** 2

    def dz_dt(t):
        return (-b / t ** 2 - 2 * c / t ** 3)[:-1]

    obj = _UnboundedObjective(5)
    t_p, t_k, t_next = 1.0, 2.0, 6.0
    quadratic = predict(obj, z(t_k), dz_dt(t_k), t_k, t_next, prev=(z(t_p), t_p))
    np.testing.assert_allclose(quadratic, z(t_next), rtol=0, atol=1e-14)
    # the tangent alone misses the curvature c (1/t_next - 1/t_k)^2
    tangent_only = predict(obj, z(t_k), dz_dt(t_k), t_k, t_next)
    np.testing.assert_allclose(tangent_only - z(t_next),
                               -c * (1 / t_next - 1 / t_k) ** 2, atol=1e-14)


def test_predictor_off_keeps_no_previous_center(small_problem, monkeypatch):
    # run.prev as each t-step k = 1..K records its center (the step after K
    # is the final re-centering)
    logged = []
    record = pathfollow._Run.record_step

    def logged_record(run, k, t, z_fine):
        logged.append((k, run.prev))
        return record(run, k, t, z_fine)

    monkeypatch.setattr(pathfollow._Run, "record_step", logged_record)

    def prevs(tr):
        last = tr.costs[-1][0]
        return [prev for k, prev in logged if 1 <= k < last]

    for cap in (5, 0):
        logged.clear()
        tr = run_mgb(small_problem, PathConfig(direct_cap=cap, predictor=False))
        assert tr.status == "converged" and len(prevs(tr)) > 0
        assert all(prev is None for prev in prevs(tr))
    # with the predictor every centered step keeps (z_{k-1}, t_{k-1})
    logged.clear()
    tr = run_mgb(small_problem, PathConfig(direct_cap=0))
    got = [prev[1] for prev in prevs(tr)]
    assert len(got) == len(tr.costs) - 2
    assert got == [t for _, t, _ in tr.costs[:len(got)]]


@pytest.mark.parametrize("predictor", [True, False])
def test_direct_cap_0_sweeps_every_t_step_without_a_fine_probe(small_problem, monkeypatch,
                                                               predictor):
    # Algorithm MGB proper: no 0-step fine centering tests the prediction, so
    # every center call is a sweep level, the initial phase or the final
    # re-centering, and each factorization is a Newton step or a center's end
    calls, factors = [], []
    center, splu = pathfollow.center, spla.splu

    def logged_center(level_obj, y0, t, **kw):
        res = center(level_obj, y0, t, **kw)
        calls.append((kw["max_iters"], res.iterations))
        return res

    def logged_splu(A, **kwargs):
        factors.append(A.shape)
        return splu(A, **kwargs)

    monkeypatch.setattr(pathfollow, "center", logged_center)
    monkeypatch.setattr(spla, "splu", logged_splu)
    tr = run_mgb(small_problem, PathConfig(direct_cap=0, predictor=predictor))
    assert tr.status == "converged"
    assert all(max_iters > 0 for max_iters, _ in calls)
    assert all(r.level != 0 for r in tr.rows)
    assert len(factors) == sum(m for _, m in calls) + len(calls)
    # costs: the initial center, one per t-step, the final re-centering
    L, t_steps = small_problem.L, len(tr.costs) - 2
    assert len(calls) == L * t_steps + L + 1


@pytest.mark.parametrize("direct_cap", [5, 0])
def test_infeasible_prediction_starts_from_z_k(small_problem, monkeypatch, mgb_with_iterates,
                                               direct_cap):
    # no cut of the prediction keeps a margin, neither the halving nor MGB
    # proper's 0.9^j ladder: the direct step and the sweep start from z_k
    # exactly, and the run is the one without predictor
    monkeypatch.setattr(small_problem.fine_objective, "margin", lambda z: np.zeros(1))
    off = run_mgb(small_problem, PathConfig(direct_cap=direct_cap, predictor=False))
    direct, sweeps = _record_starts(monkeypatch, direct_cap)
    tr, iterates = mgb_with_iterates(small_problem, PathConfig(direct_cap=direct_cap))
    assert tr.to_csv(wall_times=False) == off.to_csv(wall_times=False)
    # iterates: the initial center, one per t-step, the final re-centering;
    # with direct_cap = 0 every t-step sweeps and none takes a direct step
    t_steps = len(iterates) - 2
    iterates = dict(iterates)
    if direct_cap == 0:
        assert direct == [] and [k for k, _ in sweeps] == list(range(1, t_steps + 1))
    else:
        assert len(direct) == t_steps
    for k, z_start in enumerate(direct, start=1):
        assert np.array_equal(z_start, iterates[k - 1])
    for k, z_start in sweeps:
        assert np.array_equal(z_start, iterates[k - 1])


class _Factor:
    """A SuperLU factor that a weak reference can watch."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, b):
        return self.lu.solve(b)

    def __getattr__(self, attr):
        return getattr(self.lu, attr)


@pytest.fixture
def live_factors(monkeypatch):
    """Weak references to every factor made; at each new factorization, the
    number of earlier factors still alive is logged in live_at_factor."""
    refs, live_at_factor = [], []
    splu = spla.splu

    def alive():
        # a factor held only by a reference cycle does not count
        if any(r() is not None for r in refs):
            gc.collect()
        return sum(r() is not None for r in refs)

    def watched(A, **kwargs):
        live_at_factor.append(alive())
        lu = _Factor(splu(A, **kwargs))
        refs.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(spla, "splu", watched)
    return refs, live_at_factor, alive


def test_no_factor_outlives_the_tangent(small_problem, live_factors):
    refs, live_at_factor, alive = live_factors
    pr = small_problem
    z = _fine_center(pr, 1.3)
    refs.clear()
    live_at_factor.clear()
    run = pathfollow._Run(pr, PathConfig())
    _, res = run.center_at(pr.fine_objective, z, None, 2.6, 1, 0, 2.0, tangent=True)
    assert res.status == CONVERGED and res.iterations > 0
    assert run.tangent is not None
    # each factor above tolerance was dropped before the next one was made,
    # and the last one right after the tangent solve
    assert live_at_factor == [0] * (res.iterations + 1)
    assert alive() == 0

    # a bare newton_decrement keeps nothing
    newton_decrement(*pr.fine_objective.grad_hess(z, 1.3))
    assert len(refs) == res.iterations + 2
    assert alive() == 0


@pytest.mark.parametrize("algorithm", ["mgb", "naive-theta"])
def test_no_factor_is_alive_during_a_line_search(small_problem, live_factors,
                                                 monkeypatch, algorithm):
    # a factor above lam_tol is released before its line search starts, and
    # the one that ends a centering before the next centering's first value
    refs, _, alive = live_factors
    value, live_at_value = LevelObjective.value, []

    def watched(self, y, t):
        live_at_value.append(alive())
        return value(self, y, t)

    monkeypatch.setattr(LevelObjective, "value", watched)
    tr = pathfollow.ALGORITHMS[algorithm](small_problem, PathConfig())
    assert tr.status == "converged"
    # the line searches made more value calls than the centerings' starts
    assert len(live_at_value) > len(tr.rows) and len(refs) > 0
    assert live_at_value == [0] * len(live_at_value)


@pytest.mark.parametrize("algorithm,config", [
    ("mgb", {}), ("mgb", dict(direct_cap=0)), ("naive-theta", {})],
    ids=["mgb", "mgb-direct-cap-0", "naive-theta"])
def test_each_run_orders_each_level_pattern_once(monkeypatch, algorithm, config):
    # A run on a new problem orders each level's Hessian pattern by minimum
    # degree once, when it builds the level's plan: a level's own
    # centerings, the fine direct steps and the Galerkin P^T H P of that
    # level all factor in that order, in natural order on the plan's R.
    # Two new problems give byte-identical traces.
    specs, orders, csv = [], [], []
    splu, spilu = spla.splu, spla.spilu

    def logged(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    def logged_spilu(A, **kwargs):
        orders.append(A.shape)
        return spilu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", logged)
    monkeypatch.setattr(spla, "spilu", logged_spilu)
    for _ in range(2):
        pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=3, cells0=2))
        specs.clear()
        orders.clear()
        tr = pathfollow.ALGORITHMS[algorithm](pr, PathConfig(**config))
        assert tr.status == "converged"
        assert sorted(orders) == sorted((len(o.factor_plan.indptr) - 1,) * 2
                                        for o in pr.objectives)
        assert specs == ["NATURAL"] * len(specs) and len(specs) > pr.L
        csv.append(tr.to_csv(wall_times=False))
    assert csv[0] == csv[1]


@pytest.mark.parametrize("algorithm,config", [
    ("mgb", {}), ("mgb", dict(direct_cap=0)), ("naive-theta", {})],
    ids=["mgb", "mgb-direct-cap-0", "naive-theta"])
def test_adapt_stepsize_gets_each_t_steps_largest_centering(small_problem, monkeypatch,
                                                             algorithm, config):
    # a t-step's step size adapts to the largest Newton count among its
    # centerings: its trace rows at level >= 0, at its own k
    seen = []

    def logged(rho, m_k):
        seen.append(m_k)
        return adapt_stepsize(rho, m_k)

    monkeypatch.setattr(pathfollow, "adapt_stepsize", logged)
    tr = pathfollow.ALGORITHMS[algorithm](small_problem, PathConfig(**config))
    assert tr.status == "converged"
    summaries = tr.summary_rows()
    t_steps = [s for prev, s in zip(summaries, summaries[1:]) if s.t > prev.t]
    expected = [max(r.newton_iters for r in tr.rows if r.k == s.k and r.level >= 0)
                for s in t_steps]
    assert seen == expected and len(seen) > 1
    assert [s.newton_iters for s in t_steps] == expected


@pytest.mark.parametrize("levels", [2, 3])
def test_sweep_levels_evaluate_each_fine_point_once(small_problem, monkeypatch, levels):
    # Algorithm MGB proper: the fine objective's record hands a line search's
    # accepted trial to the next Hessian, so Dz is sampled fewer times than
    # value and grad_hess are called, and each sweep level after the first
    # starts where the level before it ended: its first Hessian reuses that
    # level's last element blocks. Three levels have a level whose P is a
    # product of two prolongations; their sweep visits levels 1 and 3.
    problem = (small_problem if levels == 2
               else build_problem(ProblemSpec(p=1.5, alpha=2, levels=levels, cells0=2)))
    calls = dict.fromkeys(["sample", "value", "grad_hess"], 0)
    for owner, name in ((DSampler, "sample"), (LevelObjective, "value"),
                        (LevelObjective, "grad_hess")):
        def counted(*args, fn=getattr(owner, name), name=name, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        monkeypatch.setattr(owner, name, counted)

    sweeps, in_sweep = [], []  # per sweep, per level, the element blocks evaluated
    blocks_, center, t_step = Objective.element_blocks, pathfollow.center, pathfollow.mgb_t_step

    def logged_blocks(self, z):
        blocks = blocks_(self, z)
        if in_sweep:
            sweeps[-1][-1].append(blocks)
        return blocks

    def logged_center(*args, **kw):
        if in_sweep:
            sweeps[-1].append([])
        return center(*args, **kw)

    def logged_t_step(*args, **kw):
        sweeps.append([])
        in_sweep.append(True)
        try:
            return t_step(*args, **kw)
        finally:
            in_sweep.pop()

    monkeypatch.setattr(Objective, "element_blocks", logged_blocks)
    monkeypatch.setattr(pathfollow, "center", logged_center)
    monkeypatch.setattr(pathfollow, "mgb_t_step", logged_t_step)
    tr = run_mgb(problem, PathConfig(direct_cap=0))
    assert tr.status == "converged"
    assert calls["sample"] < calls["value"] + calls["grad_hess"]
    assert len(sweeps) > 1
    for sweep in sweeps:
        assert len(sweep) == 2
        for before, after in zip(sweep, sweep[1:]):
            assert after[0] is before[-1]


@pytest.mark.parametrize("levels,direct_cap,visited", [
    (2, 0, (1, 2)), (3, 0, (1, 3)), (4, 0, (2, 4)), (3, 1, (1, 2, 3))],
    ids=["proper-L2", "proper-L3", "proper-L4", "fallback-L3"])
def test_sweep_visits_every_second_level_only_in_mgb_proper(levels, direct_cap, visited):
    # Algorithm MGB proper (direct_cap 0) sweeps levels L, L-2, ... down to 1
    # or 2, and both levels at L = 2. Practical MGB's fallback sweep, after a
    # direct step capped at one Newton step misses, visits every level. The
    # h-steps at k = 0 center on every level either way.
    problem = build_problem(ProblemSpec(p=1.5, alpha=2, levels=levels, cells0=2))
    tr = run_mgb(problem, PathConfig(direct_cap=direct_cap))
    assert tr.status == "converged"
    assert [r.level for r in tr.rows if r.k == 0 and r.level >= 1] == list(range(1, levels + 1))
    sweeps = {}  # t-step k >= 1 -> the grid levels of its rows, in order
    for r in tr.rows:
        if r.k >= 1 and r.level >= 1:
            sweeps.setdefault(r.k, []).append(r.level)
    assert len(sweeps) > 1 and {tuple(v) for v in sweeps.values()} == {visited}


@pytest.fixture(scope="module")
def proper_problems():
    """alpha=2, cells0=4 problems as {(p, L): problem}: p=1.5 at L=1..4, p=1
    and p=2 at L=3."""
    return {(p, levels): build_problem(ProblemSpec(p=p, alpha=2, levels=levels, cells0=4))
            for p, levels in [(1.5, 1), (1.5, 2), (1.5, 3), (1.5, 4), (1.0, 3), (2.0, 3)]}


@pytest.mark.parametrize("predictor", [True, False], ids=["predictor", "no-predictor"])
def test_mgb_proper_keeps_the_acceptance_bounds(proper_problems, mgb_with_iterates, predictor):
    # Algorithm MGB proper (direct_cap 0) on the acceptance suite's problems:
    # criteria 3 (filter bound), 6(b) (Newton steps per t-step), 7 (step-size
    # floor at p=1) and 8 (t rail, every stored iterate feasible), and its
    # bound rho <= 4. Criterion 6(a) does not hold for it (newton_steps grows
    # 1.64 per halving with the predictor, 2.03 without, against 1.5; ROADMAP
    # items 9 and 24), so nothing here gates on the totals.
    config = PathConfig(direct_cap=0, predictor=predictor)
    runs = {key: mgb_with_iterates(problem, config)
            for key, problem in proper_problems.items()}
    traces = {key: tr for key, (tr, _) in runs.items()}
    for (p, levels), (tr, iterates) in runs.items():
        problem = proper_problems[p, levels]
        assert tr.status == "converged", (p, levels)
        assert tr.t_final <= 1e8 and all(r.t <= 1e8 for r in tr.rows)
        assert all(np.all(problem.fine_objective.margin(z) > 0.0) for _, z in iterates)
        if (p, levels) in ((1.5, 3), (2.0, 3)):
            gaps = diagnostics.filter_gap(tr, nu=4.0, domain_volume=problem.domain_volume())
            assert gaps and all(gap <= bound for _, _, gap, bound in gaps), (p, levels)
    assert all(len(runs[1.5, levels][1]) > 1 for levels in (1, 2, 3, 4))
    assert max(traces[1.5, levels].max_step_newton() for levels in (1, 2, 3, 4)) <= 15
    assert traces[1.0, 3].max_step_newton() <= 20
    assert min(r.rho for r in traces[1.0, 3].summary_rows() if r.k >= 1) >= 1.1
    assert all(r.rho <= 4.0 for tr in traces.values() for r in tr.summary_rows())
    if predictor:
        # the bound is MGB proper's: practical MGB squares rho to 16 at L = 4
        practical = run_mgb(proper_problems[1.5, 4], PathConfig())
        assert practical.status == "converged"
        assert max(r.rho for r in practical.summary_rows()) == 16.0


class FakeLibc:
    """A libc whose mallopt records its (param, value) calls."""

    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1
        self.mallopt = mallopt


# glibc's M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3): in a solve, then after it
HEAP_POLICY = [(-1, 256 << 20), (-3, 1 << 20)]
HEAP_DEFAULT = [(-1, 128 << 10), (-3, 128 << 10)]
RUNNERS = pytest.mark.parametrize(
    "runner", [run_mgb, functools.partial(run_naive, schedule="theta")], ids=["mgb", "naive-theta"])


@RUNNERS
def test_solve_holds_the_heap_policy_from_entry_to_exit(small_problem, runner, monkeypatch):
    libc = FakeLibc()
    monkeypatch.setattr(pathfollow, "_libc", lambda: libc)
    seen = []
    center = pathfollow.center

    def logged(*args, **kwargs):
        seen.append(list(libc.calls))
        return center(*args, **kwargs)

    monkeypatch.setattr(pathfollow, "center", logged)
    assert runner(small_problem, PathConfig()).status == "converged"
    assert seen and all(calls == HEAP_POLICY for calls in seen)
    assert libc.calls == HEAP_POLICY + HEAP_DEFAULT


@RUNNERS
def test_heap_policy_is_undone_on_a_budget_stop_and_a_raise(small_problem, runner, monkeypatch):
    libc = FakeLibc()
    monkeypatch.setattr(pathfollow, "_libc", lambda: libc)
    assert runner(small_problem, PathConfig(budget_s=0.0)).status == "budget"
    assert libc.calls == HEAP_POLICY + HEAP_DEFAULT
    libc.calls.clear()

    def broken(*args, **kwargs):
        raise RuntimeError("center broke")

    monkeypatch.setattr(pathfollow, "center", broken)
    with pytest.raises(RuntimeError, match="center broke"):
        runner(small_problem, PathConfig())
    assert libc.calls == HEAP_POLICY + HEAP_DEFAULT


def _no_libc():
    raise OSError("libc.so.6: cannot open shared object file")


@pytest.mark.parametrize("lookup", [_no_libc, types.SimpleNamespace],
                         ids=["lookup-raises", "no-mallopt"])
def test_solve_without_glibc_leaves_the_heap_alone(small_problem, lookup, monkeypatch):
    # the policy changes where memory comes from, never a number
    with_policy = run_mgb(small_problem, PathConfig()).to_csv(wall_times=False)
    monkeypatch.setattr(pathfollow, "_libc", lookup)
    tr = run_mgb(small_problem, PathConfig())
    assert tr.status == "converged"
    assert tr.to_csv(wall_times=False) == with_policy
