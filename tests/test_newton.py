import re
import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._compressed import _cs_matrix

from mgbarrier import assembly, newton
from mgbarrier.assembly import CondensedHessian, LevelObjective
from mgbarrier.femspace import sym_entries
from mgbarrier.newton import (BUDGET, CONVERGED, INFEASIBLE_START, ITERATION_CAP,
                              SOLVER_FAILURE, DecrementFailure, center,
                              newton_decrement, regularize)
from mgbarrier.pathfollow import PathConfig, run_mgb
from mgbarrier.problems import UNIT_INTERVAL, UNIT_SQUARE, ProblemSpec, build_problem

from hessians import full_hessian, no_slack, plan_of, splu_order
from test_assembly import reference_grad_hess


class QuadraticObjective:
    """0.5 y^T A y - b^T y (t is ignored); exact minimum in one Newton step."""

    def __init__(self, A, b):
        self.A = sp.csr_matrix(A)
        self.H = no_slack(self.A)
        self.b = np.asarray(b, dtype=float)

    @property
    def dim(self):
        return len(self.b)

    def value(self, y, t):
        return 0.5 * y @ (self.A @ y) - self.b @ y

    def grad_hess(self, y, t):
        return self.A @ y - self.b, self.H


class LogBarrier1D:
    """t*y - log(y): center at y = 1/t, infeasible for y <= 0."""

    dim = 1

    def value(self, y, t):
        if y[0] <= 0.0:
            return np.inf
        return t * y[0] - np.log(y[0])

    def grad_hess(self, y, t):
        return np.array([t - 1.0 / y[0]]), no_slack([[1.0 / y[0] ** 2]])


def test_newton_decrement_quadratic():
    A = np.array([[2.0, 0.0], [0.0, 8.0]])
    g = np.array([2.0, 8.0])
    lam, step = newton_decrement(g, no_slack(A))
    assert np.allclose(step, [-1.0, -1.0])
    assert lam == pytest.approx(np.sqrt(10.0), rel=1e-12)


def test_failed_decrement_leaves_no_earlier_factor(monkeypatch):
    # a decrement that fails after a successful one on the same H takes
    # that one's factor off H: H.solve cannot silently use a stale factor
    H = no_slack(np.diag([2.0, 8.0]))
    g = np.array([2.0, 8.0])
    newton_decrement(g, H)
    assert np.allclose(H.solve(g), [1.0, 1.0])

    def failing(A, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", failing)
    with pytest.raises(DecrementFailure, match="^splu failed"):
        newton_decrement(g, H)
    assert H.solve_s is None


def test_regularize_formula_exact():
    # D^-1/2 |S| D^-1/2 has row sums 1.125, 1.25 and 1.125, all exact in
    # binary, so sigma = 1e-15 * 1.25; on a power-of-two diagonal d,
    # d (1 + sigma) rounds as d + sigma d does
    S = sp.csr_matrix(np.array([[4.0, -1.0, 0.0], [-1.0, 16.0, 2.0], [0.0, 2.0, 16.0]]))
    d = np.array([4.0, 16.0, 16.0])
    expected = S.toarray() + 1e-15 * 1.25 * np.diag(d)
    plan = plan_of(S)
    R, _ = regularize(S, plan)
    assert R.format == "csc"
    # R's row and column k is dof gather[k]: entry (i, j) at (perm[i], perm[j])
    g = plan.gather
    assert not np.array_equal(g, np.arange(3))
    assert np.array_equal(g[plan.perm], np.arange(3))
    assert np.array_equal(R.toarray(), expected[np.ix_(g, g)])


def test_regularize_zero_matrix():
    # a zero diagonal is not SPD, and no shift relative to it makes it so;
    # the empty Schur complement of a problem with no free u dof is empty
    S = sp.csr_matrix((np.zeros(3), (np.arange(3), np.arange(3))), shape=(3, 3))
    with pytest.raises(DecrementFailure, match=r"^diagonal of S not positive, row 0: 0\.0$"):
        regularize(S, plan_of(S))
    S = sp.csr_matrix((0, 0))
    R, _ = regularize(S, plan_of(S))
    assert R.shape == (0, 0) and R.nnz == 0


def test_center_quadratic_one_full_step():
    obj = QuadraticObjective(np.diag([1.0, 4.0, 9.0]), np.array([1.0, 2.0, 3.0]))
    y_star = np.array([1.0, 0.5, 1.0 / 3.0])
    # start close enough for the quadratic phase: one full step, exact answer
    res = center(obj, y_star + 0.01, t=1.0, lam_tol=1e-10)
    assert res.status == CONVERGED
    assert res.iterations == 1
    assert np.allclose(res.y, y_star, atol=1e-12)


def test_center_solves_with_its_last_factor():
    # a converged centering solves H^{-1} rhs with the factor at its point;
    # an unconverged one, or one without an rhs, solves nothing
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]])
    obj = QuadraticObjective(A, np.array([1.0, 2.0, 3.0]))
    rhs = np.array([1.0, -1.0, 0.5])
    res = center(obj, np.zeros(3), t=1.0, lam_tol=1e-10, rhs=rhs)
    assert res.status == CONVERGED
    assert np.allclose(A @ res.solved, rhs, rtol=1e-12)
    assert center(obj, np.zeros(3), t=1.0, lam_tol=1e-10).solved is None
    res = center(obj, np.full(3, 1e6), t=1.0, lam_tol=1e-12, max_iters=0, rhs=rhs)
    assert res.status == ITERATION_CAP and res.solved is None


def test_center_log_barrier_far_start():
    res = center(LogBarrier1D(), np.array([100.0]), t=2.0, lam_tol=1e-8)
    assert res.status == CONVERGED
    assert res.y[0] == pytest.approx(0.5, rel=1e-6)
    assert res.decrement <= 1e-8


def test_center_infeasible_start():
    res = center(LogBarrier1D(), np.array([-1.0]), t=1.0)
    assert res.status == INFEASIBLE_START
    assert res.iterations == 0
    assert res.value == np.inf


def test_center_iteration_cap():
    # far start keeps the decrement large, so the damped phase cannot finish
    obj = QuadraticObjective(np.diag([1.0, 4.0, 9.0]), np.zeros(3))
    res = center(obj, np.full(3, 1e6), t=1.0, lam_tol=1e-12, max_iters=1)
    assert res.status == ITERATION_CAP
    assert res.iterations == 1


def test_center_stops_at_the_run_cap_by_default():
    # from this far start the damped phase needs millions of steps; with no
    # max_iters a centering stops where every path-following one does
    obj = QuadraticObjective(np.diag([1.0, 4.0, 9.0]), np.zeros(3))
    res = center(obj, np.full(3, 1e6), t=1.0)
    assert res.status == ITERATION_CAP
    assert res.iterations == newton.MAX_CENTER_ITERS


def test_damped_steps_decrease_value():
    obj = LogBarrier1D()
    t = 3.0
    y = np.array([50.0])
    val = obj.value(y, t)
    # run a few manual damped iterations through center's contract
    res = center(obj, y, t, lam_tol=1e-10)
    assert res.status == CONVERGED
    assert obj.value(res.y, t) < val


def test_center_counts_accepted_steps(small_problem):
    from mgbarrier.assembly import LevelObjective
    pr = small_problem
    lvl = LevelObjective(pr.objectives[0], pr.z0, None)
    res = center(lvl, np.zeros(lvl.dim), t=1.0, lam_tol=1e-6)
    assert res.status == CONVERGED
    assert res.iterations > 0
    assert res.decrement <= 1e-6
    # the result carries f at its iterate, so callers need not evaluate it again
    assert res.value == lvl.value(res.y, 1.0)
    # result stays feasible
    assert np.all(pr.objectives[0].margin(lvl.full_point(res.y)) > 0.0)


def _centered_and_refined(pr):
    """A centered point on level 1 of pr and its refinement to level 2."""
    lvl = LevelObjective(pr.objectives[0], pr.z0, None)
    res = center(lvl, np.zeros(lvl.dim), t=1.0, lam_tol=1e-6)
    assert res.status == CONVERGED
    z = lvl.full_point(res.y)
    return (pr.objectives[0], z), (pr.objectives[1], pr.refine_iterate(z, 0))


def _sigma(S):
    """1e-15 |||D^-1/2 S D^-1/2|||_inf, D = diag(S)."""
    D = sp.diags(S.diagonal() ** -0.5)
    return 1e-15 * abs(D @ S @ D).sum(axis=1).max()


def _shifted(H):
    """H + blockdiag(sigma diag(S), 0), the full-space system whose
    condensed form S + sigma diag(S) newton_decrement factors."""
    S, full = H.S, full_hessian(H)
    shift = np.zeros(full.shape[0])
    shift[:S.shape[0]] = _sigma(S) * S.diagonal()
    return (full + sp.diags(shift)).tocsr()


def _assert_solves(R, b, x):
    """x solves R x = b: backward error at roundoff level; relative residual
    below 1e-10, or within 10x of a dense LAPACK solve of the same system
    where that cannot reach 1e-10."""
    r = np.linalg.norm(R @ x - b)
    assert r / (spla.norm(R) * np.linalg.norm(x) + np.linalg.norm(b)) <= 1e-15
    dense = np.linalg.solve(R.toarray(), b)
    floor = np.linalg.norm(R @ dense - b)
    assert r <= max(1e-10 * np.linalg.norm(b), 10 * floor)


def _assert_solves_regularized(g, H, lam, step):
    assert lam is not None
    _assert_solves(_shifted(H), -g, step)
    assert lam == pytest.approx(np.sqrt(-g @ step), rel=1e-12)


# 1-D also with a forcing: with the default data (g = x, f = 0) the u part
# of the 1-D gradient and Newton step is 0, which no u-u solve can get wrong
DOMAINS = pytest.mark.parametrize(
    "domain, forcing", [(UNIT_INTERVAL, None), (UNIT_SQUARE, None), (UNIT_INTERVAL, lambda x: 1.0)],
    ids=["1d", "2d", "1d-forced"])


@DOMAINS
@pytest.mark.parametrize("alpha", [1, 2])
def test_condensed_solves_match_the_full_hessian(domain, forcing, alpha):
    # The Newton step and the tangent dz/dt = H^-1 (-c) are solved with S and
    # the slack back-substituted per element. Both must solve the full
    # free-dof system, assembled without condensation and shifted as the
    # solver shifts S, to roundoff: at the point an h-refinement produces
    # and at a late center, where the gap is ~1/t.
    pr = build_problem(ProblemSpec(p=1.5, alpha=alpha, levels=2, cells0=2, domain=domain,
                                   forcing=forcing))
    _, (obj, z_refined) = _centered_and_refined(pr)
    tr = run_mgb(pr, PathConfig(t_cap=1e6, c_stp=1e9))
    assert tr.status == "converged" and tr.t_final == 1e6
    c = obj.cost_vector[obj.free_idx()]
    for z, t in ((z_refined, 1.0), (tr.z_final, 1e6)):
        g, H = obj.grad_hess(z, t)
        _, H_ref = reference_grad_hess(obj, z, t)
        d = H.S.diagonal()
        shift = np.zeros(H_ref.shape[0])
        shift[:d.size] = newton.scaled_shift(H.S, d) * d
        R = (H_ref + sp.diags(shift)).tocsr()
        lam, step = newton_decrement(g, H)
        assert lam == pytest.approx(np.sqrt(-g @ step), rel=1e-12)
        _assert_solves(R, -g, step)
        _assert_solves(R, -c, H.solve(-c))


@DOMAINS
@pytest.mark.parametrize("alpha", [1, 2])
def test_two_stage_steps_solve_the_regularized_hessian(domain, forcing, alpha, monkeypatch):
    # On a refined level every parent's interior u dofs are eliminated
    # before SuperLU runs, and it factors only R, the Schur complement on
    # the other u dofs (all of S where no dof lies inside a parent: 2-D,
    # alpha = 1). Step, decrement and tangent still solve the full system
    # shifted as S is, at the point an h-refinement produces and at a late
    # center.
    pr = build_problem(ProblemSpec(p=1.5, alpha=alpha, levels=2, cells0=2, domain=domain,
                                   forcing=forcing))
    _, (obj, z_refined) = _centered_and_refined(pr)
    tr = run_mgb(pr, PathConfig(t_cap=1e6, c_stp=1e9))
    assert tr.status == "converged" and tr.t_final == 1e6
    # 2 parents in 1-D, 8 in 2-D, with 3 / 1 / 3 / 0 interior dofs each
    n_in = {(1, 1): 2, (1, 2): 6, (2, 1): 0, (2, 2): 24}[len(domain), alpha]
    factored, splu = [], spla.splu

    def logged(A, **kwargs):
        factored.append(A.shape)
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", logged)
    c = obj.cost_vector[obj.free_idx()]
    for z, t in ((z_refined, 1.0), (tr.z_final, 1e6)):
        g, H = obj.grad_hess(z, t)
        assert H.plan is obj.factor_plan
        assert (0 if obj.parent_dofs is None else obj.parent_dofs[0].size) == n_in
        lam, step = newton_decrement(g, H)
        assert factored[-1] == (H.S.shape[0] - n_in,) * 2
        _assert_solves_regularized(g, H, lam, step)
        _assert_solves(_shifted(H), -c, H.solve(-c))


def test_fine_factorization_is_the_skeleton_schur_complement(monkeypatch):
    # At an L=4 iterate SuperLU factors only the Schur complement R on the
    # 2,433 u dofs on parent edges, not S on all 3,969 free u dofs, and
    # fills less than S does (170 k against 214 k entries), and less than R
    # with SuperLU's default supernode relaxation (193 k); lambda and the
    # step match those of factoring S whole to roundoff.
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=4, cells0=4))
    z = pr.z0
    for lvl in range(pr.L - 1):
        z = pr.refine_iterate(z, lvl)
    g, H = pr.fine_objective.grad_hess(z, 1.0)
    R, _ = regularize(H.S, H.plan)
    default = spla.splu(R, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))
    factored, splu = [], spla.splu

    def logged(A, **kwargs):
        lu = splu(A, **kwargs)
        factored.append((A.shape[0], lu.nnz))
        return lu

    monkeypatch.setattr(spla, "splu", logged)
    lam, step = newton_decrement(g, H)
    whole = CondensedHessian(H.S, H.slack, plan_of(H.S))  # no parents: one stage
    lam1, step1 = newton_decrement(g, whole)
    (n_two, fill_two), (n_one, fill_one) = factored
    assert (n_two, n_one) == (2433, 3969)
    assert fill_two < min(fill_one, default.nnz)
    assert lam == pytest.approx(lam1, rel=1e-12)
    assert np.linalg.norm(step - step1) <= 1e-12 * np.linalg.norm(step1)


def test_converged_centering_solves_its_rhs_with_the_last_factor(small_problem):
    # The rhs of a converged centering is solved with the factor that checked
    # lam <= lam_tol: it solves the shifted system at the center to roundoff,
    # and equals H.solve after a bare decrement there. A capped, a failed or
    # an infeasible-start centering solves nothing.
    lvl = LevelObjective(small_problem.objectives[0], small_problem.z0, None)
    b = np.random.default_rng(3).standard_normal(lvl.dim)
    res = center(lvl, np.zeros(lvl.dim), t=1.0, lam_tol=1e-6, rhs=b)
    assert res.status == CONVERGED and res.iterations > 0
    g, H = lvl.grad_hess(res.y, 1.0)
    _assert_solves(_shifted(H), b, res.solved)
    newton_decrement(g, H)
    assert np.array_equal(H.solve(b), res.solved)

    res = center(lvl, np.zeros(lvl.dim), t=1.0, max_iters=0, rhs=b)
    assert res.status == ITERATION_CAP and res.solved is None
    A = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    res = center(QuadraticObjective(A, np.array([0.0, -1.0])), np.zeros(2), t=1.0,
                 rhs=np.ones(2))
    assert res.status == SOLVER_FAILURE and res.solved is None
    res = center(LogBarrier1D(), np.array([-1.0]), t=1.0, rhs=np.ones(1))
    assert res.status == INFEASIBLE_START and res.solved is None


@pytest.fixture
def orderings_used(monkeypatch):
    """The permc_spec of every splu call, in order."""
    specs = []
    splu = spla.splu

    def logged(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", logged)
    return specs


def test_newton_decrement_solves_regularized_hessian(small_problem):
    # The symmetric-mode factorization (diagonal pivots, no numerical
    # pivoting) must be backward stable: the normwise backward error stays at
    # roundoff level, also at the point h-refinement produces, where cond is
    # ~1e19 and the plain relative residual sits at its roundoff floor (~2e-8
    # here, as for a dense LAPACK solve). At the centered point the relative
    # residual itself is small.
    (obj_c, z_c), (obj_r, z_r) = _centered_and_refined(small_problem)
    for obj, z in ((obj_c, z_c), (obj_r, z_r)):
        g, H = obj.grad_hess(z, 1.0)
        lam, step = newton_decrement(g, H)
        _assert_solves_regularized(g, H, lam, step)


def test_reused_ordering_solves_regularized_hessian(small_problem, orderings_used):
    # Every system on a pattern is gathered into the plan's ordered pattern
    # and factored in natural order, the first as every later one: a second
    # decrement of the same system repeats the first bit for bit, and both
    # solve it to roundoff, at the centered point and at the refined point
    # (cond ~1e19).
    (obj_c, z_c), (obj_r, z_r) = _centered_and_refined(small_problem)
    orderings_used.clear()
    for obj, z in ((obj_c, z_c), (obj_r, z_r)):
        g, H = obj.grad_hess(z, 1.0)
        lam0, step0 = newton_decrement(g, H)
        g, H = obj.grad_hess(z, 1.0)
        lam, step = newton_decrement(g, H)
        _assert_solves_regularized(g, H, lam, step)
        assert lam == lam0 and np.array_equal(step, step0)
    assert orderings_used == ["NATURAL"] * 4


def test_orderings_are_recorded_per_plan(orderings_used):
    # Each plan records the minimum-degree order of its own pattern: patterns
    # of equal shape and nnz ((0, 2) coupled vs (1, 3)) get their own
    # orders, equal patterns equal ones, and every factor runs in natural
    # order on the plan's ordered R.
    A = np.diag([4.0, 5.0, 6.0, 7.0])
    A1, A2 = A.copy(), A.copy()
    A1[0, 2] = A1[2, 0] = 1.0
    A2[1, 3] = A2[3, 1] = 1.0
    H1, H2, H3 = no_slack(A1), no_slack(A2), no_slack(A2)
    g = np.array([1.0, 2.0, 3.0, 4.0])
    for H in (H1, H2, H2, H3):
        lam, step = newton_decrement(g, H)
        assert np.allclose(H.S @ step, -g, rtol=1e-12)
    assert orderings_used == ["NATURAL"] * 4
    for H in (H1, H2, H3):
        assert np.array_equal(H.plan.perm, splu_order(H.S.tocsc()))
    assert not np.array_equal(H1.plan.perm, H2.plan.perm)
    assert np.array_equal(H2.plan.perm, H3.plan.perm)


def test_newton_decrement_outside_a_run_is_repeatable(small_problem, orderings_used):
    # outside a center call each decrement factors anew, in the plan's
    # order: two calls agree bit for bit
    (obj, z), _ = _centered_and_refined(small_problem)
    orderings_used.clear()
    g, H = obj.grad_hess(z, 1.0)
    lam0, step0 = newton_decrement(g, H)
    lam1, step1 = newton_decrement(g, H)
    assert lam0 == lam1
    assert np.array_equal(step0, step1)
    assert orderings_used == ["NATURAL"] * 2


def test_factor_fill_below_default_supernode_relaxation(monkeypatch):
    # At an L=4 iterate every factorization of the Schur complement, in its
    # plan's order, fills in less than minimum degree with SuperLU's default
    # supernode relaxation (287 k entries against 214 k), which pads
    # relaxed supernodes with explicit zeros. On small grids the
    # two fills are within a few percent either way, so the guard runs where
    # relax matters.
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=4, cells0=4))
    z = pr.z0
    for lvl in range(pr.L - 1):
        z = pr.refine_iterate(z, lvl)
    g, H = pr.fine_objective.grad_hess(z, 1.0)
    whole = plan_of(H.S)
    default = spla.splu(regularize(H.S, whole)[0], permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    splu, fills = spla.splu, []

    def logged(A, **kwargs):
        lu = splu(A, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", logged)
    for _ in range(2):
        assert newton_decrement(g, H)[0] is not None
    assert len(fills) == 2
    assert max(fills) < default.nnz


def test_every_factorization_shifts_through_regularize(small_problem, monkeypatch):
    # One gather-and-shift path: every splu of a run factors what
    # newton.regularize returned, in natural order (the plan's).
    shifted, specs = [], []
    reg, splu = newton.regularize, spla.splu

    def logged_regularize(S, plan):
        shifted.append(reg(S, plan))
        return shifted[-1]

    def logged_splu(A, permc_spec=None, **kwargs):
        assert A is shifted[-1][0]
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(newton, "regularize", logged_regularize)
    monkeypatch.setattr(spla, "splu", logged_splu)
    tr = run_mgb(small_problem, PathConfig())
    assert tr.status == "converged"
    assert len(shifted) == len(specs) > small_problem.L
    assert specs == ["NATURAL"] * len(specs)


def test_plans_and_their_orders_outlive_a_run(monkeypatch):
    # A level's TwoStagePlan, R's order included, depends on its pattern
    # alone, so two runs on one ProblemInstance build and order each
    # level's plan once in total, on the first run. Every factor of either
    # run is in natural order, and the two traces are byte-identical.
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=2, cells0=2))
    plans, specs, orders = [], [], []
    Plan, splu, spilu = assembly.TwoStagePlan, spla.splu, spla.spilu

    def logged_plan(*args):
        plans.append(Plan(*args))
        return plans[-1]

    def logged_splu(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    def logged_spilu(A, **kwargs):
        orders.append(A.shape)
        return spilu(A, **kwargs)

    monkeypatch.setattr(assembly, "TwoStagePlan", logged_plan)
    monkeypatch.setattr(spla, "splu", logged_splu)
    monkeypatch.setattr(spla, "spilu", logged_spilu)
    traces = []
    for _ in range(2):
        specs.clear()
        traces.append(run_mgb(pr, PathConfig()))
        assert traces[-1].status == "converged"
        assert specs == ["NATURAL"] * len(specs)
        assert len(orders) == len(plans) == pr.L
    assert [o.factor_plan for o in pr.objectives] == plans
    assert orders == [(len(p.indptr) - 1,) * 2 for p in plans]
    assert traces[0].to_csv(wall_times=False) == traces[1].to_csv(wall_times=False)


def test_empty_schur_complement_converges():
    # alpha = 1 on one cell and one level: every u dof is on the boundary,
    # so S is 0 x 0 and each Newton step is the slack back-substitution alone
    pr = build_problem(ProblemSpec(alpha=1, levels=1, cells0=1))
    g, H = pr.fine_objective.grad_hess(pr.z0, 1.0)
    assert H.S.shape == (0, 0) and g.size > 0
    tr = run_mgb(pr, PathConfig())
    assert tr.status == "converged", tr.failure_reason


def test_negative_decrement_is_a_solver_failure():
    # indefinite H with a positive diagonal (eigenvalues 3 and -1):
    # lambda^2 = g^T H^{-1} g = -1/3 for g = e_2 is no roundoff
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DecrementFailure, match="is negative beyond roundoff$"):
        newton_decrement(np.array([0.0, 1.0]), no_slack(A))
    res = center(QuadraticObjective(A, np.array([0.0, -1.0])), np.zeros(2), t=1.0)
    assert res.status == SOLVER_FAILURE
    assert res.iterations == 0
    # g^T H^{-1} g = 0 on g_2 / g_1 = 2 + sqrt(3); just past it lambda^2 is
    # negative within roundoff of |g| |step|, and is clamped to 0
    lam, step = newton_decrement(np.array([1.0, 2.0 + np.sqrt(3.0) + 1e-10]),
                                 no_slack(A))
    assert lam == 0.0
    assert step is not None


class FixedHessian:
    """Objective with value 0, gradient 1 and a fixed Hessian everywhere."""

    def __init__(self, H, dim=None):
        self.H = H
        self.dim = H.S.shape[0] if dim is None else dim

    def value(self, y, t):
        return 0.0

    def grad_hess(self, y, t):
        return np.ones(self.dim), self.H


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_nonpositive_diagonal_fails_before_factoring(orderings_used, bad):
    # H is not SPD: a solver-failure, never a clamp, and no splu is attempted,
    # before and after the pattern has been factored
    H = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
    bad_H = H.copy()
    bad_H.data[H.indptr[1] + 1] = bad  # entry (1, 1), kept even when 0
    res = center(FixedHessian(no_slack(bad_H)), np.zeros(3), t=1.0)
    assert res.status == SOLVER_FAILURE
    assert orderings_used == []
    assert newton_decrement(np.ones(3), no_slack(H))[0] is not None
    res = center(FixedHessian(no_slack(bad_H)), np.zeros(3), t=1.0)
    assert res.status == SOLVER_FAILURE
    assert res.iterations == 0
    assert orderings_used == ["NATURAL"]


def test_non_spd_condensed_hessian_is_a_solver_failure(small_problem, orderings_used):
    # A slack block that is not positive definite, or a Schur complement
    # with a non-positive diagonal entry: a solver-failure before any splu,
    # never a clamp, with no exception or floating-point warning
    obj = small_problem.objectives[0]
    gloc, uu, su, ss = obj.element_blocks(small_problem.z0)
    nf = len(obj.free_idx())
    bad_ss = ss.copy()
    bad_ss[sym_entries(obj.fesys.n_ls)[2][1, 1], 0] *= -1.0
    bad_slack = (gloc, uu, su, bad_ss)
    bad_schur = (gloc, np.zeros_like(uu), su, ss)  # diag(S) = -sum W^T W <= 0
    for bad in (bad_slack, bad_schur):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, H = obj.assemble(*bad, np.zeros(nf))
            with pytest.raises(DecrementFailure):
                newton_decrement(np.ones(nf), H)
            res = center(FixedHessian(H, nf), np.zeros(nf), t=1.0)
        assert res.status == SOLVER_FAILURE
        assert res.iterations == 0
    assert obj.assemble(*bad_slack, np.zeros(nf))[1].slack.first_bad() == 0
    assert orderings_used == []


def test_non_spd_interior_block_is_a_named_failure(small_problem, orderings_used):
    # An interior block of S that is not positive definite, with a positive
    # diagonal: condense's NaN marks it, and the decrement names its parent
    # before any splu, without a clamp, an exception or a floating-point
    # warning.
    _, (obj, z) = _centered_and_refined(small_problem)
    orderings_used.clear()
    g, H = obj.grad_hess(z, 1.0)
    inside = obj.parent_dofs[0]
    a, b = inside[0, 5], inside[1, 5]
    S = H.S.copy()
    x = 10.0 * np.sqrt(S[a, a] * S[b, b])
    for i, j in ((a, b), (b, a)):
        S.data[S.indptr[i] + np.flatnonzero(S.indices[S.indptr[i]:S.indptr[i + 1]] == j)] = x
    bad = CondensedHessian(S, H.slack, H.plan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _named_failure(bad, g) == ("interior block not SPD, parent 5",) * 2
    assert orderings_used == []


def test_reused_ordering_gets_the_same_shift(small_problem, monkeypatch):
    # The shift reads the diagonal of S through the plan's hdiag, whose order
    # is S's, not R's: it must see H's diagonal in H's own row order, and so
    # get the same sigma on every decrement. At the refined point the
    # diagonal spans many orders of magnitude, so a permuted diagonal would
    # give another sigma.
    calls = []
    shift = newton.scaled_shift

    def logged(H, d):
        calls.append((d.copy(), shift(H, d)))
        return calls[-1][1]

    monkeypatch.setattr(newton, "scaled_shift", logged)
    (obj_c, z_c), (obj_r, z_r) = _centered_and_refined(small_problem)
    for obj, z, max_diff in ((obj_c, z_c, 1e-7), (obj_r, z_r, 1e-4)):
        calls.clear()
        g, H = obj.grad_hess(z, 1.0)
        _, step0 = newton_decrement(g, H)
        _, step = newton_decrement(g, H)
        assert len(calls) == 2
        for d_seen, sigma_seen in calls:
            assert np.array_equal(d_seen, H.S.diagonal())
            assert sigma_seen == pytest.approx(_sigma(H.S), rel=1e-12)
        assert np.linalg.norm(step - step0) <= max_diff * np.linalg.norm(step0)


def test_newton_step_is_quadratic_when_rows_are_badly_scaled(small_problem):
    # Newton's method is invariant under a diagonal change of coordinates
    # y = S x, and so is a shift relative to each diagonal entry. A shift of
    # 1e-15 |||H|||_inf is not: where it exceeds the smallest diagonal
    # entries, the step on those rows is a damped gradient step and the
    # quadratic phase is lost. On this grid a centered Hessian is well
    # scaled (the old shift is ~1e-11 of its smallest diagonal entry, a
    # slack row), so slack is measured in units of 1e6, which puts the old
    # shift above the smallest diagonal entries.
    obj = small_problem.objectives[0]
    lvl = LevelObjective(obj, small_problem.z0, None)
    y = np.zeros(lvl.dim)
    for t in (1e1, 1e2, 1e3, 1e4):
        res = center(lvl, y, t, lam_tol=1e-10)
        assert res.status == CONVERGED
        y = res.y
    # a point at lambda ~ 1e-3 off the center, in the slack coordinates
    slack = obj.free_idx() >= obj.fesys.n_u
    v = np.where(slack, np.random.default_rng(0).standard_normal(lvl.dim), 0.0)
    H = full_hessian(lvl.grad_hess(y, t)[1])
    y0 = y + 1e-3 / np.sqrt(v @ (H @ v)) * v
    g, H = lvl.grad_hess(y0, t)
    lam0 = newton_decrement(g, H)[0]
    H = full_hessian(H)
    assert lam0 == pytest.approx(1e-3, rel=1e-3)

    s = np.where(slack, 1e-6, 1.0)
    Hs = (sp.diags(s) @ H @ sp.diags(s)).tocsr()
    assert 1e-15 * abs(Hs).sum(axis=1).max() > 10 * Hs.diagonal().min()
    lam, step = newton_decrement(s * g, no_slack(Hs))
    assert lam == pytest.approx(lam0, rel=1e-6)
    lam1 = newton_decrement(*lvl.grad_hess(y0 + s * step, t))[0]
    assert lam1 <= 10 * lam0 ** 2


def test_center_stops_at_deadline():
    # a far start needs many damped steps; a passed deadline allows at most one
    obj = QuadraticObjective(np.diag([1.0, 4.0, 9.0]), np.zeros(3))
    res = center(obj, np.full(3, 1e6), t=1.0, lam_tol=1e-12, max_iters=500,
                 deadline=time.monotonic())
    assert res.status == BUDGET
    assert res.iterations <= 1
    # a centering that converges is reported as converged, deadline or not
    res = center(obj, np.zeros(3), t=1.0, deadline=time.monotonic() - 1.0)
    assert res.status == CONVERGED


class FeasibleOnlyAtZero:
    """Value 0 at y = 0 and +inf anywhere else, gradient and Hessian 1: no
    damped step is ever accepted."""

    dim = 1

    def value(self, y, t):
        return 0.0 if y[0] == 0.0 else np.inf

    def grad_hess(self, y, t):
        return np.ones(1), no_slack([[1.0]])


def _named_failure(H, g=None):
    """(DecrementFailure message, centering detail) of a decrement on (g, H),
    g all ones by default, and of a centering whose gradient and Hessian are
    g and H everywhere: it fails at its first decrement."""
    g = np.ones(H.S.shape[0]) if g is None else g
    with pytest.raises(DecrementFailure) as failure:
        newton_decrement(g, H)
    obj = FixedHessian(H, len(g))
    obj.grad_hess = lambda y, t: (g, H)
    res = center(obj, np.zeros(len(g)), t=1.0)
    assert res.status == SOLVER_FAILURE and res.iterations == 0
    assert res.outcome == f"{SOLVER_FAILURE} ({res.detail})"
    return str(failure.value), res.detail


def test_each_decrement_failure_is_named(small_problem, monkeypatch):
    # a slack block that is not SPD names its first element
    obj = small_problem.objectives[0]
    gloc, uu, su, ss = obj.element_blocks(small_problem.z0)
    nf = len(obj.free_idx())
    ss = ss.copy()
    ss[0, [3, 5]] *= -1.0  # slack entry (0, 0) of elements 3 and 5
    _, H = obj.assemble(gloc, uu, su, ss, np.zeros(nf))
    assert _named_failure(H, np.ones(nf)) == ("slack block not SPD, element 3",) * 2

    # a structurally missing diagonal entry of S
    S = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]))
    assert S[1, 1] == 0.0 and S.nnz == 6
    assert _named_failure(no_slack(S)) == ("S lacks a diagonal entry",) * 2

    # a non-positive or NaN diagonal entry: its row and value
    for bad, text in ((-1.0, "-1.0"), (np.nan, "nan")):
        S = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
        S.data[S.indptr[1] + 1] = bad
        assert _named_failure(no_slack(S)) == (
            f"diagonal of S not positive, row 1: {text}",) * 2

    # lambda^2 negative beyond roundoff (eigenvalues 3 and -1, g = e_2)
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    why, detail = _named_failure(no_slack(A), np.array([0.0, 1.0]))
    # -1/3 but for the shift of the diagonal
    assert re.fullmatch(r"lambda\^2 = -0\.33333333333333\d* is negative beyond roundoff", why)
    assert detail == why

    # a factorization that fails: SuperLU's RuntimeError and its message
    def singular(A, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    assert _named_failure(no_slack(sp.eye(2, format="csr"))) == (
        "splu failed: Factor is exactly singular",) * 2


def test_line_search_failure_is_named():
    res = center(FeasibleOnlyAtZero(), np.zeros(1), t=1.0)
    assert res.status == SOLVER_FAILURE and res.iterations == 0
    assert res.outcome == f"{SOLVER_FAILURE} (no step accepted in 40 halvings)"
    # the other statuses carry no detail
    res = center(QuadraticObjective(np.eye(2), np.ones(2)), np.zeros(2), t=1.0)
    assert res.status == CONVERGED and res.outcome == CONVERGED


@pytest.mark.parametrize("level", [0, 1], ids=["coarsest", "refined"])
def test_decrement_builds_one_sparse_matrix(small_problem, level, monkeypatch):
    # the shift sums |S|'s rows over S's own arrays, so R's CSC, the matrix
    # that spla.splu factors, is the one scipy matrix a decrement builds
    obj = small_problem.objectives[level]
    z = small_problem.refine_iterate(small_problem.z0, 0) if level else small_problem.z0
    g, H = obj.grad_hess(z, 1.0)
    built, init = [], _cs_matrix.__init__

    def counted(self, *args, **kwargs):
        built.append(self.format)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_cs_matrix, "__init__", counted)
    lam, _ = newton_decrement(g, H)
    assert np.isfinite(lam) and H.solve_s is not None
    assert built == ["csc"]
