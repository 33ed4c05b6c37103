import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mgbarrier import newton
from mgbarrier.assembly import LevelObjective, regularization_shift, regularize
from mgbarrier.newton import (BUDGET, CONVERGED, INFEASIBLE_START, ITERATION_CAP,
                              SOLVER_FAILURE, DirectSolver, center,
                              newton_decrement)
from mgbarrier.problems import ProblemSpec, build_problem


class QuadraticObjective:
    """0.5 y^T A y - b^T y (t is ignored); exact minimum in one Newton step."""

    def __init__(self, A, b):
        self.A = sp.csr_matrix(A)
        self.b = np.asarray(b, dtype=float)

    @property
    def dim(self):
        return len(self.b)

    def value(self, y, t):
        return 0.5 * y @ (self.A @ y) - self.b @ y

    def grad_hess(self, y, t):
        return self.A @ y - self.b, self.A


class LogBarrier1D:
    """t*y - log(y): center at y = 1/t, infeasible for y <= 0."""

    dim = 1

    def value(self, y, t):
        if y[0] <= 0.0:
            return np.inf
        return t * y[0] - np.log(y[0])

    def grad_hess(self, y, t):
        return np.array([t - 1.0 / y[0]]), sp.csr_matrix([[1.0 / y[0] ** 2]])


def test_newton_decrement_quadratic():
    A = np.array([[2.0, 0.0], [0.0, 8.0]])
    g = np.array([2.0, 8.0])
    lam, step = newton_decrement(g, sp.csr_matrix(A))
    assert np.allclose(step, [-1.0, -1.0])
    assert lam == pytest.approx(np.sqrt(10.0), rel=1e-12)


def test_center_quadratic_one_full_step():
    obj = QuadraticObjective(np.diag([1.0, 4.0, 9.0]), np.array([1.0, 2.0, 3.0]))
    y_star = np.array([1.0, 0.5, 1.0 / 3.0])
    # start close enough for the quadratic phase: one full step, exact answer
    res = center(obj, y_star + 0.01, t=1.0, lam_tol=1e-10)
    assert res.status == CONVERGED
    assert res.iterations == 1
    assert np.allclose(res.y, y_star, atol=1e-12)


def test_center_solves_with_its_last_factor():
    # a converged centering leaves the factor at its point for H^{-1} rhs;
    # release() and an unconverged centering leave none
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]])
    obj = QuadraticObjective(A, np.array([1.0, 2.0, 3.0]))
    rhs = np.array([1.0, -1.0, 0.5])
    solver = DirectSolver()
    res = center(obj, np.zeros(3), t=1.0, lam_tol=1e-10, solver=solver)
    assert res.status == CONVERGED
    assert np.allclose(A @ solver.solve(rhs), rhs, rtol=1e-12)
    solver.release()
    with pytest.raises(RuntimeError, match="no factor"):
        solver.solve(rhs)
    res = center(obj, np.full(3, 1e6), t=1.0, lam_tol=1e-12, max_iters=0,
                 solver=solver)
    assert res.status == ITERATION_CAP
    with pytest.raises(RuntimeError, match="no factor"):
        solver.solve(rhs)


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
    assert pr.objectives[0].feasible(lvl.full_point(res.y))


def _centered_and_refined(pr):
    """A centered point on level 1 of pr and its refinement to level 2."""
    lvl = LevelObjective(pr.objectives[0], pr.z0, None)
    res = center(lvl, np.zeros(lvl.dim), t=1.0, lam_tol=1e-6)
    assert res.status == CONVERGED
    z = lvl.full_point(res.y)
    return (pr.objectives[0], z), (pr.objectives[1], pr.refine_iterate(z, 0))


def _sigma(H):
    """1e-15 |||D^-1/2 H D^-1/2|||_inf, D = diag(H)."""
    S = sp.diags(H.diagonal() ** -0.5)
    return 1e-15 * abs(S @ H @ S).sum(axis=1).max()


def _shifted(H):
    """H + sigma diag(H), the system newton_decrement solves."""
    return (H + sp.diags(_sigma(H) * H.diagonal())).tocsr()


def _assert_solves_regularized(g, H, lam, step):
    """Backward error at roundoff level; relative residual below 1e-10, or
    within 10x of a dense LAPACK solve of the same system where that cannot
    reach 1e-10."""
    assert lam is not None
    R = _shifted(H)
    r = np.linalg.norm(R @ step + g)
    assert r / (spla.norm(R) * np.linalg.norm(step) + np.linalg.norm(g)) <= 1e-15
    dense = np.linalg.solve(R.toarray(), -g)
    floor = np.linalg.norm(R @ dense + g)
    assert r <= max(1e-10 * np.linalg.norm(g), 10 * floor)
    assert lam == pytest.approx(np.sqrt(-g @ step), rel=1e-12)


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
    # The second system on a pattern is gathered into the recorded permuted
    # pattern and factored in natural order. It meets the same bounds as the
    # first. Its step is the first one to 1e-7 at the centered point; at the
    # refined point (cond ~1e19) the forward error of any backward-stable
    # solve is larger: a dense LAPACK step differs from the first by 2.7e-3,
    # the reused-order step by 1.6e-8.
    (obj_c, z_c), (obj_r, z_r) = _centered_and_refined(small_problem)
    orderings_used.clear()
    solver = DirectSolver()
    for obj, z, max_diff in ((obj_c, z_c, 1e-7), (obj_r, z_r, 1e-4)):
        g, H = obj.grad_hess(z, 1.0)
        lam0, step0 = solver.decrement(g, H)
        g, H = obj.grad_hess(z, 1.0)
        lam, step = solver.decrement(g, H)
        _assert_solves_regularized(g, H, lam, step)
        assert np.linalg.norm(step - step0) <= max_diff * np.linalg.norm(step0)
    assert orderings_used == ["MMD_AT_PLUS_A", "NATURAL"] * 2
    assert len(solver.orderings) == 2


def test_same_shape_and_nnz_do_not_reuse_an_ordering(orderings_used):
    # two SPD patterns with equal shape and nnz: (0, 2) coupled vs (1, 3)
    A = np.diag([4.0, 5.0, 6.0, 7.0])
    A1, A2 = A.copy(), A.copy()
    A1[0, 2] = A1[2, 0] = 1.0
    A2[1, 3] = A2[3, 1] = 1.0
    g = np.array([1.0, 2.0, 3.0, 4.0])
    solver = DirectSolver()
    for M in (A1, A2, A2):
        lam, step = solver.decrement(g, sp.csr_matrix(M))
        assert np.allclose(M @ step, -g, rtol=1e-12)
    assert orderings_used == ["MMD_AT_PLUS_A", "MMD_AT_PLUS_A", "NATURAL"]


def test_newton_decrement_outside_a_run_is_repeatable(small_problem, orderings_used):
    # outside a center call nothing is cached: two calls agree bit for bit
    (obj, z), _ = _centered_and_refined(small_problem)
    orderings_used.clear()
    g, H = obj.grad_hess(z, 1.0)
    lam0, step0 = newton_decrement(g, H)
    lam1, step1 = newton_decrement(g, H)
    assert lam0 == lam1
    assert np.array_equal(step0, step1)
    assert orderings_used == ["MMD_AT_PLUS_A"] * 2


def test_factor_fill_below_default_supernode_relaxation(monkeypatch):
    # At an L=4 iterate every factorization, with its own ordering or a
    # reused one, fills in less than minimum degree with SuperLU's default
    # supernode relaxation (473 k entries against 315 k), which pads relaxed
    # supernodes with explicit zeros. On small grids the two fills are within
    # a few percent either way, so the guard runs where relax matters.
    pr = build_problem(ProblemSpec(p=1.5, alpha=2, levels=4, cells0=4))
    z = pr.z0
    for lvl in range(pr.L - 1):
        z = pr.refine_iterate(z, lvl)
    g, H = pr.fine_objective.grad_hess(z, 1.0)
    default = spla.splu(regularize(H).tocsc(), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    splu, fills = spla.splu, []

    def logged(A, **kwargs):
        lu = splu(A, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", logged)
    solver = DirectSolver()
    for _ in range(2):
        assert solver.decrement(g, H)[0] is not None
    assert len(fills) == 2
    assert max(fills) < default.nnz


def test_negative_decrement_is_a_solver_failure():
    # indefinite H with a positive diagonal (eigenvalues 3 and -1):
    # lambda^2 = g^T H^{-1} g = -1/3 for g = e_2 is no roundoff
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert newton_decrement(np.array([0.0, 1.0]), sp.csr_matrix(A)) == (None, None)
    res = center(QuadraticObjective(A, np.array([0.0, -1.0])), np.zeros(2), t=1.0)
    assert res.status == SOLVER_FAILURE
    assert res.iterations == 0
    # g^T H^{-1} g = 0 on g_2 / g_1 = 2 + sqrt(3); just past it lambda^2 is
    # negative within roundoff of |g| |step|, and is clamped to 0
    lam, step = newton_decrement(np.array([1.0, 2.0 + np.sqrt(3.0) + 1e-10]),
                                 sp.csr_matrix(A))
    assert lam == 0.0
    assert step is not None


class FixedHessian:
    """Objective with value 0, gradient 1 and a fixed CSR Hessian everywhere."""

    def __init__(self, H):
        self.H = H

    @property
    def dim(self):
        return self.H.shape[0]

    def value(self, y, t):
        return 0.0

    def grad_hess(self, y, t):
        return np.ones(self.dim), self.H


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_nonpositive_diagonal_fails_before_factoring(orderings_used, bad):
    # H is not SPD: a solver-failure, never a clamp, and no splu is attempted,
    # on a new pattern and on one whose ordering is recorded
    H = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
    bad_H = H.copy()
    bad_H.data[H.indptr[1] + 1] = bad  # entry (1, 1), kept even when 0
    solver = DirectSolver()
    res = center(FixedHessian(bad_H), np.zeros(3), t=1.0, solver=solver)
    assert res.status == SOLVER_FAILURE
    assert orderings_used == []
    assert solver.decrement(np.ones(3), H)[0] is not None
    res = center(FixedHessian(bad_H), np.zeros(3), t=1.0, solver=solver)
    assert res.status == SOLVER_FAILURE
    assert res.iterations == 0
    assert orderings_used == ["MMD_AT_PLUS_A"]


def test_reused_ordering_gets_the_same_shift(small_problem, monkeypatch):
    # The reused path reads the diagonal through the recorded permutation; it
    # must see H's diagonal in H's own row order, as the new-pattern path
    # does, and so get the same sigma and the same step. At the refined point
    # the diagonal spans many orders of magnitude, so a permuted diagonal
    # would give another sigma.
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
        solver = DirectSolver()
        _, step0 = solver.decrement(g, H)
        _, step = solver.decrement(g, H)
        assert len(calls) == 2
        for d_seen, sigma_seen in calls:
            assert np.array_equal(d_seen, H.diagonal())
            assert sigma_seen == pytest.approx(_sigma(H), rel=1e-12)
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
    H = lvl.grad_hess(y, t)[1]
    y0 = y + 1e-3 / np.sqrt(v @ (H @ v)) * v
    g, H = lvl.grad_hess(y0, t)
    lam0 = newton_decrement(g, H)[0]
    assert lam0 == pytest.approx(1e-3, rel=1e-3)

    s = np.where(slack, 1e-6, 1.0)
    Hs = (sp.diags(s) @ H @ sp.diags(s)).tocsr()
    assert regularization_shift(Hs) > 10 * Hs.diagonal().min()
    lam, step = newton_decrement(s * g, Hs)
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
