import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mgbarrier.assembly import LevelObjective, regularize
from mgbarrier.newton import (BUDGET, CONVERGED, INFEASIBLE_START, ITERATION_CAP,
                              SOLVER_FAILURE, center, newton_decrement)


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


def test_center_log_barrier_far_start():
    res = center(LogBarrier1D(), np.array([100.0]), t=2.0, lam_tol=1e-8)
    assert res.status == CONVERGED
    assert res.y[0] == pytest.approx(0.5, rel=1e-6)
    assert res.decrement <= 1e-8


def test_center_infeasible_start():
    res = center(LogBarrier1D(), np.array([-1.0]), t=1.0)
    assert res.status == INFEASIBLE_START
    assert res.iterations == 0


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
    # result stays feasible
    assert pr.objectives[0].feasible(lvl.full_point(res.y))


def _centered_and_refined(pr):
    """A centered point on level 1 of pr and its refinement to level 2."""
    lvl = LevelObjective(pr.objectives[0], pr.z0, None)
    res = center(lvl, np.zeros(lvl.dim), t=1.0, lam_tol=1e-6)
    assert res.status == CONVERGED
    z = lvl.full_point(res.y)
    return (pr.objectives[0], z), (pr.objectives[1], pr.refine_iterate(z, 0))


def test_newton_decrement_solves_regularized_hessian(small_problem):
    # The symmetric-mode factorization (diagonal pivots, no numerical
    # pivoting) must be backward stable: the normwise backward error stays at
    # roundoff level, also at the point h-refinement produces, where cond is
    # ~8e14 and the plain relative residual sits at its roundoff floor (~3e-10
    # here, as for a dense LAPACK solve). At the centered point the relative
    # residual itself is small.
    (obj_c, z_c), (obj_r, z_r) = _centered_and_refined(small_problem)
    for obj, z, max_relres in ((obj_c, z_c, 1e-10), (obj_r, z_r, 1e-8)):
        g, H = obj.grad_hess(z, 1.0)
        lam, step = newton_decrement(g, H)
        assert lam is not None
        R = regularize(H)
        r = np.linalg.norm(R @ step + g)
        assert r / (spla.norm(R) * np.linalg.norm(step) + np.linalg.norm(g)) <= 1e-15
        assert r / np.linalg.norm(g) <= max_relres
        assert lam == pytest.approx(np.sqrt(-g @ step), rel=1e-12)


def test_negative_decrement_is_a_solver_failure():
    # indefinite H: lambda^2 = -g.step = -1 is no roundoff
    A = np.diag([1.0, -1.0])
    assert newton_decrement(np.array([0.0, 1.0]), sp.csr_matrix(A)) == (None, None)
    res = center(QuadraticObjective(A, np.array([0.0, -1.0])), np.zeros(2), t=1.0)
    assert res.status == SOLVER_FAILURE
    assert res.iterations == 0
    # a negative lambda^2 within roundoff of |g| |step| is clamped to 0
    lam, step = newton_decrement(np.array([1.0, 1.0 + 1e-10]), sp.csr_matrix(A))
    assert lam == 0.0
    assert step is not None


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
