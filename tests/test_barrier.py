import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgbarrier.barrier import PLapBarrier

P_VALUES = [1.0, 1.1, 1.5, 2.0, 3.0, 4.0]


def random_feasible(barrier, rng, n, eps_lo=0.05, eps_hi=5.0):
    """Random interior points with margin bounded away from 0 and infinity."""
    q = rng.standard_normal((n, barrier.d)) * rng.uniform(0.1, 2.0, (n, 1))
    # s chosen so that s^(2/p) - |q|^2 = eps: s = (|q|^2 + eps)^(p/2)
    eps = rng.uniform(eps_lo, eps_hi, n)
    qq = np.sum(q * q, axis=-1)
    s = (qq + eps) ** (barrier.p / 2.0)
    return q, s


def test_domain_membership():
    b = PLapBarrier(p=2.0, d=2)
    assert b.feasible(np.array([[0.1, 0.2]]), np.array([1.0]))
    assert not b.feasible(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert not b.feasible(np.array([[0.0, 0.0]]), np.array([0.0]))
    assert not b.feasible(np.array([[0.0, 0.0]]), np.array([-1.0]))


@given(st.floats(allow_nan=False, allow_infinity=False, width=64),
       st.floats(allow_nan=False, allow_infinity=False, width=64),
       st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_margin_never_nan(qx, qy, s):
    b = PLapBarrier(p=1.5, d=2)
    m = b.margin(np.array([[qx, qy]]), np.array([s]))
    assert not np.any(np.isnan(m))


def test_value_infinite_outside():
    b = PLapBarrier(p=3.0, d=2)
    v = b.value(np.array([[2.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
    assert v[0] == np.inf
    assert np.isfinite(v[1])


def reference_value(p, q, s):
    """F at one point by its definition, in Python floats; +inf outside."""
    if not s > 0.0:
        return math.inf
    gap = s ** (2.0 / p) - sum(x * x for x in q)
    if not gap > 0.0:
        return math.inf
    return -math.log(gap) - 2.0 * math.log(s)


def test_value_matches_definition_at_mixed_points():
    # feasible, infeasible (gap <= 0, s = 0, s < 0), overflowing and NaN points
    # in one call; at q = 0, s = inf the gap is +inf, so F = -inf there
    b = PLapBarrier(p=1.5, d=2)
    inf, nan = math.inf, math.nan
    points = [((0.3, 0.4), 2.0), ((2.0, 0.0), 1.0), ((0.0, 0.0), 0.0),
              ((0.1, 0.0), -1.0), ((1e200, 0.0), inf), ((0.0, 0.0), inf),
              ((1e200, 0.0), 1.0), ((nan, 0.0), 1.0), ((0.0, 0.0), nan),
              ((0.0, 1e-3), 1e-300)]
    q = np.array([pt[0] for pt in points])
    s = np.array([pt[1] for pt in points])
    v = b.value(q, s)
    expected = [reference_value(b.p, qi, si) for qi, si in points]
    assert v == pytest.approx(expected, rel=1e-14)
    assert list(np.isinf(v)) == [math.isinf(e) for e in expected]
    assert not np.any(np.isnan(b.margin(q, s)))


def test_value_closed_form_p2():
    b = PLapBarrier(p=2.0, d=2)
    q = np.array([[0.5, 0.0]])
    s = np.array([1.0])
    F, G, H = b.value_grad_hess(q, s)
    # g = 1 - 0.25 = 0.75; F = -log 0.75; F_q = 2q/g; F_s = -1/g - 2/s
    assert F[0] == pytest.approx(-math.log(0.75), rel=1e-14)
    assert G[0, 0] == pytest.approx(1.0 / 0.75, rel=1e-14)
    assert G[0, 1] == 0.0
    assert G[0, 2] == pytest.approx(-1.0 / 0.75 - 2.0, rel=1e-14)
    # Hessian qq block at q=(0.5,0): 2/g I + 4 q q^T / g^2
    assert H[0, 0, 0] == pytest.approx(2 / 0.75 + 1.0 / 0.75 ** 2, rel=1e-13)
    assert H[0, 1, 1] == pytest.approx(2 / 0.75, rel=1e-13)


def test_third_directional_oracle():
    # p=2, q=0, s=1, direction e_s: F(0, s) = -3 log s, so F''' = -6/s^3 = -6
    b = PLapBarrier(p=2.0, d=2)
    u = np.array([[0.0, 0.0, 1.0]])
    val = b.third_directional(np.zeros((1, 2)), np.array([1.0]), u)
    assert val[0] == pytest.approx(-6.0, rel=1e-12)


@pytest.mark.parametrize("p", P_VALUES)
def test_gradient_hessian_finite_differences(p):
    b = PLapBarrier(p=p, d=2)
    rng = np.random.default_rng(17)
    q, s = random_feasible(b, rng, 50)
    _, G, H = b.value_grad_hess(q, s)
    h = 1e-6
    for k in range(3):
        qp, sp = q.copy(), s.copy()
        qm, sm = q.copy(), s.copy()
        if k < 2:
            qp[:, k] += h
            qm[:, k] -= h
        else:
            sp += h
            sm -= h
        Fp = b.value(qp, sp)
        Fm = b.value(qm, sm)
        fd = (Fp - Fm) / (2 * h)
        assert np.allclose(G[:, k], fd, rtol=1e-5, atol=1e-7)
        _, Gp, _ = b.value_grad_hess(qp, sp)
        _, Gm, _ = b.value_grad_hess(qm, sm)
        fdH = (Gp - Gm) / (2 * h)
        assert np.allclose(H[:, :, k], fdH, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("p", P_VALUES)
def test_self_concordance_inequality(p):
    b = PLapBarrier(p=p, d=2)
    rng = np.random.default_rng(5)
    q, s = random_feasible(b, rng, 400, eps_lo=1e-3, eps_hi=10.0)
    u = rng.standard_normal((400, 3))
    _, _, H = b.value_grad_hess(q, s)
    quad = np.einsum("na,nab,nb->n", u, H, u)
    third = b.third_directional(q, s, u)
    assert np.all(np.abs(third) <= 2.0 * quad ** 1.5 * (1 + 1e-8))


@pytest.mark.parametrize("p", P_VALUES)
def test_barrier_parameter_bound(p):
    b = PLapBarrier(p=p, d=2)
    rng = np.random.default_rng(7)
    q, s = random_feasible(b, rng, 400, eps_lo=1e-3, eps_hi=10.0)
    _, G, H = b.value_grad_hess(q, s)
    lam2 = np.einsum("na,nab,nb->n", G, np.linalg.inv(H), G)
    assert np.max(lam2) <= b.nu + 1e-8


@pytest.mark.parametrize("p", P_VALUES)
def test_slack_for_t_bounds(p):
    b = PLapBarrier(p=p, d=2)
    rng = np.random.default_rng(11)
    for _ in range(30):
        q = rng.standard_normal(2) * rng.uniform(0.1, 2.0)
        t = 10.0 ** rng.uniform(0.0, 6.0)
        s = b.slack_for_t(q, t)
        lam = float(b.lam(q.reshape(1, -1))[0])
        gap = s - lam
        assert 1.0 / t <= gap * (1 + 1e-12)
        assert gap <= b.nu / t * (1 + 1e-12)


def test_slack_for_t_closed_forms_p2():
    b = PLapBarrier(p=2.0, d=2)
    for t in (1.0, 7.5, 1e3, 1e6):
        # q = 0: F_s = -3/s, so s = 3/t
        assert b.slack_for_t(np.zeros(2), t) == pytest.approx(3.0 / t, rel=1e-10)
        # general q: t s^2 - (t Q + 3) s + 2 Q = 0 with Q = |q|^2
        q = np.array([0.4, -0.3])
        Q = float(q @ q)
        disc = (t * Q + 3.0) ** 2 - 8.0 * t * Q
        s_exact = ((t * Q + 3.0) + math.sqrt(disc)) / (2.0 * t)
        assert b.slack_for_t(q, t) == pytest.approx(s_exact, rel=1e-10)


def test_invalid_p_rejected():
    with pytest.raises(ValueError):
        PLapBarrier(p=0.9, d=2)


@pytest.mark.parametrize("q,s", [((math.nan, 0.0), 1.0), ((0.1, 0.0), math.nan)],
                         ids=["nan-q", "nan-s"])
def test_value_grad_hess_rejects_nan(q, s):
    b = PLapBarrier(p=1.5, d=2)
    with pytest.raises(ValueError, match="outside the barrier domain"):
        b.value_grad_hess(np.array([q]), np.array([s]))


def test_calls_outside_domain_rejected():
    b = PLapBarrier(p=2.0, d=2)
    with pytest.raises(ValueError):
        b.value_grad_hess(np.array([[2.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        b.third_directional(np.array([[2.0, 0.0]]), np.array([1.0]),
                            np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        b.slack_for_t(np.zeros(2), -1.0)
