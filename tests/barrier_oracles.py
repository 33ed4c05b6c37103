"""Third derivative and central-path slack of the p-Laplacian barrier, the
oracles behind the self-concordance and slack-bound checks."""

import numpy as np
from scipy.optimize import brentq


def third_directional(barrier, q, s, u):
    """F'''(q, s)[u^3] at feasible points; u shaped (N, d+1)."""
    q = np.atleast_2d(q)
    s = np.asarray(s, dtype=float)
    u = np.atleast_2d(u)
    e = 2.0 / barrier.p
    g, se1 = barrier.gap(q, s)
    if not np.all(g > 0.0):
        raise ValueError("third_directional called outside the barrier domain")
    uq, us = u[:, : barrier.d], u[:, barrier.d]
    # directional derivatives of g(q, s) = s^e - |q|^2
    a = -2.0 * np.sum(q * uq, axis=-1) + e * se1 * us
    b = -2.0 * np.sum(uq * uq, axis=-1) + e * (e - 1.0) * np.power(s, e - 2.0) * us ** 2
    c = e * (e - 1.0) * (e - 2.0) * np.power(s, e - 3.0) * us ** 3
    third = -c / g + 3.0 * a * b / g ** 2 - 2.0 * a ** 3 / g ** 3
    third = third - 4.0 * us ** 3 / s ** 3
    return third


def f_s(barrier, q, s):
    """Partial derivative of F with respect to the slack s."""
    s = np.asarray(s, dtype=float)
    e = 2.0 / barrier.p
    g, se1 = barrier.gap(q, s)
    return -e * se1 / g - 2.0 / s


def slack_for_t(barrier, q, t):
    """The unique s with F_s(q, s) + t = 0; lies in Lambda(q) + [1/t, nu/t]."""
    if t <= 0:
        raise ValueError("t must be positive")
    q = np.atleast_1d(np.asarray(q, dtype=float))
    lam = float(barrier.lam(q.reshape(1, -1))[0])
    qrow = q.reshape(1, -1)

    def phi(s):
        return float(f_s(barrier, qrow, np.array([s]))[0]) + t

    # F_s is increasing in s; bracket around the guaranteed band
    lo = lam + 0.5 / t
    hi = lam + 2.0 * barrier.nu / t
    while phi(lo) >= 0.0:
        lo = lam + (lo - lam) * 0.5
    while phi(hi) <= 0.0:
        hi = lam + (hi - lam) * 2.0
    return brentq(phi, lo, hi, xtol=1e-15, rtol=8.8817841970012523e-16)
