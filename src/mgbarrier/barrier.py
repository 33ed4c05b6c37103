"""Self-concordant barrier calculus on the epigraph Q = {(q, s) : s >= Lambda(q)}.

The concrete instance is the p-Laplacian barrier

    F(q, s) = -log(s^(2/p) - |q|^2) - 2 log s,

finite exactly on {s > 0, s^(2/p) > |q|^2}. One gap s^(2/p) - |q|^2, never
NaN, decides the domain for margin, value, f_s and third_directional: outside
it value is +inf and margin <= 0, so line searches can probe freely.
All evaluations are vectorized over points: q has shape (N, d), s shape (N,).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq


@dataclass(frozen=True)
class PLapBarrier:
    """Barrier for the epigraph of Lambda(q) = |q|_2^p on R^d x R."""

    p: float
    d: int
    nu: float = 4.0  # configured parameter, verified empirically by the test suite

    def __post_init__(self):
        if not self.p >= 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")

    def lam(self, q):
        """Lambda(q) = |q|_2^p."""
        q = np.atleast_2d(q)
        return np.linalg.norm(q, axis=-1) ** self.p

    def _gap(self, q, s):
        """s^(2/p) - |q|^2 at each point, > 0 exactly on the domain: -1 where s
        is not > 0, -inf where overflow (inf - inf) or a NaN q gives NaN."""
        q = np.atleast_2d(q)
        with np.errstate(over="ignore", invalid="ignore"):
            qq = np.sum(q * q, axis=-1)
            g = np.where(s > 0.0,
                         np.power(np.maximum(s, 0.0), 2.0 / self.p) - qq, -1.0)
        return np.where(np.isnan(g), -np.inf, g)

    def margin(self, q, s):
        """min(s, s^(2/p) - |q|^2), > 0 iff (q, s) in the domain interior."""
        s = np.asarray(s, dtype=float)
        return np.fmin(s, self._gap(q, s))

    def feasible(self, q, s):
        return bool(np.all(self.margin(q, s) > 0.0))

    def value(self, q, s):
        """F at each point; +inf outside the domain."""
        s = np.asarray(s, dtype=float)
        g = self._gap(q, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            F = -np.log(g) - 2.0 * np.log(s)
        return np.where(g > 0.0, F, np.inf)

    def value_grad_hess(self, q, s):
        """(F, F', F'') at feasible points; shapes (N,), (N, d+1), (N, d+1, d+1).

        Raises ValueError at a point outside the domain or with a NaN entry.
        """
        q = np.atleast_2d(q)
        s = np.asarray(s, dtype=float)
        N, d = q.shape
        e = 2.0 / self.p
        if not np.all(s > 0.0):
            raise ValueError("value_grad_hess called outside the barrier domain")
        qq = np.sum(q * q, axis=-1)
        se1 = np.power(s, e - 1.0)
        # s^e - |q|^2 formed as s * s^(e-1), unlike _gap, so the derivatives
        # share se1
        g = s * se1 - qq
        if not np.all(g > 0.0):
            raise ValueError("value_grad_hess called outside the barrier domain")

        F = -np.log(g) - 2.0 * np.log(s)

        grad = np.empty((N, d + 1))
        grad[:, :d] = 2.0 * q / g[:, None]
        grad[:, d] = -e * se1 / g - 2.0 / s

        hess = np.empty((N, d + 1, d + 1))
        # qq block: 2 I / g + 4 q q^T / g^2
        hess[:, :d, :d] = (
            2.0 / g[:, None, None] * np.eye(d)[None]
            + 4.0 * q[:, :, None] * q[:, None, :] / (g ** 2)[:, None, None]
        )
        # qs block: -2 e s^(e-1) q / g^2
        cross = -2.0 * e * se1[:, None] * q / (g ** 2)[:, None]
        hess[:, :d, d] = cross
        hess[:, d, :d] = cross
        # ss block
        se2 = np.power(s, e - 2.0)
        hess[:, d, d] = (
            -e * (e - 1.0) * se2 / g + (e * se1) ** 2 / g ** 2 + 2.0 / s ** 2
        )
        return F, grad, hess

    def third_directional(self, q, s, u):
        """F'''(q, s)[u^3] at feasible points; u shaped (N, d+1)."""
        q = np.atleast_2d(q)
        s = np.asarray(s, dtype=float)
        u = np.atleast_2d(u)
        e = 2.0 / self.p
        g = self._gap(q, s)
        if not np.all(g > 0.0):
            raise ValueError("third_directional called outside the barrier domain")
        uq, us = u[:, : self.d], u[:, self.d]
        # directional derivatives of g(q, s) = s^e - |q|^2
        a = -2.0 * np.sum(q * uq, axis=-1) + e * np.power(s, e - 1.0) * us
        b = -2.0 * np.sum(uq * uq, axis=-1) + e * (e - 1.0) * np.power(s, e - 2.0) * us ** 2
        c = e * (e - 1.0) * (e - 2.0) * np.power(s, e - 3.0) * us ** 3
        third = -c / g + 3.0 * a * b / g ** 2 - 2.0 * a ** 3 / g ** 3
        third = third - 4.0 * us ** 3 / s ** 3
        return third

    def f_s(self, q, s):
        """Partial derivative of F with respect to the slack s."""
        s = np.asarray(s, dtype=float)
        e = 2.0 / self.p
        g = self._gap(q, s)
        return -e * np.power(s, e - 1.0) / g - 2.0 / s

    def slack_for_t(self, q, t):
        """The unique s with F_s(q, s) + t = 0; lies in Lambda(q) + [1/t, nu/t]."""
        if t <= 0:
            raise ValueError("t must be positive")
        q = np.atleast_1d(np.asarray(q, dtype=float))
        lam = float(self.lam(q.reshape(1, -1))[0])
        qrow = q.reshape(1, -1)

        def phi(s):
            return float(self.f_s(qrow, np.array([s]))[0]) + t

        # F_s is increasing in s; bracket around the guaranteed band
        lo = lam + 0.5 / t
        hi = lam + 2.0 * self.nu / t
        while phi(lo) >= 0.0:
            lo = lam + (lo - lam) * 0.5
        while phi(hi) <= 0.0:
            hi = lam + (hi - lam) * 2.0
        return brentq(phi, lo, hi, xtol=1e-15, rtol=8.8817841970012523e-16)
