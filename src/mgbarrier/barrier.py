"""Self-concordant barrier calculus on the epigraph Q = {(q, s) : s >= Lambda(q)}.

The concrete instance is the p-Laplacian barrier

    F(q, s) = -log(s^(2/p) - |q|^2) - 2 log s,

finite exactly on {s > 0, s^(2/p) > |q|^2}. One gap s * s^(2/p - 1) - |q|^2,
never NaN, decides the domain for every method: outside it value is +inf and
margin <= 0, so line searches can probe freely, and a point they accept is
one that grad_hess_terms accepts. Each method takes the gap terms of its
points as its gap keyword, gap(q, s), or forms them itself.
All evaluations are vectorized over points: q has shape (N, d), s shape (N,).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PLapBarrier:
    """Barrier for the epigraph of Lambda(q) = |q|_2^p on R^d x R."""

    p: float
    d: int
    nu = 4.0  # the barrier parameter, verified empirically by the test suite

    def __post_init__(self):
        if not 1.0 <= self.p < np.inf:
            raise ValueError(f"p must be >= 1 and finite, got {self.p}")

    def lam(self, q):
        """Lambda(q) = |q|_2^p."""
        q = np.atleast_2d(q)
        return np.linalg.norm(q, axis=-1) ** self.p

    def gap(self, q, s):
        """(g, s^(2/p - 1)) at each point, with the gap g = s * s^(2/p - 1) -
        |q|^2 > 0 exactly on the domain: -1 where s is not > 0, -inf where
        overflow (inf - inf) or a NaN q gives NaN. The derivatives share the
        power, so the gap costs one np.power per point."""
        q = np.atleast_2d(q)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            qq = np.einsum("ij,ij->i", q, q)  # np.sum(q * q, -1), 3x faster
            se1 = np.power(np.maximum(s, 0.0), 2.0 / self.p - 1.0)
            g = np.where(s > 0.0, s * se1 - qq, -1.0)
        return np.where(np.isnan(g), -np.inf, g), se1

    def margin(self, q, s, gap=None):
        """min(s, s^(2/p) - |q|^2), > 0 iff (q, s) in the domain interior."""
        s = np.asarray(s, dtype=float)
        g, _ = self.gap(q, s) if gap is None else gap
        return np.fmin(s, g)

    def feasible(self, q, s):
        return bool(np.all(self.margin(q, s) > 0.0))

    def value(self, q, s, gap=None):
        """F at each point; +inf outside the domain."""
        s = np.asarray(s, dtype=float)
        g, _ = self.gap(q, s) if gap is None else gap
        with np.errstate(divide="ignore", invalid="ignore"):
            F = -np.log(g) - 2.0 * np.log(s)
        return np.where(g > 0.0, F, np.inf)

    def grad_hess_terms(self, q, s, gap=None):
        """The terms (a, f_s, c, b, h_ss) of F' and F'' at feasible points, a
        of shape (N, d) and the others (N,):

            F'  = (a, f_s),    F'' = [[c I + a a^T, b a], [b a^T, h_ss]],

        with c = 2/g, a = 2q/g and b = -e s^(e-1)/g, e = 2/p. Raises
        ValueError at a point outside the domain, with a NaN entry or where
        the gap overflows to +inf (value is +inf there too).
        """
        q = np.atleast_2d(q)
        s = np.asarray(s, dtype=float)
        e = 2.0 / self.p
        g, se1 = self.gap(q, s) if gap is None else gap
        if not (np.all(g > 0.0) and np.all(g < np.inf)):
            raise ValueError("F' and F'' requested outside the barrier domain")
        a = 2.0 * q / g[:, None]
        b = -e * se1 / g
        h_ss = -e * (e - 1.0) * np.power(s, e - 2.0) / g + b * b + 2.0 / s ** 2
        return a, b - 2.0 / s, 2.0 / g, b, h_ss

    def value_grad_hess(self, q, s):
        """(F, F', F'') at feasible points; shapes (N,), (N, d+1), (N, d+1, d+1),
        assembled densely from grad_hess_terms.

        Raises ValueError at a point outside the domain or with a NaN entry.
        """
        a, f_s, c, b, h_ss = self.grad_hess_terms(q, s)
        N, d = a.shape
        hess = np.empty((N, d + 1, d + 1))
        hess[:, :d, :d] = c[:, None, None] * np.eye(d) + a[:, :, None] * a[:, None, :]
        hess[:, :d, d] = hess[:, d, :d] = b[:, None] * a
        hess[:, d, d] = h_ss
        return self.value(q, s), np.column_stack([a, f_s]), hess
