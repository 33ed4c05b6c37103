"""Positive-weight quadrature on the reference simplex, pushed forward to elements.

All rules have strictly positive weights summing to the reference simplex
volume, so the discrete integral of 1 over any element union is its measure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .mesh import ref_simplex_volume

# Symmetric positive-weight triangle rules (barycentric orbits, weights
# normalized to sum to 1; scaled by the reference area 1/2 below).
# Degree 3 has no standard positive 4-point rule, so it maps to the
# degree-4 six-point rule.

_D2_DEG2 = [((2 / 3, 1 / 6, 1 / 6), 1 / 3)]

_D2_DEG4 = [
    ((1 - 2 * 0.445948490915965, 0.445948490915965, 0.445948490915965),
     0.223381589678011),
    ((1 - 2 * 0.091576213509771, 0.091576213509771, 0.091576213509771),
     0.109951743655322),
]

_D2_DEG5 = [
    ((1 / 3, 1 / 3, 1 / 3), 0.225),
    ((1 - 2 * 0.470142064105115, 0.470142064105115, 0.470142064105115),
     0.132394152788506),
    ((1 - 2 * 0.101286507323456, 0.101286507323456, 0.101286507323456),
     0.125939180544827),
]

_D2_DEG6 = [
    ((1 - 2 * 0.249286745170910, 0.249286745170910, 0.249286745170910),
     0.116786275726379),
    ((1 - 2 * 0.063089014491502, 0.063089014491502, 0.063089014491502),
     0.050844906370207),
    ((0.310352451033785, 0.053145049844816,
      1 - 0.310352451033785 - 0.053145049844816),
     0.082851075618374),
]


def _orbit(bary):
    """Distinct permutations of a barycentric triple."""
    seen = []
    for p in itertools.permutations(bary):
        if not any(np.allclose(p, q) for q in seen):
            seen.append(p)
    return seen


def _triangle_rule(groups, degree):
    pts, wts = [], []
    for bary, w in groups:
        for lam in _orbit(bary):
            # reference triangle (0,0), (1,0), (0,1); x = lam_2, y = lam_3
            pts.append((lam[1], lam[2]))
            wts.append(w * 0.5)
    return QuadratureRule(
        d=2,
        nodes=np.array(pts),
        weights=np.array(wts),
        exactness_degree=degree,
    )


@dataclass(frozen=True)
class QuadratureRule:
    d: int
    nodes: np.ndarray    # (beta, d) reference coordinates
    weights: np.ndarray  # (beta,) strictly positive, summing to |ref simplex|
    exactness_degree: int

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")
        total = float(np.sum(self.weights))
        if abs(total - ref_simplex_volume(self.d)) > 1e-13:
            raise ValueError("quadrature weights must sum to the reference volume")

    @property
    def num_nodes(self):
        return self.nodes.shape[0]


def reference_rule(d, degree):
    """Positive-weight rule on the reference simplex, exact to `degree` <= 6."""
    if degree < 1 or degree > 6:
        raise ValueError(f"unsupported exactness degree {degree}")
    if d == 1:
        n = (degree + 2) // 2  # Gauss: n points exact to 2n-1
        xi, w = np.polynomial.legendre.leggauss(n)
        return QuadratureRule(
            d=1,
            nodes=((xi + 1.0) / 2.0).reshape(-1, 1),
            weights=w / 2.0,
            exactness_degree=2 * n - 1,
        )
    if d == 2:
        if degree == 1:
            return QuadratureRule(
                d=2,
                nodes=np.array([[1 / 3, 1 / 3]]),
                weights=np.array([0.5]),
                exactness_degree=1,
            )
        if degree == 2:
            return _triangle_rule(_D2_DEG2, 2)
        if degree <= 4:
            return _triangle_rule(_D2_DEG4, 4)
        if degree == 5:
            return _triangle_rule(_D2_DEG5, 5)
        return _triangle_rule(_D2_DEG6, 6)
    raise ValueError(f"unsupported dimension {d}")


def pushforward_nodes(mesh, rule):
    """Quadrature node coordinates per element, shape (ne, beta, d)."""
    return mesh.to_physical(rule.nodes)


def pushforward_weights(mesh, rule):
    """Physical quadrature weights |det A_K| * omega_j, shape (ne, beta)."""
    return np.abs(mesh.detA)[:, None] * rule.weights[None, :]
