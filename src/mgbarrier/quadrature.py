"""Positive-weight quadrature on the reference simplex.

All rules have strictly positive weights summing to the reference simplex
volume, so the discrete integral of 1 over any element union is its measure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .mesh import ref_simplex_volume

# Symmetric positive-weight triangle rules (barycentric orbits, weights
# normalized to sum to 1; scaled by the reference area 1/2 below). A problem
# of degree alpha asks for exactness 2*alpha, so 2-D needs degrees 2 and 4.

_D2_RULES = {
    2: [((2 / 3, 1 / 6, 1 / 6), 1 / 3)],
    4: [
        ((1 - 2 * 0.445948490915965, 0.445948490915965, 0.445948490915965),
         0.223381589678011),
        ((1 - 2 * 0.091576213509771, 0.091576213509771, 0.091576213509771),
         0.109951743655322),
    ],
}


def _orbit(bary):
    """Distinct permutations of a barycentric triple, in first-seen order."""
    return list(dict.fromkeys(itertools.permutations(bary)))


def _triangle_rule(groups):
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
    )


@dataclass(frozen=True)
class QuadratureRule:
    d: int
    nodes: np.ndarray    # (beta, d) reference coordinates
    weights: np.ndarray  # (beta,) strictly positive, summing to |ref simplex|

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")
        total = float(np.sum(self.weights))
        if abs(total - ref_simplex_volume(self.d)) > 1e-13:
            raise ValueError("quadrature weights must sum to the reference volume")


def reference_rule(d, degree):
    """Positive-weight rule on the reference simplex, exact to `degree`:
    Gauss for 1 <= degree <= 6 in 1-D, degree 2 or 4 in 2-D."""
    if degree < 1 or degree > 6:
        raise ValueError(f"unsupported exactness degree {degree}")
    if d == 1:
        n = (degree + 2) // 2  # Gauss: n points exact to 2n-1
        xi, w = np.polynomial.legendre.leggauss(n)
        return QuadratureRule(
            d=1,
            nodes=((xi + 1.0) / 2.0).reshape(-1, 1),
            weights=w / 2.0,
        )
    if d == 2:
        if degree not in _D2_RULES:
            raise ValueError(f"unsupported exactness degree {degree} in 2-D; "
                             f"choose from {sorted(_D2_RULES)}")
        return _triangle_rule(_D2_RULES[degree])
    raise ValueError(f"unsupported dimension {d}")

