import math

import numpy as np
import pytest

from mgbarrier.mesh import build_rect_mesh
from mgbarrier.quadrature import pushforward_nodes, pushforward_weights, reference_rule


def tri_monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle: a! b! / (a+b+2)!."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_triangle_rule_exactness(degree):
    rule = reference_rule(2, degree)
    x, y = rule.nodes[:, 0], rule.nodes[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = float(np.sum(rule.weights * x ** a * y ** b))
            assert approx == pytest.approx(tri_monomial_integral(a, b), abs=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_interval_rule_exactness(degree):
    rule = reference_rule(1, degree)
    x = rule.nodes[:, 0]
    for a in range(degree + 1):
        approx = float(np.sum(rule.weights * x ** a))
        assert approx == pytest.approx(1.0 / (a + 1), abs=1e-14)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_positive_weights_sum_to_reference_volume(d, degree):
    rule = reference_rule(d, degree)
    assert np.all(rule.weights > 0)
    ref_vol = 1.0 if d == 1 else 0.5
    assert float(np.sum(rule.weights)) == pytest.approx(ref_vol, abs=1e-14)


def test_unsupported_degree_rejected():
    with pytest.raises(ValueError):
        reference_rule(2, 7)
    with pytest.raises(ValueError):
        reference_rule(2, 0)


def test_pushforward_geometry():
    mesh = build_rect_mesh([(0, 2), (0, 1)], 3)
    rule = reference_rule(2, 2)
    xq = pushforward_nodes(mesh, rule)
    wq = pushforward_weights(mesh, rule)
    assert xq.shape == (mesh.num_elements, rule.num_nodes, 2)
    # nodes stay inside the box, weights integrate 1 to the area
    assert np.all(xq[..., 0] >= 0) and np.all(xq[..., 0] <= 2)
    assert np.all(xq[..., 1] >= 0) and np.all(xq[..., 1] <= 1)
    assert float(np.sum(wq)) == pytest.approx(2.0, rel=1e-12)


def test_discrete_integral_of_polynomial():
    mesh = build_rect_mesh([(0, 1), (0, 1)], 4)
    rule = reference_rule(2, 4)
    xq = pushforward_nodes(mesh, rule)
    # int over unit square of x^2 y = 1/6; degree 3 <= exactness
    samples = xq[..., 0] ** 2 * xq[..., 1]
    integral = float(np.sum(pushforward_weights(mesh, rule) * samples))
    assert integral == pytest.approx(1 / 6, rel=1e-13)


def test_pushforward_weights_sum_to_element_volumes():
    mesh = build_rect_mesh([(0, 1), (0, 1)], 3)
    rule = reference_rule(2, 4)
    assert np.allclose(np.sum(pushforward_weights(mesh, rule), axis=1), mesh.volumes())
