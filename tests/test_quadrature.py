import numpy as np
import pytest

from blgeom import (LpNorm, PolytopeGauge, QuarticAxial, auto_quadrature,
                    circle_panels, circle_trapezoid, sphere_monte_carlo,
                    sphere_product_gauss, sphere_surface_area)


def test_circle_weights_sum():
    q = circle_trapezoid(512)
    assert q.total_weight() == pytest.approx(2 * np.pi, rel=1e-14)


def test_panel_weights_sum():
    q = circle_panels([0.3, 1.7, 4.0], subdiv=3)
    assert q.total_weight() == pytest.approx(2 * np.pi, rel=1e-13)


def test_product_gauss_weights_sum():
    q = sphere_product_gauss(32, 64)
    assert q.total_weight() == pytest.approx(4 * np.pi, rel=1e-13)


def test_mc_weights_sum():
    q = sphere_monte_carlo(4, 10_000, seed=1)
    assert q.total_weight() == pytest.approx(sphere_surface_area(4), rel=1e-12)


@pytest.mark.parametrize("make", [
    lambda: circle_trapezoid(256),
    lambda: circle_panels([0.0, np.pi / 2, np.pi, 3 * np.pi / 2], subdiv=2),
    lambda: sphere_product_gauss(16, 32),
])
def test_second_moment_exactness(make):
    assert make().moment_defect() < 1e-10


def test_mc_second_moment_within_noise():
    q = sphere_monte_carlo(3, 200_000, seed=0)
    assert q.moment_defect() < 5.0 / np.sqrt(len(q))


def test_mc_seed_determinism():
    a = sphere_monte_carlo(3, 1000, seed=42)
    b = sphere_monte_carlo(3, 1000, seed=42)
    np.testing.assert_array_equal(a.nodes, b.nodes)
    c = sphere_monte_carlo(3, 1000, seed=43)
    assert not np.array_equal(a.nodes, c.nodes)


@pytest.mark.parametrize("norm, growth", [
    (QuarticAxial(2), 2), (LpNorm(1, 2), 2), (QuarticAxial(3), 4), (LpNorm(2, 4), 2),
], ids=["smooth-2d", "kinked-2d", "3d", "4d"])
def test_refinement_doubles_resolution(norm, growth):
    q0, q1 = auto_quadrature(norm, level=0), auto_quadrature(norm, level=1)
    assert (q0.level, q1.level, q1.scheme) == (0, 1, q0.scheme)
    assert len(q1) == growth * len(q0)


def test_auto_quadrature_picks_panels_for_kinked_norms():
    assert auto_quadrature(PolytopeGauge([[1, 1], [-1, 1], [-1, -1], [1, -1]])).scheme \
        == "circle-panels"
    assert auto_quadrature(LpNorm(1, 2)).scheme == "circle-panels"
    assert auto_quadrature(QuarticAxial(2)).scheme == "circle-trapezoid"
    assert auto_quadrature(QuarticAxial(3)).scheme == "product-gauss"
    assert auto_quadrature(LpNorm(2, 5)).scheme == "monte-carlo"


def test_panels_align_with_polytope_vertices():
    verts = [[2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]]
    gauge = PolytopeGauge(verts)
    q = auto_quadrature(gauge)
    vertex_angles = np.mod(np.arctan2(*np.asarray(verts).T[::-1]), 2 * np.pi)
    want = circle_panels(vertex_angles, subdiv=2)
    np.testing.assert_array_equal(q.nodes, want.nodes)
    np.testing.assert_array_equal(q.weights, want.weights)


def test_nodes_are_unit_vectors():
    for q in (circle_trapezoid(64), sphere_product_gauss(8, 16),
              sphere_monte_carlo(4, 500, seed=3)):
        np.testing.assert_allclose(np.linalg.norm(q.nodes, axis=1), 1.0,
                                   rtol=1e-14)
