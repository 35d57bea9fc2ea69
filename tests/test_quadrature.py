import numpy as np
import pytest

from blgeom import (InputError, LpNorm, PolytopeGauge, QuarticAxial,
                    auto_quadrature, bl_metric_converged, circle_panels,
                    circle_trapezoid, sphere_orthant_gauss, sphere_product_gauss,
                    sphere_surface_area)
from blgeom.quadrature import MAX_QUAD_LEVEL


def test_circle_weights_sum():
    q = circle_trapezoid(512)
    assert q.total_weight() == pytest.approx(2 * np.pi, rel=1e-14)


def test_panel_weights_sum():
    q = circle_panels([0.3, 1.7, 4.0], subdiv=3)
    assert q.total_weight() == pytest.approx(2 * np.pi, rel=1e-13)


def test_product_gauss_weights_sum():
    q = sphere_product_gauss(32, 64)
    assert q.total_weight() == pytest.approx(4 * np.pi, rel=1e-13)


@pytest.mark.parametrize("make", [
    lambda: circle_trapezoid(256),
    lambda: circle_panels([0.0, np.pi / 2, np.pi, 3 * np.pi / 2], subdiv=2),
    lambda: sphere_product_gauss(16, 32),
])
def test_second_moment_exactness(make):
    assert make().moment_defect() < 1e-10


@pytest.mark.parametrize("norm, growth", [
    (QuarticAxial(2), 2), (LpNorm(1, 2), 2), (QuarticAxial(3), 4),
], ids=["smooth-2d", "kinked-2d", "3d"])
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
    assert auto_quadrature(LpNorm(2, 5)).scheme == "orthant-gauss"


def test_panels_align_with_polytope_vertices():
    verts = [[2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]]
    gauge = PolytopeGauge(verts)
    q = auto_quadrature(gauge)
    vertex_angles = np.mod(np.arctan2(*np.asarray(verts).T[::-1]), 2 * np.pi)
    want = circle_panels(vertex_angles, subdiv=2)
    np.testing.assert_array_equal(q.nodes, want.nodes)
    np.testing.assert_array_equal(q.weights, want.weights)


def test_nodes_are_unit_vectors():
    for q in (circle_trapezoid(64), sphere_product_gauss(8, 16)):
        np.testing.assert_allclose(np.linalg.norm(q.nodes, axis=1), 1.0,
                                   rtol=1e-14)


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_orthant_rule_level_0_holds_a_million_unit_nodes(dim):
    q = auto_quadrature(LpNorm(2, dim), level=0)
    assert (q.scheme, q.level, q.dim) == ("orthant-gauss", 0, dim)
    assert abs(len(q) / 1e6 - 1.0) < 0.1
    np.testing.assert_allclose(np.linalg.norm(q.nodes, axis=1), 1.0, rtol=1e-14)


@pytest.mark.parametrize("dim, rtol", [(4, 1e-13), (5, 1e-7), (6, 3e-3)])
def test_orthant_rule_weights_sum(dim, rtol):
    # the weights integrate 1/|x|^n over the simplex; measured 2.9e-15, 1.3e-8, 2.5e-4
    q = auto_quadrature(LpNorm(2, dim), level=0)
    assert q.total_weight() == pytest.approx(sphere_surface_area(dim), rel=rtol)


@pytest.mark.parametrize("dim, orders", [(4, (40, 50)), (5, (13, 16)), (6, (7, 8))],
                         ids=["4d", "5d", "6d"])
def test_orthant_rule_order_per_level(dim, orders):
    # order m = round((1e6 2^L / 2^n)^(1/(n-1))) gives 2^n m^(n-1) nodes
    for level, m in enumerate(orders):
        assert len(auto_quadrature(LpNorm(2, dim), level=level)) == 2 ** dim * m ** (dim - 1)


def test_orthant_rule_is_bit_identical_across_builds():
    a, b = auto_quadrature(LpNorm(2, 5)), auto_quadrature(LpNorm(2, 5))
    assert a.nodes.tobytes() == b.nodes.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


def test_orthant_rule_second_moment():
    q = sphere_orthant_gauss(4, 24)
    assert q.moment_defect() < 1e-10
    assert np.abs(q.nodes).min() > 0.0   # no node lies on a patch boundary


@pytest.mark.parametrize("call", [
    lambda: auto_quadrature(LpNorm(2, 2), level=-1),
    lambda: auto_quadrature(LpNorm(1, 2), level=-1),
    lambda: auto_quadrature(QuarticAxial(3), level=2.5),
    lambda: bl_metric_converged(LpNorm(2, 2), level=MAX_QUAD_LEVEL + 5),
], ids=["negative-smooth", "negative-kinked", "fractional", "past-cap"])
def test_auto_quadrature_validates_level(call):
    with pytest.raises(InputError, match="level"):
        call()
