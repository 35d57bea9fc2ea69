import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blgeom import (ConstructionError, Euclidean, InputError, LinearImage,
                    LpNorm, PolytopeGauge, QuarticAxial, WeightedSum,
                    linear_image, rescale, validate)
from oracles import gauge_by_bisection

SQUARE = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
DIAMOND = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]


def hexagon():
    ang = np.arange(6) * (np.pi / 3.0)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def family_zoo():
    return [
        Euclidean(np.eye(2)),
        Euclidean([[2.0, 0.3], [0.3, 1.0]]),
        LpNorm(1, 2), LpNorm(1.5, 2), LpNorm(np.inf, 2),
        PolytopeGauge(SQUARE), PolytopeGauge(hexagon()),
        PolytopeGauge([[2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]]),  # asymmetric
        LinearImage([[1.0, 0.5], [0.0, 1.0]], PolytopeGauge(SQUARE)),
        WeightedSum(0.5, 0.5, LpNorm(1, 2), LpNorm(2, 2)),
        QuarticAxial(2), QuarticAxial(3), Euclidean(np.diag([1.0, 2.0, 0.5])),
    ]


class TestEval:
    def test_pythagoras(self):
        assert Euclidean(np.eye(2))([3.0, 4.0]) == pytest.approx(5.0)

    def test_max_norm(self):
        assert LpNorm(np.inf, 2)([1.0, -2.0]) == pytest.approx(2.0)

    @pytest.mark.parametrize("scale", [1e-20, 1e-3, 1.0, 1e3, 1e150])
    def test_large_p_is_scale_free(self, scale):
        # no power of an entry over- or underflows: F(s x) = s F(x), for the
        # norm (p = 400) and for its support function (q = 400/399)
        x = np.array([[0.6, -0.8], [0.0, 0.0], [-1.0, 1.0]])
        norm = LpNorm(400, 2)
        q = 400 / 399
        for got, want in ((norm.values(scale * x), [0.8, 0.0, 2.0 ** (1 / 400)]),
                          (norm.support_batch(scale * x),
                           [(0.6 ** q + 0.8 ** q) ** (1 / q), 0.0, 2.0 ** (1 / q)])):
            np.testing.assert_allclose(got / scale, want, rtol=1e-14)
        assert norm.support(scale * x[2]) == pytest.approx(scale * 2.0 ** (1 / q), rel=1e-14)

    def test_square_boundary_point(self):
        # ray-edge intersection puts (0.5, 1) on the max-norm unit sphere
        assert PolytopeGauge(SQUARE)([0.5, 1.0]) == pytest.approx(1.0, abs=1e-14)

    def test_zero_maps_to_zero(self):
        for norm in family_zoo():
            assert norm(np.zeros(norm.dim)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            Euclidean(np.eye(2))([1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            LpNorm(2, 2)([np.nan, 0.0])


class TestPolytopeGauge:
    def test_diamond_boundary(self):
        assert PolytopeGauge(DIAMOND).values([0.5, 0.5]) == pytest.approx(1.0)

    def test_square_homogeneity_from_boundary(self):
        assert PolytopeGauge(SQUARE).values([2.0, 0.0]) == pytest.approx(2.0)

    def test_hexagon_against_bisection_oracle(self):
        verts = hexagon()
        gauge = PolytopeGauge(verts)
        assert gauge([1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(3)
        for xi in rng.standard_normal((20, 2)) * 2.0:
            want = gauge_by_bisection(verts, xi)
            assert gauge(xi) == pytest.approx(want, rel=1e-8)

    def test_3d_gauge_against_bisection_oracle(self):
        verts = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1],
                          [1, 1, -1], [1, -1, 1], [-1, 1, 1], [-1, -1, -1]])
        gauge = PolytopeGauge(verts)
        rng = np.random.default_rng(4)
        for xi in rng.standard_normal((10, 3)):
            assert gauge(xi) == pytest.approx(gauge_by_bisection(verts, xi), rel=1e-8)

    def test_vertices_on_unit_sphere(self):
        for verts in (SQUARE, DIAMOND, hexagon(),
                      [[2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]]):
            gauge = PolytopeGauge(verts)
            np.testing.assert_allclose(gauge.values(gauge.vertices), 1.0,
                                       atol=1e-12)

    def test_origin_must_be_interior(self):
        with pytest.raises(ConstructionError):
            PolytopeGauge([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])

    def test_asymmetric(self):
        tri = PolytopeGauge([[2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]])
        assert tri([1.0, 1.0]) == pytest.approx(2.0)
        assert tri([-1.0, -1.0]) == pytest.approx(1.0)

    def test_kinks_are_vertex_and_edge_normal_angles(self):
        tri = PolytopeGauge([[2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]])
        vertex_angles = np.mod(np.arctan2([-1.0, 2.0, -1.0], [2.0, -1.0, -1.0]), 2 * np.pi)
        np.testing.assert_allclose(tri.kink_angles(), np.sort(vertex_angles), atol=1e-14)
        # outward edge normals (1, 1), (-1, 0), (0, -1)
        np.testing.assert_allclose(tri.support_kink_angles(),
                                   [0.25 * np.pi, np.pi, 1.5 * np.pi], atol=1e-14)
        unit = tri.extremal_candidates()
        np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0, atol=1e-15)
        cube = PolytopeGauge([[s1, s2, s3] for s1 in (-1.0, 1.0)
                              for s2 in (-1.0, 1.0) for s3 in (-1.0, 1.0)])
        assert len(cube.kink_angles()) == 0 and len(cube.support_kink_angles()) == 0


class TestLinearImage:
    def test_diagonal_stretch(self):
        norm = linear_image(Euclidean(np.eye(2)), np.diag([2.0, 1.0]))
        assert norm([1.0, 0.0]) == pytest.approx(2.0)

    def test_identity_is_noop(self):
        rng = np.random.default_rng(0)
        base = PolytopeGauge(hexagon())
        img = linear_image(base, np.eye(2))
        pts = rng.standard_normal((50, 2))
        np.testing.assert_allclose(img.values(pts), base.values(pts), rtol=1e-15)

    def test_image_matches_transformed_polytope(self):
        # F(A xi) equals the gauge of the polytope with vertices A^-1 v
        ang = np.pi / 4.0
        a = np.sqrt(2.0) * np.array([[np.cos(ang), -np.sin(ang)],
                                     [np.sin(ang), np.cos(ang)]])
        img = linear_image(PolytopeGauge(SQUARE), a)
        direct = PolytopeGauge(np.asarray(SQUARE) @ np.linalg.inv(a).T)
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((100, 2)) * 3.0
        np.testing.assert_allclose(img.values(pts), direct.values(pts), rtol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        a = np.array([[1.3, 0.4], [-0.2, 0.9]])
        for base in (LpNorm(1.5, 2), PolytopeGauge(SQUARE)):
            twice = linear_image(linear_image(base, a), np.linalg.inv(a))
            pts = rng.standard_normal((100, 2))
            np.testing.assert_allclose(twice.values(pts), base.values(pts),
                                       rtol=1e-9)

    def test_singular_matrix_rejected(self):
        with pytest.raises(InputError):
            linear_image(Euclidean(np.eye(2)), [[1.0, 1.0], [1.0, 1.0]])


class TestSupport:
    def test_square_axis(self):
        assert PolytopeGauge(SQUARE).support([1.0, 0.0]) == pytest.approx(1.0)

    def test_square_diagonal_vertex_enumeration(self):
        sq = PolytopeGauge(SQUARE)
        theta = np.array([1.0, 1.0]) / np.sqrt(2.0)
        want = max(theta @ v for v in np.asarray(SQUARE))
        assert want == pytest.approx(np.sqrt(2.0))
        assert sq.support(theta) == pytest.approx(want, rel=1e-12)

    def test_euclidean_unit(self):
        eu = Euclidean(np.eye(2))
        assert eu.support([0.6, 0.8]) == pytest.approx(1.0)

    def test_generic_refinement_matches_closed_form(self):
        # quartic in 2D vs a very fine brute-force scan
        qn = QuarticAxial(2)
        theta = np.array([0.3, 0.7])
        ang = np.linspace(0, 2 * np.pi, 2_000_001)
        u = np.column_stack([np.cos(ang), np.sin(ang)])
        brute = ((u @ theta) / qn.values(u)).max()
        assert qn.support(theta) == pytest.approx(brute, rel=1e-8)

    def test_generic_refinement_3d(self):
        # the dense scan is a certified lower bound with O(grid^-2) bias;
        # the refined value must sit just above it
        qn = QuarticAxial(3)
        theta = np.array([0.2, -0.5, 0.8])
        from blgeom.norms import sphere_grid

        u = sphere_grid(3, 2_000_000)
        brute = ((u @ theta) / qn.values(u)).max()
        got = qn.support(theta)
        assert brute <= got <= brute * (1.0 + 5e-6)

    def test_zero_direction_rejected(self):
        with pytest.raises(InputError):
            Euclidean(np.eye(2)).support([0.0, 0.0])

    def test_sublinear(self):
        rng = np.random.default_rng(5)
        mix = WeightedSum(0.5, 0.5, LpNorm(1, 2), LpNorm(2, 2))
        for _ in range(40):
            t1 = rng.standard_normal(2)
            t2 = rng.standard_normal(2)
            assert (mix.support(t1 + t2)
                    <= mix.support(t1) + mix.support(t2) + 1e-8)


class TestValidate:
    def test_euclidean_clean(self):
        rep = validate(Euclidean(np.eye(2)), 1000, seed=0)
        assert rep.ok
        assert rep.homogeneity_residual < 1e-12
        assert rep.subadditivity_residual < 1e-12

    def test_weighted_sum_passes(self):
        rep = validate(WeightedSum(0.5, 0.5, LpNorm(1, 2), LpNorm(2, 2)), 1000)
        assert rep.ok

    def test_broken_family_flagged_with_witness(self):
        class Broken(LpNorm):
            def _values(self, pts):
                return pts[:, 0] ** 2

        rep = validate(Broken(2, 2), 500, seed=1)
        assert not rep.ok
        assert rep.homogeneity_residual > 1e-9
        assert rep.homogeneity_witness.shape == (2,)

    def test_all_families(self):
        for norm in family_zoo():
            assert validate(norm, 400, seed=7).ok, norm


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 11),
       st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=2),
       st.floats(1e-3, 10.0))
def test_positive_homogeneity_property(idx, xi, lam):
    norm = family_zoo()[idx]
    xi = np.asarray(xi[: norm.dim] + [0.5] * (norm.dim - len(xi)))
    f = norm(xi)
    assert abs(norm(lam * xi) - lam * f) <= 1e-9 * (1.0 + f)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 11),
       st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=2),
       st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=2))
def test_subadditivity_property(idx, xi, eta):
    norm = family_zoo()[idx]
    xi = np.asarray(xi[: norm.dim] + [0.5] * (norm.dim - len(xi)))
    eta = np.asarray(eta[: norm.dim] + [-0.25] * (norm.dim - len(eta)))
    assert norm(xi + eta) <= norm(xi) + norm(eta) + 1e-12


def test_rescale_is_scalar_multiple():
    rng = np.random.default_rng(9)
    base = PolytopeGauge(hexagon())
    scaled = rescale(base, 2.5)
    pts = rng.standard_normal((30, 2))
    np.testing.assert_allclose(scaled.values(pts), 2.5 * base.values(pts),
                               rtol=1e-14)
