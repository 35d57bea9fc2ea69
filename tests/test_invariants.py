import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from blgeom import (Euclidean, InputError, LpNorm, PolytopeGauge, QuarticAxial,
                    UnsupportedDimensionError, auto_quadrature, bl_metric,
                    compare_fingerprints, fingerprint_point, isotropy_defect,
                    linear_image, orthonormalize, quermassintegrals, rescale,
                    roundness)
from blgeom import catalog
from blgeom.invariants import _polytope_mean_width_term
from blgeom.norms import sphere_grid
from oracles import mc_dilated_area, polytope_mean_width_term

SQUARE = PolytopeGauge([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def own_metric(norm):
    return bl_metric(norm, auto_quadrature(norm))


class TestOrthonormalize:
    def test_euclidean_becomes_round(self):
        g = np.array([[2.0, 0.4], [0.4, 1.0]])
        body = orthonormalize(Euclidean(g), g)
        ang = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        u = np.column_stack([np.cos(ang), np.sin(ang)])
        np.testing.assert_allclose(body.values(u), 1.0, atol=1e-10)

    def test_metric_of_output_is_identity(self):
        body = orthonormalize(SQUARE, own_metric(SQUARE))
        np.testing.assert_allclose(own_metric(body), np.eye(2), atol=1e-6)

    def test_idempotent(self):
        body = orthonormalize(SQUARE, own_metric(SQUARE))
        body2 = orthonormalize(body, own_metric(body))
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((100, 2))
        np.testing.assert_allclose(body2.values(pts), body.values(pts),
                                   atol=1e-9)

    def test_requires_pd_metric(self):
        with pytest.raises(Exception):
            orthonormalize(SQUARE, np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestQuermassintegrals:
    def test_disk(self):
        qm = quermassintegrals(Euclidean(np.eye(2)), np.eye(2))
        np.testing.assert_allclose(qm.values, [np.pi, np.pi, np.pi], rtol=1e-9)

    def test_square_in_own_metric(self):
        # orthonormal coordinates scale the square to side sqrt(3)
        qm = quermassintegrals(SQUARE, own_metric(SQUARE))
        np.testing.assert_allclose(qm.values[:2], [3.0, 2.0 * np.sqrt(3.0)],
                                   rtol=1e-9)
        assert qm.values[2] == np.pi

    def test_ball_3d(self):
        qm = quermassintegrals(Euclidean(np.eye(3)), np.eye(3))
        np.testing.assert_allclose(qm.values, 4.0 * np.pi / 3.0, rtol=1e-2)
        assert qm.values[3] == pytest.approx(4.0 * np.pi / 3.0)

    def test_mean_width_term_of_cube(self):
        # 12 edges of length 2 with exterior angle pi/2; facet diagonals add 0
        hull = ConvexHull(np.array(list(itertools.product([-1.0, 1.0], repeat=3))))
        assert _polytope_mean_width_term(hull) == pytest.approx(12.0 * np.pi, rel=1e-12)

    @pytest.mark.parametrize("name", ["euclidean-3d", "quartic-axial-3d"])
    def test_mean_width_term_matches_edge_loop(self, name):
        # the inscribed hull quermassintegrals builds, at its default size
        norm = catalog.builtin_norm(name)
        dirs = sphere_grid(3, 20000)
        hull = ConvexHull(dirs / norm.values(dirs)[:, None])
        want = polytope_mean_width_term(hull)
        assert _polytope_mean_width_term(hull) == pytest.approx(want, rel=1e-11)

    def test_unsupported_dimension_is_loud(self):
        with pytest.raises(UnsupportedDimensionError):
            quermassintegrals(LpNorm(2, 4), np.eye(4))
        with pytest.raises(UnsupportedDimensionError):
            fingerprint_point(LpNorm(2, 4))

    @pytest.mark.parametrize("name", [
        "euclidean-2d", "anisotropic-euclidean", "square-max", "diamond-l1",
        "hexagon", "asymmetric-triangle", "sheared-square", "lp-1.5", "lp-4",
        "l1-l2-mix", "quartic-axial-2d"])
    def test_steiner_consistency_against_mc(self, name):
        # vol(body + t ball) from the coefficients vs direct Monte Carlo
        norm = catalog.builtin_norm(name)
        g = own_metric(norm)
        qm = quermassintegrals(norm, g)
        body = orthonormalize(norm, g)
        for i, t in enumerate((0.1, 0.25, 0.5)):
            predicted = qm.steiner_polynomial(t)
            estimate, _ = mc_dilated_area(body, t, samples=400_000,
                                          seed=31 * i + hash(name) % 1000)
            assert abs(estimate - predicted) / predicted < 0.01

    def test_steiner_fit_recovers_coefficients(self):
        # quadratic fit of the dilated areas, with the exact pi t^2 term pinned
        g = own_metric(SQUARE)
        qm = quermassintegrals(SQUARE, g)
        body = orthonormalize(SQUARE, g)
        ts = np.array([0.1, 0.2, 0.3, 0.4])
        vols = np.array([mc_dilated_area(body, t, samples=10 ** 6, seed=100 + i)[0]
                         for i, t in enumerate(ts)])
        design = np.column_stack([np.ones(4), ts])
        coef, *_ = np.linalg.lstsq(design, vols - np.pi * ts ** 2, rcond=None)
        assert coef[0] == pytest.approx(qm.values[0], rel=0.01)
        assert coef[1] / 2.0 == pytest.approx(qm.values[1], rel=0.01)


class TestRoundness:
    def test_euclidean_is_round(self):
        mu, big = roundness(Euclidean(np.eye(2)), np.eye(2))
        assert mu == pytest.approx(1.0, abs=1e-10)
        assert big == pytest.approx(1.0, abs=1e-10)

    def test_square_bounds(self):
        mu, big = roundness(SQUARE, own_metric(SQUARE))
        assert mu == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-8)
        assert big == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-8)

    def test_scaling_invariance(self):
        g = own_metric(SQUARE)
        kappa = 1.9
        a = roundness(SQUARE, g)
        b = roundness(rescale(SQUARE, kappa), kappa ** 2 * g)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_mu_le_m_on_zoo(self):
        for name in ("hexagon", "lp-1.5", "quartic-axial-2d", "l1-l2-mix"):
            norm = catalog.builtin_norm(name)
            mu, big = roundness(norm, own_metric(norm))
            assert mu <= big


class TestIsotropyDefect:
    def test_euclidean(self):
        assert isotropy_defect(Euclidean([[2.0, 0.3], [0.3, 1.0]])) < 1e-6

    def test_square(self):
        assert isotropy_defect(SQUARE) == pytest.approx(np.sqrt(2.0) - 1.0,
                                                        abs=1e-6)

    def test_quartic_3d_positive(self):
        # not euclidean; value recorded from the validated quadrature run
        defect = isotropy_defect(QuarticAxial(3))
        assert defect > 1e-2
        assert defect == pytest.approx(0.052863, abs=2e-5)


class TestFingerprint:
    def test_disk(self):
        np.testing.assert_allclose(fingerprint_point(Euclidean(np.eye(2))),
                                   [np.pi, np.pi, 1.0, 1.0], rtol=1e-8)

    def test_square(self):
        target = [3.0, 2.0 * np.sqrt(3.0), np.sqrt(2.0 / 3.0), 2.0 / np.sqrt(3.0)]
        np.testing.assert_allclose(fingerprint_point(SQUARE), target, atol=1e-4)

    def test_conformal_invariance(self):
        rng = np.random.default_rng(3)
        fp = fingerprint_point(SQUARE)
        for kappa in rng.uniform(0.2, 5.0, 3):
            fp_k = fingerprint_point(rescale(SQUARE, float(kappa)))
            np.testing.assert_allclose(fp_k, fp, rtol=1e-6)

    def test_linear_invariance(self):
        a = np.array([[1.2, 0.3], [-0.4, 0.8]])
        fp = fingerprint_point(catalog.builtin_norm("hexagon"))
        fp_a = fingerprint_point(linear_image(catalog.builtin_norm("hexagon"), a))
        np.testing.assert_allclose(fp_a, fp, rtol=1e-5)


class TestCompare:
    def test_identical_clouds(self):
        cloud = np.array([fingerprint_point(SQUARE),
                          fingerprint_point(Euclidean(np.eye(2)))])
        res = compare_fingerprints(cloud, cloud.copy())
        assert res.hausdorff == 0.0
        assert res.verdict == "cannot distinguish"

    def test_l1_vs_euclidean_fields(self):
        # the 1-norm has mu < M while the euclidean fingerprint has mu = M
        l1 = catalog.builtin_norm("diamond-l1")
        cloud_a = np.tile(fingerprint_point(l1), (4, 1))
        cloud_b = np.tile(fingerprint_point(Euclidean(np.eye(2))), (4, 1))
        res = compare_fingerprints(cloud_a, cloud_b)
        assert res.verdict == "not conformally equivalent"

    def test_empty_cloud_rejected(self):
        with pytest.raises(InputError):
            compare_fingerprints(np.empty((0, 4)), np.ones((1, 4)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputError):
            compare_fingerprints(np.ones((2, 4)), np.ones((2, 5)))

    def test_quantile_leq_hausdorff(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((40, 4))
        b = rng.standard_normal((40, 4))
        res = compare_fingerprints(a, b, tol=1e-3)
        assert res.quantile95 <= res.hausdorff
