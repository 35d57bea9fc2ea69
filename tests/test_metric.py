import numpy as np
import pytest

from blgeom import (DefinitenessError, Ellipsoid, Euclidean, LpNorm,
                    NumericalFailure, PolytopeGauge, QuarticAxial, WeightedSum,
                    auto_quadrature, binet_ellipsoid, bl_metric,
                    bl_metric_converged, dual_scalar_matrix, legendre_ellipsoid,
                    linear_image, moment_of_inertia, rescale,
                    relative_qf_deviation, unit_ball_volume)
from counting import CountingNorm
from oracles import mc_body_moment, random_invertible, random_spd

SQUARE = PolytopeGauge([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
DIAMOND = PolytopeGauge([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


class TestDualMatrix:
    def test_euclidean_identity(self):
        # for the round ball every normalized second moment is 1
        m = dual_scalar_matrix(Euclidean(np.eye(2)), auto_quadrature(Euclidean(np.eye(2))))
        np.testing.assert_allclose(m, np.eye(2), atol=1e-12)
        eu3 = Euclidean(np.eye(3))
        m3 = dual_scalar_matrix(eu3, auto_quadrature(eu3))
        np.testing.assert_allclose(m3, np.eye(3), atol=1e-10)

    def test_square_closed_form_and_mc_oracle(self):
        # closed form: integral of x^2 over [-1,1]^2 is 4/3, volume 4,
        # so the normalized moment is (2+2)/4 * 4/3 = 4/3
        m = dual_scalar_matrix(SQUARE, auto_quadrature(SQUARE))
        np.testing.assert_allclose(m, (4.0 / 3.0) * np.eye(2), atol=1e-12)
        mc, err = mc_body_moment(lambda p: SQUARE.values(p) <= 1.0,
                                 [-1, -1], [1, 1], [1.0, 0.0],
                                 samples=2 * 10 ** 6, seed=11)
        assert abs(mc - 4.0 / 3.0) < 4 * err

    def test_diamond_closed_form_and_mc_oracle(self):
        # integral of x^2 over the cross-polytope is 1/3, volume 2
        m = dual_scalar_matrix(DIAMOND, auto_quadrature(DIAMOND))
        np.testing.assert_allclose(m, (2.0 / 3.0) * np.eye(2), atol=1e-12)
        mc, err = mc_body_moment(lambda p: DIAMOND.values(p) <= 1.0,
                                 [-1, -1], [1, 1], [1.0, 0.0],
                                 samples=2 * 10 ** 6, seed=12)
        assert abs(mc - 1.0 / 3.0) < 4 * err

    @pytest.mark.parametrize("vertices,closed_form", [
        ([[1, 1], [-1, 1], [-1, -1], [1, -1]], (4.0 / 3.0) * np.eye(2)),
        ([[1, 0], [0, 1], [-1, 0], [0, -1]], (2.0 / 3.0) * np.eye(2)),
        (np.column_stack([np.cos(np.arange(6) * np.pi / 3),
                          np.sin(np.arange(6) * np.pi / 3)]),
         (5.0 / 6.0) * np.eye(2)),
        ([[2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]],
         np.array([[2.0, -1.0], [-1.0, 2.0]])),
    ])
    def test_polygon_moments_exact(self, vertices, closed_form):
        # quadrature vs the exact fan/simplex oracle vs hand-derived values
        from oracles import polygon_dual_moment_matrix

        gauge = PolytopeGauge(vertices)
        m = dual_scalar_matrix(gauge, auto_quadrature(gauge))
        oracle = polygon_dual_moment_matrix(vertices)
        np.testing.assert_allclose(m, oracle, atol=1e-12)
        np.testing.assert_allclose(m, closed_form, atol=1e-12)

    def test_rejects_degenerate_norm(self):
        class Bad(LpNorm):
            def _values(self, pts):
                return np.maximum(pts[:, 0], 0.0)

        with pytest.raises(DefinitenessError):
            dual_scalar_matrix(Bad(2, 2), auto_quadrature(LpNorm(2, 2)))


class TestMetric:
    def test_euclidean_recovery_random(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            for _ in range(5):
                g0 = random_spd(rng, n)
                norm = Euclidean(g0)
                g = bl_metric(norm, auto_quadrature(norm, level=1))
                assert np.linalg.norm(g - g0) / np.linalg.norm(g0) < 1e-8

    def test_square_and_diamond(self):
        g_sq = bl_metric(SQUARE, auto_quadrature(SQUARE))
        np.testing.assert_allclose(g_sq, 0.75 * np.eye(2), atol=1e-6)
        g_dia = bl_metric(DIAMOND, auto_quadrature(DIAMOND))
        np.testing.assert_allclose(g_dia, 1.5 * np.eye(2), atol=1e-6)

    def test_gl_equivariance(self):
        rng = np.random.default_rng(1)
        norms = [SQUARE, DIAMOND, QuarticAxial(2),
                 WeightedSum(0.5, 0.5, LpNorm(1, 2), LpNorm(2, 2)),
                 QuarticAxial(3)]
        for norm in norms:
            a = random_invertible(rng, norm.dim)
            img = linear_image(norm, a)
            g = bl_metric(norm, auto_quadrature(norm, level=1))
            g_img = bl_metric(img, auto_quadrature(img, level=1))
            target = a.T @ g @ a
            assert (np.linalg.norm(g_img - target) / np.linalg.norm(target)
                    < 1e-6)

    def test_scaling_law(self):
        for norm in (SQUARE, QuarticAxial(2)):
            kappa = 2.7
            g = bl_metric(norm, auto_quadrature(norm))
            scaled = rescale(norm, kappa)
            g_s = bl_metric(scaled, auto_quadrature(scaled))
            np.testing.assert_allclose(g_s, kappa ** 2 * g, rtol=1e-8,
                                       atol=1e-12)

    def test_bilipschitz_sandwich(self):
        f1 = PolytopeGauge(np.column_stack([np.cos(np.arange(6) * np.pi / 3),
                                            np.sin(np.arange(6) * np.pi / 3)]))
        f2 = WeightedSum(0.6, 0.4, f1, Euclidean(np.eye(2)))
        ang = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
        u = np.column_stack([np.cos(ang), np.sin(ang)])
        ratio = f2.values(u) / f1.values(u)
        c = max(ratio.max(), 1.0 / ratio.min()) * (1 + 1e-12)
        g1 = bl_metric(f1, auto_quadrature(f1, level=1))
        g2 = bl_metric(f2, auto_quadrature(f2, level=1))
        from scipy.linalg import eigh

        lam = eigh(g2, g1, eigvals_only=True)
        assert lam.min() >= c ** -4 and lam.max() <= c ** 4  # c^(2n), n=2

    def test_c0_stability_bound(self):
        base = QuarticAxial(2)
        eps_target = 0.05
        pert = WeightedSum(1.0 - eps_target, eps_target, base, Euclidean(np.eye(2)))
        ang = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
        u = np.column_stack([np.cos(ang), np.sin(ang)])
        eps = np.abs(pert.values(u) / base.values(u) - 1.0).max()
        g_b = bl_metric(base, auto_quadrature(base))
        g_p = bl_metric(pert, auto_quadrature(pert))
        bound = ((1 + eps) / (1 - eps)) ** 4 - 1.0
        assert relative_qf_deviation(g_p, g_b) <= bound

    def test_condition_guard(self):
        squashed = Euclidean(np.diag([1.0, 1e-14]))
        with pytest.raises(NumericalFailure):
            bl_metric(squashed, auto_quadrature(squashed))

    def test_overflowing_norm_rejected(self):
        # F ~ 1e200 |x|: F^-4 underflows to 0 and the moments turn into NaN
        nested = linear_image(linear_image(SQUARE, 1e100 * np.eye(2)), 1e100 * np.eye(2))
        with pytest.raises(NumericalFailure, match="not finite"):
            bl_metric(nested, auto_quadrature(nested))

    def test_convergence_driver(self):
        g, info = bl_metric_converged(QuarticAxial(2), tol=1e-10)
        assert info.converged and info.achieved_tol < 1e-10

    def test_doubling_changes(self):
        for norm, tol in ((QuarticAxial(2), 1e-8), (Euclidean(np.eye(3)), 1e-8),
                          (SQUARE, 1e-6), (DIAMOND, 1e-6)):
            q = auto_quadrature(norm)
            m0 = dual_scalar_matrix(norm, q)
            m1 = dual_scalar_matrix(norm, q.refined())
            assert np.linalg.norm(m1 - m0) / np.linalg.norm(m1) < tol


class TestVolume:
    def test_disk(self):
        eu = Euclidean(np.eye(2))
        assert unit_ball_volume(eu, auto_quadrature(eu)) == pytest.approx(np.pi)

    def test_square(self):
        assert unit_ball_volume(SQUARE, auto_quadrature(SQUARE)) == pytest.approx(4.0)

    def test_ball3(self):
        eu = Euclidean(np.eye(3))
        assert unit_ball_volume(eu, auto_quadrature(eu)) == pytest.approx(4 * np.pi / 3)


class TestEllipsoids:
    def test_binet_euclidean_is_unit_ball(self):
        eu = Euclidean(np.eye(2))
        ell = binet_ellipsoid(eu, auto_quadrature(eu))
        np.testing.assert_allclose(ell.shape, np.eye(2), atol=1e-12)
        assert ell.scale == 1.0

    def test_binet_square_radius(self):
        ell = binet_ellipsoid(SQUARE, auto_quadrature(SQUARE))
        np.testing.assert_allclose(ell.radii(), np.sqrt(3) / 2, rtol=1e-10)

    def test_binet_contravariance(self):
        rng = np.random.default_rng(5)
        a = random_invertible(rng, 2)
        img = linear_image(SQUARE, a)
        m_img = dual_scalar_matrix(img, auto_quadrature(img, level=1))
        m = dual_scalar_matrix(SQUARE, auto_quadrature(SQUARE, level=1))
        target = np.linalg.inv(a) @ m @ np.linalg.inv(a).T
        np.testing.assert_allclose(m_img, target, rtol=1e-8, atol=1e-10)

    def test_legendre_euclidean_scale_one(self):
        eu = Euclidean(np.eye(3))
        ell = legendre_ellipsoid(eu, auto_quadrature(eu))
        assert ell.scale == pytest.approx(1.0, abs=1e-9)

    def test_legendre_moment_identity(self):
        # the moment ellipsoid reproduces the body's moments in every codirection
        for norm in (SQUARE, DIAMOND):
            q = auto_quadrature(norm)
            ell = legendre_ellipsoid(norm, q)
            for theta in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
                body = moment_of_inertia(norm, theta, quad=q).value
                assert ell.moment_of_inertia(theta) == pytest.approx(body, rel=1e-10)

    def test_legendre_scaling(self):
        ell1 = legendre_ellipsoid(SQUARE, auto_quadrature(SQUARE))
        scaled = rescale(SQUARE, 3.0)
        ell2 = legendre_ellipsoid(scaled, auto_quadrature(scaled))
        np.testing.assert_allclose(ell2.radii() * 3.0, ell1.radii(), rtol=1e-10)

    def test_ellipsoid_volume(self):
        # {4x^2 + y^2 <= 4} has semi-axes 1 and 2
        ell = Ellipsoid(np.diag([4.0, 1.0]), 2.0)
        assert ell.volume() == pytest.approx(2.0 * np.pi)
        np.testing.assert_allclose(sorted(ell.radii()), [1.0, 2.0])


class TestMoments:
    def test_disk_moment(self):
        eu = Euclidean(np.eye(2))
        got = moment_of_inertia(eu, [1.0, 0.0], quad=auto_quadrature(eu)).value
        assert got == pytest.approx(np.pi / 4)

    def test_square_moment(self):
        got = moment_of_inertia(SQUARE, [1.0, 0.0], quad=auto_quadrature(SQUARE)).value
        assert got == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_mc_matches_radial(self):
        val = moment_of_inertia(DIAMOND, [1.0, 1.0], method="mc",
                                samples=10 ** 6, seed=4)
        exact = moment_of_inertia(DIAMOND, [1.0, 1.0],
                                  quad=auto_quadrature(DIAMOND)).value
        assert abs(val.value - exact) < 4 * val.stderr

    def test_mc_ellipsoid_matches_closed_form(self):
        ell = Ellipsoid(np.array([[2.0, 0.3], [0.3, 1.0]]), 1.3)
        mc = moment_of_inertia(ell, [0.7, -0.2], method="mc",
                               samples=400_000, seed=5)
        assert abs(mc.value - ell.moment_of_inertia([0.7, -0.2])) < 4 * mc.stderr

    def test_unknown_method_rejected(self):
        from blgeom import InputError

        with pytest.raises(InputError):
            moment_of_inertia(SQUARE, [1.0, 0.0], method="banana")


class TestMonteCarloMetric:
    def test_dimension_4_euclidean(self):
        from blgeom import sphere_monte_carlo

        g0 = np.diag([1.0, 1.5, 0.8, 1.2])
        g = bl_metric(Euclidean(g0), sphere_monte_carlo(4, 400_000, seed=9))
        assert np.linalg.norm(g - g0) / np.linalg.norm(g0) < 0.01

    def test_variance_based_stopping(self):
        g0 = np.diag([1.0, 1.5, 0.8, 1.2])
        g, info = bl_metric_converged(Euclidean(g0), seed=9, mc_tol=2e-3)
        assert info.scheme == "monte-carlo" and info.converged
        # three reported standard errors must cover the true error
        assert np.linalg.norm(g - g0) / np.linalg.norm(g0) < 3 * info.achieved_tol


class TestOnePassPerRule:
    """F is evaluated once per quadrature rule, and the moments it gives are shared."""

    def test_converge_evaluates_once_per_level(self):
        norm = CountingNorm(QuarticAxial(2))
        g, info = bl_metric_converged(norm, tol=1e-10)
        sizes = [len(auto_quadrature(norm, level=lvl)) for lvl in range(info.level + 1)]
        assert norm.rule_calls == sizes
        q = auto_quadrature(QuarticAxial(2), level=info.level)
        np.testing.assert_array_equal(info.dual_matrix, dual_scalar_matrix(QuarticAxial(2), q))
        assert info.unit_ball_volume == unit_ball_volume(QuarticAxial(2), q)
        np.testing.assert_array_equal(g, bl_metric(QuarticAxial(2), q))
        eigs = np.linalg.eigvalsh(info.dual_matrix)
        assert info.condition_number == eigs[-1] / eigs[0]

    def test_monte_carlo_standard_error_evaluates_once(self):
        # the batch means are slices of the one evaluation
        norm = CountingNorm(Euclidean(np.diag([1.0, 1.5, 0.8, 1.2])))
        g, info = bl_metric_converged(norm, seed=3, mc_tol=1.0)
        assert info.scheme == "monte-carlo" and info.level == 0 and info.converged
        assert norm.rule_calls == [1_000_000]
        assert 0.0 < info.achieved_tol < 1e-2

    def test_legendre_ellipsoid_evaluates_once(self):
        norm = CountingNorm(SQUARE)
        q = auto_quadrature(SQUARE)
        ell = legendre_ellipsoid(norm, q)
        assert norm.rule_calls == [len(q)]
        np.testing.assert_array_equal(ell.shape, bl_metric(SQUARE, q))
