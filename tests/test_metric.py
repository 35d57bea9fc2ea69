import numpy as np
import pytest

from blgeom import (DefinitenessError, Euclidean, InputError,
                    LinearImage, LpNorm, NumericalFailure, PolytopeGauge, QuarticAxial,
                    WeightedSum, auto_quadrature, bl_metric,
                    bl_metric_converged, rescale,
                    relative_qf_deviation, sampled_moment)
from counting import CountingNorm, count_values_calls
from oracles import (ellipsoid_moment, lp_ball_record, mc_body_moment,
                     random_invertible, random_spd)

SQUARE = PolytopeGauge([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
DIAMOND = PolytopeGauge([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


class TestDualMatrix:
    def test_euclidean_identity(self):
        # for the round ball every normalized second moment is 1
        m = bl_metric(Euclidean(np.eye(2)), 0).dual
        np.testing.assert_allclose(m, np.eye(2), atol=1e-12)
        eu3 = Euclidean(np.eye(3))
        m3 = bl_metric(eu3, 0).dual
        np.testing.assert_allclose(m3, np.eye(3), atol=1e-10)

    def test_square_closed_form_and_mc_oracle(self):
        # closed form: integral of x^2 over [-1,1]^2 is 4/3, volume 4,
        # so the normalized moment is (2+2)/4 * 4/3 = 4/3
        m = bl_metric(SQUARE, 0).dual
        np.testing.assert_allclose(m, (4.0 / 3.0) * np.eye(2), atol=1e-12)
        mc, err = mc_body_moment(lambda p: SQUARE.values(p) <= 1.0,
                                 [-1, -1], [1, 1], [1.0, 0.0],
                                 samples=2 * 10 ** 6, seed=11)
        assert abs(mc - 4.0 / 3.0) < 4 * err

    def test_diamond_closed_form_and_mc_oracle(self):
        # integral of x^2 over the cross-polytope is 1/3, volume 2
        m = bl_metric(DIAMOND, 0).dual
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
        m = bl_metric(gauge, 0).dual
        oracle = polygon_dual_moment_matrix(vertices)
        np.testing.assert_allclose(m, oracle, atol=1e-12)
        np.testing.assert_allclose(m, closed_form, atol=1e-12)

    def test_rejects_degenerate_norm(self):
        class Bad(LpNorm):
            def _values(self, pts):
                return np.maximum(pts[:, 0], 0.0)

        with pytest.raises(DefinitenessError):
            bl_metric(Bad(2, 2), 0)


class TestMetric:
    def test_euclidean_recovery_random(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            for _ in range(5):
                g0 = random_spd(rng, n)
                norm = Euclidean(g0)
                g = bl_metric(norm, 1).metric
                assert np.linalg.norm(g - g0) / np.linalg.norm(g0) < 1e-8

    def test_square_and_diamond(self):
        g_sq = bl_metric(SQUARE, 0).metric
        np.testing.assert_allclose(g_sq, 0.75 * np.eye(2), atol=1e-6)
        g_dia = bl_metric(DIAMOND, 0).metric
        np.testing.assert_allclose(g_dia, 1.5 * np.eye(2), atol=1e-6)

    def test_gl_equivariance(self):
        rng = np.random.default_rng(1)
        norms = [SQUARE, DIAMOND, QuarticAxial(2),
                 WeightedSum(0.5, 0.5, LpNorm(1, 2), LpNorm(2, 2)),
                 QuarticAxial(3)]
        for norm in norms:
            a = random_invertible(rng, norm.dim)
            img = LinearImage(a, norm)
            g = bl_metric(norm, 1).metric
            g_img = bl_metric(img, 1).metric
            target = a.T @ g @ a
            assert (np.linalg.norm(g_img - target) / np.linalg.norm(target)
                    < 1e-6)

    def test_scaling_law(self):
        for norm in (SQUARE, QuarticAxial(2)):
            kappa = 2.7
            g = bl_metric(norm, 0).metric
            scaled = rescale(norm, kappa)
            g_s = bl_metric(scaled, 0).metric
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
        g1 = bl_metric(f1, 1).metric
        g2 = bl_metric(f2, 1).metric
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
        g_b = bl_metric(base, 0).metric
        g_p = bl_metric(pert, 0).metric
        bound = ((1 + eps) / (1 - eps)) ** 4 - 1.0
        assert relative_qf_deviation(g_p, g_b) <= bound

    def test_condition_guard(self):
        squashed = Euclidean(np.diag([1.0, 1e-14]))
        with pytest.raises(NumericalFailure):
            bl_metric(squashed, 0)

    def test_overflowing_norm_rejected(self):
        # F ~ 1e200 |x|: its metric, about 1e400 g(square), lies past the float range
        nested = LinearImage(1e100 * np.eye(2), LinearImage(1e100 * np.eye(2), SQUARE))
        with pytest.raises(NumericalFailure, match="not finite"):
            bl_metric(nested, 0)

    def test_convergence_driver(self):
        _, info = bl_metric_converged(QuarticAxial(2), tol=1e-10)
        assert info.converged and info.achieved_tol < 1e-10

    def test_doubling_changes(self):
        for norm, tol in ((QuarticAxial(2), 1e-8), (Euclidean(np.eye(3)), 1e-8),
                          (SQUARE, 1e-6), (DIAMOND, 1e-6)):
            m0 = bl_metric(norm, 0).dual
            m1 = bl_metric(norm, 1).dual
            assert np.linalg.norm(m1 - m0) / np.linalg.norm(m1) < tol


class TestVolume:
    def test_disk(self):
        eu = Euclidean(np.eye(2))
        assert bl_metric(eu, 0).volume == pytest.approx(np.pi)

    def test_square(self):
        assert bl_metric(SQUARE, 0).volume == pytest.approx(4.0)

    def test_ball3(self):
        eu = Euclidean(np.eye(3))
        assert bl_metric(eu, 0).volume == pytest.approx(4 * np.pi / 3)


class TestEllipsoids:
    def test_binet_euclidean_is_unit_ball(self):
        eu = Euclidean(np.eye(2))
        np.testing.assert_allclose(bl_metric(eu, 0).dual, np.eye(2), atol=1e-12)

    def test_binet_square_radius(self):
        # the Binet ellipsoid is the unit ball of M*; its semi-axes are 1/sqrt(eigenvalues)
        dual = bl_metric(SQUARE, 0).dual
        np.testing.assert_allclose(1.0 / np.sqrt(np.linalg.eigvalsh(dual)), np.sqrt(3) / 2,
                                   rtol=1e-10)

    def test_binet_contravariance(self):
        rng = np.random.default_rng(5)
        a = random_invertible(rng, 2)
        img = LinearImage(a, SQUARE)
        m_img = bl_metric(img, 1).dual
        m = bl_metric(SQUARE, 1).dual
        target = np.linalg.inv(a) @ m @ np.linalg.inv(a).T
        np.testing.assert_allclose(m_img, target, rtol=1e-8, atol=1e-10)

    def test_legendre_euclidean_scale_one(self):
        eu = Euclidean(np.eye(3))
        assert bl_metric(eu, 0).legendre_scale == pytest.approx(1.0, abs=1e-9)

    def test_legendre_moment_identity(self):
        # the moment ellipsoid reproduces the body's moments in every codirection
        for norm in (SQUARE, DIAMOND):
            bl = bl_metric(norm, 0)
            for theta in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
                body = bl.moment_of_inertia(theta)
                ell = ellipsoid_moment(bl.metric, bl.legendre_scale, theta)
                assert ell == pytest.approx(body, rel=1e-10)

    def test_legendre_scaling(self):
        def radii(bl):
            return bl.legendre_scale / np.sqrt(np.linalg.eigvalsh(bl.metric))

        scaled = rescale(SQUARE, 3.0)
        np.testing.assert_allclose(radii(bl_metric(scaled, 0)) * 3.0,
                                   radii(bl_metric(SQUARE, 0)), rtol=1e-10)


class TestMoments:
    def test_disk_moment(self):
        eu = Euclidean(np.eye(2))
        got = bl_metric(eu, 0).moment_of_inertia([1.0, 0.0])
        assert got == pytest.approx(np.pi / 4)

    def test_square_moment(self):
        got = bl_metric(SQUARE, 0).moment_of_inertia([1.0, 0.0])
        assert got == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_mc_matches_radial(self):
        val = sampled_moment(DIAMOND, [1.0, 1.0], 10 ** 6, 4)
        exact = bl_metric(DIAMOND, 0).moment_of_inertia([1.0, 1.0])
        assert abs(val.value - exact) < 4 * val.stderr

    def test_mc_ellipsoid_matches_closed_form(self):
        # {xi^T Q xi <= s^2} is the unit ball of Euclidean(Q / s^2)
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        mc = sampled_moment(Euclidean(q / 1.3 ** 2), [0.7, -0.2], 400_000, 5)
        assert abs(mc.value - ellipsoid_moment(q, 1.3, [0.7, -0.2])) < 4 * mc.stderr

    def test_sampled_moment_needs_a_sample(self):
        with pytest.raises(InputError, match="samples must be >= 1"):
            sampled_moment(SQUARE, [1.0, 0.0], 0, 0)


class TestOrthantMetric:
    """n >= 4 takes the deterministic orthant rule."""

    def test_dimension_4_euclidean(self):
        g0 = np.diag([1.0, 1.5, 0.8, 1.2])
        g = bl_metric(Euclidean(g0), 0).metric
        assert np.linalg.norm(g - g0) / np.linalg.norm(g0) < 1e-10

    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_l1_matches_dirichlet(self, dim):
        # F = sum x_i on the simplex, so every patch integrand is polynomial
        vol, c = lp_ball_record(1.0, dim)
        bl = bl_metric(LpNorm(1, dim), 0)
        assert bl.volume == pytest.approx(vol, rel=1e-12)
        np.testing.assert_allclose(bl.metric, np.eye(dim) / c, rtol=0, atol=1e-12 / c)


class TestOnePassPerRule:
    """F is evaluated once per quadrature rule, and the moments it gives are shared."""

    def test_converge_evaluates_once_per_level(self):
        norm = CountingNorm(QuarticAxial(2))
        bl, info = bl_metric_converged(norm, tol=1e-10)
        sizes = [len(auto_quadrature(norm, level=lvl)) for lvl in range(bl.quad.level + 1)]
        assert norm.rule_calls == sizes
        # the record is the converged rule's own
        want = bl_metric(QuarticAxial(2), bl.quad.level)
        for name in ("orthonormal_volume", "dual", "metric"):
            np.testing.assert_array_equal(getattr(bl, name), getattr(want, name))
        assert (bl.volume, bl.condition_number) == (want.volume, want.condition_number)
        eigs = np.linalg.eigvalsh(bl.dual)
        assert bl.condition_number == eigs[-1] / eigs[0]

    def test_legendre_ellipsoid_evaluates_once(self, monkeypatch):
        norm = CountingNorm(SQUARE)
        bl = bl_metric(norm, 0)
        assert norm.rule_calls == [len(bl.quad)]
        calls = count_values_calls(monkeypatch)
        scale = bl.legendre_scale     # read from the record: F is evaluated nowhere
        assert calls == [] and norm.rule_calls == [len(bl.quad)]
        want = bl_metric(SQUARE, 0)
        np.testing.assert_array_equal(bl.dual, want.dual)
        np.testing.assert_array_equal(bl.metric, want.metric)
        assert scale == want.legendre_scale
