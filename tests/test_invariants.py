import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from blgeom import (Euclidean, InputError, LpNorm, NumericalFailure, PolytopeGauge,
                    QuarticAxial, UnsupportedDimensionError, WeightedSum,
                    bl_metric, compare_fingerprints, fingerprint_point,
                    isotropy_defect, orthonormalize,
                    quermassintegrals, rescale, roundness)
from blgeom import catalog, invariants
from blgeom.invariants import _bulge, _polytope_mean_width_term
from blgeom.norms import (LinearImage, MinkowskiNorm, sphere_directions, sphere_grid,
                          sphere_polish)
from counting import count_hulls, count_values_calls
from oracles import mc_dilated_area, polytope_mean_width_term

SQUARE = PolytopeGauge([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
CUBE = PolytopeGauge(np.array(list(itertools.product([-1.0, 1.0], repeat=3))))


def own(norm):
    """The norm's Binet-Legendre record at level 0."""
    return bl_metric(norm, 0)


def own_metric(norm):
    return own(norm).metric


def _no_second_pass(*args, **kwargs):
    raise AssertionError("a second metric pass was made")


def random_metric(dim, seed):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    return a @ a.T + 0.5 * np.eye(dim)


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
        for metric in ([[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, np.nan]]):
            with pytest.raises(NumericalFailure, match="reference metric"):
                orthonormalize(SQUARE, np.array(metric))

    @pytest.mark.parametrize("metric", [[1.0, 1.0], np.eye(3), "ab"],
                             ids=["vector", "3x3", "text"])
    def test_metric_of_wrong_shape_or_kind_is_input_error(self, metric):
        with pytest.raises(InputError, match="reference metric"):
            roundness(SQUARE, metric)

    def test_symmetry_is_checked_at_the_metric_scale(self):
        # an asymmetric metric is rejected however small its entries; a
        # symmetric one of the same scale is accepted
        lower = np.array([[1.0, 0.0], [0.9, 1.0]])
        with pytest.raises(NumericalFailure, match="not symmetric"):
            roundness(Euclidean(np.eye(2)), 1e-20 * lower.T)
        np.testing.assert_allclose(roundness(Euclidean(np.eye(2)), 1e-20 * np.eye(2)),
                                   1e10, rtol=1e-14)


class TestQuermassintegrals:
    def test_disk(self):
        qm = quermassintegrals(own(Euclidean(np.eye(2))))
        np.testing.assert_allclose(qm.values, [np.pi, np.pi, np.pi], rtol=1e-9)

    def test_square_in_own_metric(self):
        # orthonormal coordinates scale the square to side sqrt(3)
        qm = quermassintegrals(own(SQUARE))
        np.testing.assert_allclose(qm.values[:2], [3.0, 2.0 * np.sqrt(3.0)],
                                   rtol=1e-9)
        assert qm.values[2] == np.pi

    @pytest.mark.parametrize("name", sorted(n for n in catalog.BUILTIN_NORMS
                                            if catalog.builtin_norm(n).dim == 2))
    def test_2d_area_from_the_record(self, monkeypatch, name):
        # W_0 = vol(Omega) sqrt(det g) against an independent volume pass on
        # the orthonormal body; the record's pass is the only one made
        norm = catalog.builtin_norm(name)
        for level in (0, 1, 2):
            bl = bl_metric(norm, level)
            body = orthonormalize(norm, bl.metric)
            want = bl_metric(body, level).volume
            with monkeypatch.context() as m:
                m.setattr(invariants, "bl_metric", _no_second_pass)
                qm = quermassintegrals(bl)
            assert qm.values[0] == pytest.approx(want, rel=1e-13, abs=0)

    def test_ball_3d(self):
        qm = quermassintegrals(own(Euclidean(np.eye(3))))
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

    @pytest.mark.parametrize("norm, level, rtol", [
        (LpNorm(8, 3), 0, 1e-12),      # the hull without pre-merge raises
        (CUBE, 0, 1e-12),              # most samples lie in the six facet planes
        (catalog.builtin_norm("euclidean-3d"), 0, 1e-10),
        (catalog.builtin_norm("euclidean-3d"), 1, 1e-10),
        (catalog.builtin_norm("quartic-axial-3d"), 0, 1e-10),
        (catalog.builtin_norm("quartic-axial-3d"), 1, 1e-10),
    ], ids=["lp-8", "cube", "euclidean-0", "euclidean-1", "quartic-0", "quartic-1"])
    def test_3d_as_from_the_merged_hull(self, norm, level, rtol):
        # the values of Qhull's default (pre-merged) hull of the same samples
        bl = bl_metric(norm, level)
        body = orthonormalize(norm, bl.metric)
        dirs = sphere_directions(body, 20000 << level)
        hull = ConvexHull(dirs / body.values(dirs)[:, None])
        want = [hull.volume, hull.area / 3.0, _polytope_mean_width_term(hull) / 6.0]
        np.testing.assert_allclose(quermassintegrals(bl).values[:3], want, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("norm, hulls", [
        (catalog.builtin_norm("euclidean-3d"), ["Qt Q0"]),
        (catalog.builtin_norm("quartic-axial-3d"), ["Qt Q0"]),
        (LpNorm(8, 3), ["Qt Q0", None]),
    ], ids=["euclidean-3d", "quartic-axial-3d", "lp-8"])
    def test_3d_hulls_built(self, monkeypatch, norm, hulls):
        # one hull without pre-merge; Qhull's default hull only where that fails
        bl = own(norm)
        calls = count_hulls(monkeypatch)
        quermassintegrals(bl)
        assert calls == hulls

    def test_3d_hull_failing_the_edge_check_is_rebuilt_merged(self, monkeypatch):
        bl = own(catalog.builtin_norm("euclidean-3d"))
        want = quermassintegrals(bl).values
        monkeypatch.setattr(invariants, "_bulge", lambda hull: 1.0)
        calls = count_hulls(monkeypatch)
        got = quermassintegrals(bl).values
        assert calls == ["Qt Q0", None]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_bulge_of_octahedron(self):
        # across every edge the opposite vertex lies 2/sqrt(3) below the
        # neighbouring facet's plane
        hull = ConvexHull(np.vstack([np.eye(3), -np.eye(3)]))
        assert _bulge(hull) == pytest.approx(-2.0 / np.sqrt(3.0), rel=1e-14)

    def test_unsupported_dimension_is_loud(self):
        bl4 = own(LpNorm(2, 4))
        with pytest.raises(UnsupportedDimensionError):
            quermassintegrals(bl4)
        with pytest.raises(UnsupportedDimensionError):
            fingerprint_point(bl4)
        # a sphere search has no chart on S^0 (and no norm lives on R^1)
        with pytest.raises(UnsupportedDimensionError):
            sphere_polish(lambda u: u[..., 0], np.ones((1, 1)), 0.1)
        with pytest.raises(UnsupportedDimensionError):
            sphere_polish(lambda u: -u[..., 0], np.array([[1.0], [-1.0]]), 0.1)

    @pytest.mark.parametrize("name", [
        "euclidean-2d", "anisotropic-euclidean", "square-max", "diamond-l1",
        "hexagon", "asymmetric-triangle", "sheared-square", "lp-1.5", "lp-4",
        "l1-l2-mix", "quartic-axial-2d"])
    def test_steiner_consistency_against_mc(self, name):
        # vol(body + t ball) from the coefficients vs direct Monte Carlo
        norm = catalog.builtin_norm(name)
        bl = own(norm)
        qm = quermassintegrals(bl)
        body = orthonormalize(norm, bl.metric)
        for i, t in enumerate((0.1, 0.25, 0.5)):
            predicted = qm.steiner_polynomial(t)
            estimate, _ = mc_dilated_area(body, t, samples=400_000,
                                          seed=31 * i + hash(name) % 1000)
            assert abs(estimate - predicted) / predicted < 0.01

    def test_steiner_fit_recovers_coefficients(self):
        # quadratic fit of the dilated areas, with the exact pi t^2 term pinned
        bl = own(SQUARE)
        qm = quermassintegrals(bl)
        body = orthonormalize(SQUARE, bl.metric)
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

    def test_searched_norm_under_a_huge_map(self):
        # the extremal candidates of rescale(F, 1e200) are scaled to unit rows
        # without squaring them, so the search neither overflows nor warns
        norm = catalog.builtin_norm("l1-l2-mix")
        np.testing.assert_allclose(roundness(rescale(norm, 1e200), np.eye(2)),
                                   1e200 * np.array(roundness(norm, np.eye(2))), rtol=1e-12)

    def test_mu_le_m_on_zoo(self):
        for name in ("hexagon", "lp-1.5", "quartic-axial-2d", "l1-l2-mix"):
            norm = catalog.builtin_norm(name)
            mu, big = roundness(norm, own_metric(norm))
            assert mu <= big


class TestRoundnessSearch:
    # against a random metric the extrema sit off the extremal candidates,
    # so the sphere search has to find them

    @pytest.mark.parametrize("norm", [QuarticAxial(3), QuarticAxial(2), LpNorm(1.5, 2)],
                             ids=repr)
    def test_against_dense_scan(self, norm):
        g = random_metric(norm.dim, seed=4)
        mu, big = roundness(norm, g)
        scan = orthonormalize(norm, g).values(sphere_grid(norm.dim, 2_000_000))
        assert scan.min() * (1.0 - 5e-6) <= mu <= scan.min()
        assert scan.max() <= big <= scan.max() * (1.0 + 5e-6)

    def test_minimum_on_a_kink_ridge(self):
        # F = (|.|_1 + |.|_2) / 2 in G-coordinates is F(A u), with a kink
        # along each great circle (A u)_i = 0; for this metric the minimum
        # lies on one of them, far from every sampled direction, and a dense
        # scan of the three circles gives it to ~1e-12
        norm = WeightedSum(0.5, 0.5, LpNorm(1, 3), LpNorm(2, 3))
        g = random_metric(3, seed=4)
        body = orthonormalize(norm, g)
        phi = np.linspace(0.0, 2.0 * np.pi, 2_000_000, endpoint=False)
        ridge = np.inf
        for row in body.matrix:
            q, _ = np.linalg.qr(np.column_stack([row, np.eye(3)[:, :2]]))
            circle = np.outer(np.cos(phi), q[:, 1]) + np.outer(np.sin(phi), q[:, 2])
            ridge = min(ridge, body.values(circle).min())
        mu, _ = roundness(norm, g)
        assert body.values(sphere_directions(body, 20000)).min() > ridge * (1.0 + 1e-4)
        assert mu == pytest.approx(ridge, rel=1e-10)

    @pytest.mark.parametrize("name, limit", [("quartic-axial-2d", 20), ("lp-1.5", 20),
                                             ("square-max", 20), ("l1-l2-mix", 20),
                                             ("quartic-axial-3d", 40)])
    def test_stays_batched(self, monkeypatch, name, limit):
        # one roundness: the dense sample plus one call per search round
        norm = catalog.builtin_norm(name)
        metrics = [own_metric(norm), random_metric(norm.dim, seed=4)]
        calls = count_values_calls(monkeypatch)
        for g in metrics:
            calls.clear()
            roundness(norm, g)
            assert len(calls) <= limit


def _polygon_facets(vertices):
    """Outward facet normals and offsets of a polygon with counter-clockwise
    ``vertices``: {x : normals x <= offsets}."""
    v = np.asarray(vertices, dtype=float)
    edges = np.roll(v, -1, axis=0) - v
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    return normals, np.einsum("ij,ij->i", normals, v)


_CUBE = np.array(list(itertools.product([1.0, -1.0], repeat=3)))
_AXES3 = np.vstack([np.eye(3), -np.eye(3)])
_HEXAGON = [[np.cos(a), np.sin(a)] for a in np.arange(6) * np.pi / 3.0]
_TRIANGLE = [[2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]]
_SHEAR3 = np.array([[1.0, 0.4, 0.1], [0.0, 1.0, 0.3], [0.2, 0.0, 1.0]])


def gauge_extremes(vertices, normals, offsets, g):
    """min and max of F(x) / |x|_g for the gauge F of {x : normals x <= offsets}
    = conv(vertices): 1 / the g-farthest vertex, and the g-nearest facet."""
    far = np.sqrt(np.einsum("ki,ij,kj->k", vertices, g, vertices)).max()
    near = (np.sqrt(np.einsum("ki,ij,kj->k", normals, np.linalg.inv(g), normals)) / offsets).max()
    return 1.0 / far, near


def quadric_extremes(G, g):
    """min and max of sqrt(x^T G x) / |x|_g: the extreme generalized eigenvalues."""
    from scipy.linalg import eigh

    lam = eigh(G, g, eigvals_only=True)
    return np.sqrt(lam[0]), np.sqrt(lam[-1])


def _closed_forms():
    # (norm, its extremes against a metric g as a function of g)
    square = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
    tilt = np.array([[2.0, 0.3], [0.3, 1.0]])
    cases = {
        "square": (PolytopeGauge(square), lambda g: gauge_extremes(
            np.array(square), *_polygon_facets(square), g)),
        "hexagon": (PolytopeGauge(_HEXAGON), lambda g: gauge_extremes(
            np.array(_HEXAGON), *_polygon_facets(_HEXAGON), g)),
        "asymmetric-triangle": (PolytopeGauge(_TRIANGLE), lambda g: gauge_extremes(
            np.array(_TRIANGLE), *_polygon_facets(_TRIANGLE), g)),
        # the body of cube o A is A^-1 cube, with facets (A^T e) . x <= 1
        "sheared-cube": (LinearImage(_SHEAR3, PolytopeGauge(_CUBE)), lambda g: gauge_extremes(
            np.linalg.solve(_SHEAR3, _CUBE.T).T, _AXES3 @ _SHEAR3, np.ones(6), g)),
        "tilted-ellipse": (Euclidean(tilt), lambda g: quadric_extremes(tilt, g)),
    }
    for n in (2, 3):
        axes = np.vstack([np.eye(n), -np.eye(n)])
        corners = np.array(list(itertools.product([1.0, -1.0], repeat=n)))
        cases[f"l1-{n}d"] = (LpNorm(1, n), lambda g, a=axes, c=corners: gauge_extremes(
            a, c, np.ones(len(c)), g))
        cases[f"l2-{n}d"] = (LpNorm(2, n), lambda g, n=n: quadric_extremes(np.eye(n), g))
        cases[f"linf-{n}d"] = (LpNorm(np.inf, n), lambda g, a=axes, c=corners: gauge_extremes(
            c, a, np.ones(len(a)), g))
    return cases


_CLOSED_FORMS = _closed_forms()
# the catalog norms with a closed form: polytope gauges, their images, euclidean
_EXACT_CATALOG = ["euclidean-2d", "euclidean-3d", "anisotropic-euclidean", "square-max",
                  "diamond-l1", "hexagon", "asymmetric-triangle", "sheared-square"]


def _search_only(monkeypatch):
    """Take every family's closed form away, so ``roundness`` searches."""
    for family in (Euclidean, LpNorm, PolytopeGauge, LinearImage):
        monkeypatch.setattr(family, "_exact_roundness", MinkowskiNorm._exact_roundness)


class TestExactRoundness:
    @pytest.mark.parametrize("metric", ["own", "random"])
    @pytest.mark.parametrize("name", sorted(_CLOSED_FORMS))
    def test_against_closed_form(self, name, metric):
        norm, extremes = _CLOSED_FORMS[name]
        g = own_metric(norm) if metric == "own" else random_metric(norm.dim, seed=4)
        np.testing.assert_allclose(roundness(norm, g), extremes(g), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", _EXACT_CATALOG)
    def test_matches_the_search(self, monkeypatch, name):
        norm = catalog.builtin_norm(name)
        g = own_metric(norm)
        exact = roundness(norm, g)
        _search_only(monkeypatch)
        np.testing.assert_allclose(exact, roundness(norm, g), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", _EXACT_CATALOG + ["l1-2d", "l2-3d", "linf-3d"])
    def test_evaluates_no_norm(self, monkeypatch, name):
        norm = (_CLOSED_FORMS[name][0] if name in _CLOSED_FORMS
                else catalog.builtin_norm(name))
        metrics = [own_metric(norm), random_metric(norm.dim, seed=4)]
        calls = count_values_calls(monkeypatch)
        for g in metrics:
            roundness(norm, g)
        assert calls == []

    def test_overflowing_closed_form_is_a_numerical_failure(self):
        # |A^T n| of the facets of 1e200 * square overflows, with no warning
        with pytest.raises(NumericalFailure, match="roundness is not finite"):
            roundness(rescale(SQUARE, 1e200), np.eye(2))

    @pytest.mark.parametrize("norm", [LpNorm(1.5, 2), LpNorm(4, 3), QuarticAxial(2),
                                      WeightedSum(0.5, 0.5, SQUARE, Euclidean(np.eye(2)))],
                             ids=repr)
    def test_no_closed_form(self, norm):
        assert norm._exact_roundness(np.eye(norm.dim), np.eye(norm.dim)) is None


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
        np.testing.assert_allclose(fingerprint_point(own(Euclidean(np.eye(2)))),
                                   [np.pi, np.pi, 1.0, 1.0], rtol=1e-8)

    def test_square(self):
        target = [3.0, 2.0 * np.sqrt(3.0), np.sqrt(2.0 / 3.0), 2.0 / np.sqrt(3.0)]
        np.testing.assert_allclose(fingerprint_point(own(SQUARE)), target, atol=1e-4)

    def test_conformal_invariance(self):
        rng = np.random.default_rng(3)
        fp = fingerprint_point(own(SQUARE))
        for kappa in rng.uniform(0.2, 5.0, 3):
            fp_k = fingerprint_point(own(rescale(SQUARE, float(kappa))))
            np.testing.assert_allclose(fp_k, fp, rtol=1e-6)

    def test_linear_invariance(self):
        a = np.array([[1.2, 0.3], [-0.4, 0.8]])
        fp = fingerprint_point(own(catalog.builtin_norm("hexagon")))
        fp_a = fingerprint_point(own(LinearImage(a, catalog.builtin_norm("hexagon"))))
        np.testing.assert_allclose(fp_a, fp, rtol=1e-5)


class TestCompare:
    def test_identical_clouds(self):
        cloud = np.array([fingerprint_point(own(SQUARE)),
                          fingerprint_point(own(Euclidean(np.eye(2))))])
        res = compare_fingerprints(cloud, cloud.copy())
        assert res.hausdorff == 0.0
        assert res.verdict == "cannot distinguish"

    def test_l1_vs_euclidean_fields(self):
        # the 1-norm has mu < M while the euclidean fingerprint has mu = M
        l1 = catalog.builtin_norm("diamond-l1")
        cloud_a = np.tile(fingerprint_point(own(l1)), (4, 1))
        cloud_b = np.tile(fingerprint_point(own(Euclidean(np.eye(2)))), (4, 1))
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
