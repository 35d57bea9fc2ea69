import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blgeom import (ConstructionError, Euclidean, InputError, LinearImage,
                    LpNorm, NumericalFailure, PolytopeGauge, QuarticAxial,
                    WeightedSum, rescale, validate)
from blgeom.manifold import FinslerStructure, constant_structure
from blgeom.norms import as_real, as_reals, sphere_grid
from counting import count_values_calls
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
        # (a zero covector has no support value, so that half drops the zero row)
        x = np.array([[0.6, -0.8], [0.0, 0.0], [-1.0, 1.0]])
        norm = LpNorm(400, 2)
        q = 400 / 399
        for got, want in ((norm.values(scale * x), [0.8, 0.0, 2.0 ** (1 / 400)]),
                          (norm.support(scale * x[[0, 2]]),
                           [(0.6 ** q + 0.8 ** q) ** (1 / q), 2.0 ** (1 / q)])):
            np.testing.assert_allclose(got / scale, want, rtol=1e-14)
        assert norm.support(scale * x[2]) == pytest.approx(scale * 2.0 ** (1 / q), rel=1e-14)

    def test_square_boundary_point(self):
        # ray-edge intersection puts (0.5, 1) on the max-norm unit sphere
        assert PolytopeGauge(SQUARE)([0.5, 1.0]) == pytest.approx(1.0, abs=1e-14)

    def test_huge_entries_pass_the_zero_test(self):
        # the l^p kernel scales each row by its largest entry, so no entry
        # is squared and nothing overflows
        norm = LpNorm(400, 2)
        assert norm.values([[1e300, 1e300]])[0] == pytest.approx(1e300 * 2.0 ** (1 / 400))
        assert norm.support([1e300, 1e300]) == pytest.approx(1e300 * 2.0 ** (399 / 400))

    def test_tiny_vectors_scale_exactly(self):
        # F(2^-140 x) = 2^-140 F(x) bit for bit: no vector but 0 is read as
        # the zero vector, however small its entries (here ~1e-42)
        rng = np.random.default_rng(4)
        for base in family_zoo():
            a = rng.standard_normal((base.dim, base.dim)) + 2.0 * np.eye(base.dim)
            pts = rng.standard_normal((50, base.dim))
            for norm in (base, LinearImage(a, base)):
                np.testing.assert_array_equal(norm.values(np.ldexp(pts, -140)),
                                              np.ldexp(norm.values(pts), -140))

    def test_zero_maps_to_zero(self):
        for norm in family_zoo():
            assert norm(np.zeros(norm.dim)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            Euclidean(np.eye(2))([1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            LpNorm(2, 2)([np.nan, 0.0])

    def test_complex_rejected(self):
        # rejected, not cast to the real part
        with pytest.raises(InputError, match="complex"):
            LpNorm(2, 2).values(np.array([3 + 4j, 0.0]))
        with pytest.raises(InputError, match="complex"):
            LpNorm(2, 2).support(np.array([3 + 4j, 0.0]))

    def test_non_finite_covector_rejected(self):
        # rejected like a non-finite point, never a NaN support value
        for norm, theta in ((LpNorm(2, 2), [np.nan, 0.0]), (QuarticAxial(2), [np.nan, 1.0]),
                            (LpNorm(2, 2), [np.inf, 0.0])):
            with pytest.raises(InputError, match="covector contains non-finite components"):
                norm.support(theta)

    def test_overflowing_value_rejected(self):
        # F itself overflows: a NumericalFailure, never inf or NaN
        with pytest.raises(NumericalFailure, match="not finite"):
            Euclidean(np.eye(2)).values([1e200, 0.0])
        inner = LinearImage(1e200 * np.eye(2), LpNorm(2, 2))
        with pytest.raises(NumericalFailure, match="not finite"):
            WeightedSum(1.0, 1.0, inner, LpNorm(1, 2)).values([1e200, 0.0])

    def test_composite_is_one_values_call(self, monkeypatch):
        # composites evaluate their inner norms through the private kernels
        calls = count_values_calls(monkeypatch)
        inner = WeightedSum(0.4, 0.6, LpNorm(1, 2), LinearImage(3.0 * np.eye(2), QuarticAxial(2)))
        LinearImage([[1.0, 0.5], [0.0, 2.0]], inner).values(np.ones((7, 2)))
        assert calls == [7]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lp_candidates_are_axes_and_every_cube_corner(self, n):
        cand = LpNorm(1, n).extremal_candidates()
        assert cand.shape == (2 * n + 2 ** n, n)
        np.testing.assert_array_equal(cand[:2 * n], np.vstack([np.eye(n), -np.eye(n)]))
        corners = cand[2 * n:]
        np.testing.assert_allclose(np.linalg.norm(corners, axis=1), 1.0, rtol=1e-15)
        signs = {tuple(row) for row in np.sign(corners)}
        assert len(signs) == 2 ** n and all(0.0 not in row for row in signs)


_L2 = LpNorm(2, 2)


class TestReader:
    """Every number from outside is read by one rule: a bool, a string, a
    ragged list or an integer past the float range is an InputError."""

    @pytest.mark.parametrize("call", [
        lambda: _L2.values([[1, 0], [1, 0, 0]]),
        lambda: _L2.support([[1, 0], [1, 0, 0]]),
        lambda: _L2.support(["a", "b"]),
        lambda: _L2.values(["1", "2"]),
        lambda: _L2.values(np.array(["1", "2"])),
        lambda: _L2.values([True, False]),
        lambda: _L2.values(np.array([True, False])),
        lambda: LpNorm(True, 2),
        lambda: LpNorm("2", 2),
        lambda: LpNorm([2, 3], 2),
        lambda: WeightedSum("0.5", 0.5, _L2, _L2),
        lambda: Euclidean([[True, 0], [0, 1]]),
        lambda: Euclidean([[1, 0], [0]]),
        lambda: Euclidean(np.zeros((0, 0))),
        lambda: FinslerStructure(["-1", "-1"], [1, 1], constant_structure(_L2).peel),
    ], ids=["ragged-values", "ragged-support", "string-support", "string-values",
            "string-array-values", "bool-values", "bool-array-values", "bool-p",
            "string-p", "list-p", "string-weight", "bool-matrix", "ragged-matrix",
            "empty-matrix", "string-chart-bound"])
    def test_non_numbers_rejected(self, call):
        with pytest.raises(InputError):
            call()

    def test_huge_integer_is_not_finite(self):
        with pytest.raises(InputError, match="must be finite.*too large"):
            as_reals([1, 10 ** 400], "entry")

    def test_numbers_of_any_kind_read(self):
        assert as_real(np.int64(3), "p") == 3.0
        np.testing.assert_array_equal(as_reals(((1, 2), [3, np.float32(4)]), "m"),
                                      [[1.0, 2.0], [3.0, 4.0]])
        assert _L2.values(np.array([3, 4], dtype=object)) == 5.0


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
        norm = LinearImage(np.diag([2.0, 1.0]), Euclidean(np.eye(2)))
        assert norm([1.0, 0.0]) == pytest.approx(2.0)

    def test_identity_is_noop(self):
        rng = np.random.default_rng(0)
        base = PolytopeGauge(hexagon())
        img = LinearImage(np.eye(2), base)
        pts = rng.standard_normal((50, 2))
        np.testing.assert_allclose(img.values(pts), base.values(pts), rtol=1e-15)

    def test_image_matches_transformed_polytope(self):
        # F(A xi) equals the gauge of the polytope with vertices A^-1 v
        ang = np.pi / 4.0
        a = np.sqrt(2.0) * np.array([[np.cos(ang), -np.sin(ang)],
                                     [np.sin(ang), np.cos(ang)]])
        img = LinearImage(a, PolytopeGauge(SQUARE))
        direct = PolytopeGauge(np.asarray(SQUARE) @ np.linalg.inv(a).T)
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((100, 2)) * 3.0
        np.testing.assert_allclose(img.values(pts), direct.values(pts), rtol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        a = np.array([[1.3, 0.4], [-0.2, 0.9]])
        for base in (LpNorm(1.5, 2), PolytopeGauge(SQUARE)):
            twice = LinearImage(np.linalg.inv(a), LinearImage(a, base))
            pts = rng.standard_normal((100, 2))
            np.testing.assert_allclose(twice.values(pts), base.values(pts),
                                       rtol=1e-9)

    def test_zero_only_at_an_inner_layer(self):
        # A xi = 1e-320 is subnormal, not zero, so F is positive
        norm = LinearImage(1e-300 * np.eye(2), LpNorm(2, 2))
        assert norm.values([1e-20, 0.0]) > 0.0

    def test_singular_matrix_rejected(self):
        with pytest.raises(InputError):
            LinearImage([[1.0, 1.0], [1.0, 1.0]], Euclidean(np.eye(2)))


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
        u = sphere_grid(3, 2_000_000)
        brute = ((u @ theta) / qn.values(u)).max()
        got = qn.support(theta)
        assert brute <= got <= brute * (1.0 + 5e-6)

    def test_generic_refinement_stays_batched(self, monkeypatch):
        # the boundary cloud plus one call per search round
        calls = count_values_calls(monkeypatch)
        QuarticAxial(3).support(np.array([0.2, -0.5, 0.8]))
        assert len(calls) <= 20

    def test_generic_refinement_on_a_kink_ridge(self):
        # h(theta) of 0.3 |.|_1 + 0.7 |.|_G: the maximizer has one zero
        # coordinate, and the reference comes from a dense scan of that plane
        norm = WeightedSum(0.3, 0.7, LpNorm(1, 3), Euclidean(np.diag([1.0, 2.0, 3.0])))
        theta = np.array([1.0, 1.0, -0.3])
        phi = np.linspace(0.0, 2.0 * np.pi, 2_000_000, endpoint=False)
        plane = np.column_stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
        ridge = ((plane @ theta) / norm.values(plane)).max()
        assert norm.support(theta) == pytest.approx(ridge, rel=1e-10)

    def test_zero_direction_rejected(self):
        with pytest.raises(InputError):
            Euclidean(np.eye(2)).support([0.0, 0.0])

    @pytest.mark.parametrize("norm", family_zoo() + [
        LinearImage([[1.0, 0.5], [-0.3, 2.0]], QuarticAxial(2))], ids=repr)
    def test_batch_matches_rows(self, norm):
        # one batch gives every row's own support value
        thetas = np.random.default_rng(3).standard_normal((9, norm.dim))
        batch = norm.support(thetas)
        assert batch.shape == (9,)
        rows = [norm.support(theta) for theta in thetas]
        np.testing.assert_allclose(batch, rows, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("norm, thetas, message", [
        (LpNorm(2, 2), [[np.nan, 0.0]], "covector contains non-finite"),
        (QuarticAxial(2), [[np.inf, 0.0]], "covector contains non-finite"),
        (LpNorm(2, 2), [[1.0, 0.0, 0.0]], "dimension mismatch"),
        (QuarticAxial(2), np.array([[1.0 + 1.0j, 0.0]]), "complex"),
        (LpNorm(2, 2), [[1.0, 0.0], [0.0, 0.0]], "support direction must be nonzero"),
        (QuarticAxial(2), [[0.0, 0.0], [1.0, 0.0]], "support direction must be nonzero"),
    ], ids=["nan", "inf", "wrong-dimension", "complex", "zero-last", "zero-first"])
    def test_bad_batch_rejected(self, norm, thetas, message):
        # a batch is checked as a single covector is, never a NaN or a guess
        with pytest.raises(InputError, match=message):
            norm.support(thetas)

    def test_batch_refinement_is_one_search(self, monkeypatch):
        # the boundary cloud plus one call per round of a single search
        calls = count_values_calls(monkeypatch)
        QuarticAxial(3).support(np.random.default_rng(4).standard_normal((8, 3)))
        assert len(calls) <= 20

    def test_tiny_direction_does_not_underflow(self):
        # the 2-norm of this covector underflows to 0, its support must not
        G = np.array([[2.0, 0.5], [0.5, 1.0]])
        theta = np.array([1.0, -3.0])
        for norm in (Euclidean(G), LinearImage(np.diag([2.0, 0.5]), Euclidean(G))):
            expected = 1e-200 * norm.support(theta)
            assert norm.support(1e-200 * theta) == pytest.approx(expected, rel=1e-14, abs=0.0)

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
