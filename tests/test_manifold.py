import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as quad1d
from scipy.interpolate import BSpline, RectBivariateSpline, RegularGridInterpolator
from scipy.sparse.linalg import spsolve

from blgeom import (Euclidean, InputError, LinearImage, LpNorm, MetricField, NumericalFailure,
                    PolytopeGauge, QuarticAxial, TransportAccuracyError, WeightedSum,
                    berwald_defect, bl_field, bl_metric, conformal_factor,
                    conformal_rescale, constant_structure, default_loops,
                    default_probes, fingerprint_cloud, fingerprint_point,
                    holonomy_angle, is_locally_minkowski,
                    l1_l2_interpolation, parallel_transport, rectangle_loop,
                    rigid_motion, rotor_structure, smoothstep, square_gauge,
                    structure_from_spec, validate)
from blgeom import catalog, invariants, manifold, specio
from counting import count_values_calls
from oracles import conformal_christoffel


def sin_factor(x):
    return 1.0 + 0.3 * np.sin(x[0])


@pytest.fixture(scope="module")
def interp_field():
    return bl_field(l1_l2_interpolation(), shape=(49, 17))


# the benchmark's perfbench/specs/structure-3d-conformal-euclidean.json
CONFORMAL_3D = {
    "chart": {"lo": [-1.5, -1.5, -1.5], "hi": [1.5, 1.5, 1.5]},
    "field": {"family": "conformal-rescale",
              "base": {"family": "constant",
                       "norm": {"family": "euclidean", "matrix": np.eye(3).tolist()}},
              "factor": {"kind": "one-plus-sin", "amp": 0.3, "freq": 2.0, "axis": 0}}}


def _stepwise_rk4(field, path, frame, h_target):
    """Vertex frames and step count of classical RK4 advanced one step at a
    time, with one christoffel call per stage: the reference transport."""
    xi, frames, total = frame.copy(), [frame.copy()], 0
    for a, b in zip(path[:-1], path[1:]):
        seg = b - a
        steps = max(4, int(np.ceil(np.linalg.norm(seg) / h_target)))
        dt = 1.0 / steps

        def rhs(t, mat):
            return -np.einsum("kij,i,jm->km", field.christoffel(a + t * seg), seg, mat)

        for s in range(steps):
            t = s * dt
            k1 = rhs(t, xi)
            k2 = rhs(t + 0.5 * dt, xi + 0.5 * dt * k1)
            k3 = rhs(t + 0.5 * dt, xi + 0.5 * dt * k2)
            k4 = rhs(t + dt, xi + dt * k3)
            xi = xi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        total += steps
        frames.append(xi)
    return np.array(frames), total


class TestStructures:
    def test_smoothstep_endpoints(self):
        t = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        f = smoothstep(t)
        assert f[0] == 0.0 and f[1] == 0.0
        assert f[3] == 1.0 and f[4] == 1.0
        assert 0.0 < f[2] < 1.0

    def test_interpolation_endpoint_norms(self):
        st = l1_l2_interpolation()
        assert st.norm_at([-0.5, 0.0])([1.0, 1.0]) == pytest.approx(2.0)
        assert st.norm_at([1.5, 0.0])([1.0, 1.0]) == pytest.approx(np.sqrt(2.0))

    def test_norm_oracle_validates_everywhere(self):
        for name in catalog.BUILTIN_STRUCTURES:
            st = catalog.builtin_structure(name)
            rng = np.random.default_rng(0)
            for _ in range(3):
                x = rng.uniform(st.chart_lo, st.chart_hi)
                assert validate(st.norm_at(x), 200).ok, (name, x)

    def test_degenerate_chart_rejected(self):
        with pytest.raises(InputError):
            constant_structure(square_gauge(), lo=(0.0, 0.0), hi=(0.0, 1.0))


class TestScalarFields:
    @pytest.mark.parametrize("build", [
        rotor_structure,
        lambda f: conformal_rescale(constant_structure(Euclidean(np.eye(2))), f)],
        ids=["rotor", "conformal"])
    def test_user_field_called_once_per_peel(self, build):
        shapes = []

        def field(x):
            shapes.append(np.shape(x))
            return 1.0 + 0.1 * x[0] ** 2

        bl_field(build(field), shape=(9, 7))
        assert shapes == [(2, 63)]

    @pytest.mark.parametrize("spec", [
        {"kind": "constant", "value": 0.4},
        {"kind": "one-plus-sin", "amp": 0.3, "freq": 1.7, "phase": 0.2, "axis": 2},
        {"kind": "linear", "slope": 0.8, "offset": 0.1, "axis": 1},
        {"kind": "exp-linear", "rate": -1.3, "axis": 2}], ids=lambda spec: spec["kind"])
    def test_named_kind_on_arrays_matches_points(self, spec):
        field = specio.scalar_field_from_spec(spec, 3, "f")
        pts = np.random.default_rng(3).uniform(-2.0, 2.0, (200, 3))
        per_point = np.array([field(x) for x in pts], dtype=float)
        on_array = np.broadcast_to(np.asarray(field(pts.T), dtype=float), (200,))
        assert on_array.tobytes() == per_point.tobytes()


class TestField:
    def test_constant_field_values(self):
        field = bl_field(constant_structure(square_gauge()), shape=(9, 9))
        np.testing.assert_allclose(field.values[..., 0, 0], 0.75, atol=1e-10)
        np.testing.assert_allclose(field.at([0.21, -0.37]),
                                   0.75 * np.eye(2), atol=1e-10)

    def test_interpolation_field_endpoint_values(self, interp_field):
        # pure 1-norm region carries 1.5 I, pure 2-norm region the identity
        np.testing.assert_allclose(interp_field.values[0, 0],
                                   1.5 * np.eye(2), atol=1e-9)
        np.testing.assert_allclose(interp_field.values[-1, 0],
                                   np.eye(2), atol=1e-9)

    def test_interpolation_field_is_isotropic(self, interp_field):
        # axis reflections and the coordinate swap force a multiple of I
        assert np.abs(interp_field.values[..., 0, 1]).max() < 1e-6
        aniso = np.abs(interp_field.values[..., 0, 0]
                       - interp_field.values[..., 1, 1])
        assert aniso.max() < 1e-6

    def test_interpolation_field_continuity(self, interp_field):
        h = float(interp_field.spacing.max())
        assert interp_field.neighbor_variation() < 2.5 * h

    def test_conformal_field_law(self):
        base = constant_structure(square_gauge())
        scaled = conformal_rescale(base, sin_factor)
        fa = bl_field(scaled, shape=(9, 9))
        fb = bl_field(base, shape=(9, 9))
        same = conformal_factor(fb, fb)
        assert same.residual == 0.0
        np.testing.assert_allclose(same.factor, 1.0, atol=1e-12)
        res = conformal_factor(fa, fb)
        assert res.conformal and res.residual < 1e-6
        xs = fa.axes[0]
        np.testing.assert_allclose(res.factor[:, 0], 1.0 + 0.3 * np.sin(xs),
                                   atol=1e-5)

    def test_interpolation_vs_constant_l1_is_conformal(self, interp_field):
        # both fields are multiples of the identity, so they ARE conformal;
        # the recovered factor interpolates from 1 down to sqrt(1/1.5)
        const_l1 = constant_structure(catalog.builtin_norm("diamond-l1"),
                                      lo=(-1.0, -1.0), hi=(2.0, 1.0))
        fb = bl_field(const_l1, shape=(49, 17))
        res = conformal_factor(interp_field, fb)
        assert res.conformal and res.residual < 1e-6
        assert res.factor[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert res.factor[-1, 0] == pytest.approx(np.sqrt(1.0 / 1.5), abs=1e-9)

    def test_conformal_negative_case(self):
        # rotating square field is isotropic, the stretched norm is not
        rot = bl_field(rotor_structure(specio.scalar_field_from_spec(
            {"kind": "linear", "slope": 0.8}, 2, "psi")), shape=(9, 9))
        aniso = bl_field(constant_structure(Euclidean(np.diag([1.0, 4.0]))),
                         shape=(9, 9))
        res = conformal_factor(rot, aniso)
        assert not res.conformal and res.residual > 0.1

    @pytest.mark.parametrize("kappa", [1e200, 1e-200])
    def test_conformal_factor_at_any_float_scale(self, kappa):
        # lambda comes from log-determinants and the residual from norms
        # scaled by a power of two: det(1e200 G) itself overflows
        fb = bl_field(constant_structure(square_gauge()), shape=(9, 9))
        res = conformal_factor(MetricField(fb.axes, kappa * fb.values), fb)
        np.testing.assert_allclose(res.factor, np.sqrt(kappa), rtol=1e-12)
        assert res.conformal and res.residual < 1e-12

    def test_lattice_mismatch_rejected(self):
        fa = bl_field(constant_structure(square_gauge()), shape=(9, 9))
        fb = bl_field(constant_structure(square_gauge()), shape=(11, 9))
        with pytest.raises(InputError):
            conformal_factor(fa, fb)


def _assembly_cases():
    cases = {name: catalog.builtin_structure(name)
             for name in catalog.BUILTIN_STRUCTURES}
    angle = np.pi / 7.0
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    cases["moved-rotor"] = rigid_motion(catalog.builtin_structure("rotor-linear"),
                                        rot, [0.3, -0.2])
    # three nested linear maps that do not commute, over an anisotropic base
    sheared_rotor = rotor_structure(
        specio.scalar_field_from_spec({"kind": "linear", "slope": 0.8}, 2, "psi"),
        base=catalog.builtin_norm("sheared-square"))
    cases["moved-sheared-rotor"] = rigid_motion(sheared_rotor, rot, [0.3, -0.2])
    cube = ((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    cases["3d-quartic"] = constant_structure(QuarticAxial(3), *cube)
    cases["3d-conformal"] = conformal_rescale(
        constant_structure(Euclidean(np.eye(3)), *cube),
        lambda x: 1.0 + 0.3 * np.sin(2.0 * x[0]))
    return cases


ASSEMBLY_CASES = _assembly_cases()
# the benchmark's two 3D specs, checked at its 9^3 lattice
BENCHMARK_3D = {"3d-quartic-axial": ASSEMBLY_CASES["3d-quartic"],
                "3d-conformal-euclidean": structure_from_spec(CONFORMAL_3D)}

FAILING_CASES = {
    # the linear factor x1 is not positive on the left half of the chart
    "factor-crosses-zero": (
        conformal_rescale(constant_structure(Euclidean(np.eye(2))),
                          specio.scalar_field_from_spec(
                              {"kind": "linear", "slope": 1.0}, 2, "factor")), "factor"),
    "ill-conditioned": (
        constant_structure(LinearImage(np.diag([1.0, 1e-7]), square_gauge())),
        "ill-conditioned"),
    # each map is invertible in floating point, their product overflows
    "overflowing-chain": (
        constant_structure(LinearImage(1e100 * np.eye(2),
                                       LinearImage(1e100 * np.eye(2), square_gauge()))),
        "not finite"),
}


class TestFieldAssembly:
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_CASES))
    def test_matches_direct_solve_per_node(self, name):
        # reference: the metric of each node's own norm with its own quadrature
        st = ASSEMBLY_CASES[name]
        field = bl_field(st)
        mesh = np.meshgrid(*field.axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        values = field.values.reshape(len(pts), st.dim, st.dim)
        rng = np.random.default_rng(7)
        for k in rng.choice(len(pts), size=24, replace=False):
            norm = st.norm_at(pts[k])
            want = bl_metric(norm, 0).metric
            err = np.linalg.norm(values[k] - want) / np.linalg.norm(want)
            assert err <= 1e-10, (name, pts[k], err)

    @pytest.mark.parametrize("name", sorted(FAILING_CASES))
    def test_failure_names_node(self, name):
        st, problem = FAILING_CASES[name]
        with pytest.raises(NumericalFailure, match=rf"failed at node \[.*{problem}"):
            bl_field(st, shape=(9, 9))

    def test_failed_base_solve_names_node(self):
        # the base is F ~ 1e200 |x|, whose metric lies past the float range
        st = constant_structure(WeightedSum(1e200, 1e200, LpNorm(1, 2), LpNorm(2, 2)))
        problem = r"failed at node \[-1\. -1\.\]: moment matrix is not finite"
        with pytest.raises(NumericalFailure, match=problem):
            bl_field(st, shape=(9, 9))

    def test_singular_map_names_node(self):
        # A^T g A is only semidefinite at the one node whose map is singular
        base = Euclidean(np.eye(2))

        def peel(X):
            maps = np.tile(np.eye(2), (len(X), 1, 1))
            maps[len(X) // 2] = [[1.0, 1.0], [1.0, 1.0]]
            return maps, [base], np.zeros(len(X), dtype=int)

        st = manifold.FinslerStructure([-1.0, -1.0], [1.0, 1.0], peel)
        problem = r"failed at node \[0\. 0\.\]: metric tensor is not positive definite"
        with pytest.raises(NumericalFailure, match=problem):
            bl_field(st, shape=(9, 9))


class TestPeel:
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_CASES))
    def test_batch_matches_norm_at(self, name):
        # each row of one batched peel against the one-point oracle norm_at
        st = ASSEMBLY_CASES[name]
        rng = np.random.default_rng(11)
        pts = rng.uniform(st.chart_lo, st.chart_hi, (40, st.dim))
        vecs = rng.standard_normal((16, st.dim))
        maps, bases, index = st.peel(pts)
        assert maps.shape == (40, st.dim, st.dim) and index.shape == (40,)
        for x, A, b in zip(pts, maps, index):
            norm = st.norm_at(x)
            want = norm.matrix if isinstance(norm, LinearImage) else np.eye(st.dim)
            np.testing.assert_allclose(A, want, rtol=0, atol=1e-14)
            f = norm.values(vecs)
            np.testing.assert_allclose(bases[b].values(vecs @ A.T), f, rtol=1e-13, atol=0)

    def test_interpolation_bases_keyed_by_weight(self, monkeypatch):
        # 33 columns: 11 interior weights plus the pure l1 and l2 norms
        calls = []

        def counting(norm, level):
            calls.append(norm)
            return bl_metric(norm, level)

        monkeypatch.setattr(manifold, "bl_metric", counting)
        bl_field(catalog.builtin_structure("l1-l2-interpolation"), shape=(33, 33))
        assert len(calls) == 13

    def test_fingerprint_cloud_solves_each_base_once(self, monkeypatch):
        calls = []

        def counting(norm, level):
            calls.append(norm)
            return bl_metric(norm, level)

        monkeypatch.setattr(manifold, "bl_metric", counting)
        monkeypatch.setattr(invariants, "bl_metric", counting)
        pts, cloud = fingerprint_cloud(catalog.builtin_structure("l1-l2-interpolation"))
        # one solve per distinct weight, none repeated inside fingerprint_point
        assert len(calls) == len(np.unique(smoothstep(pts[:, 0]))) == 4


def _interior_points(field, margin, count):
    rng = np.random.default_rng(3)
    return rng.uniform(field.lo + margin * field.spacing,
                       field.hi - margin * field.spacing, (count, field.dim))


def _jet_tensors(field, pts):
    """G and d_k G[..., k, i, j] at pts from the field's one-spline jet."""
    jet = field._jet(pts)[..., manifold._pairs(field.dim)[2]]
    return jet[..., 0, :, :], jet[..., 1:, :, :]


class TestInterpolant:
    # references: RectBivariateSpline(s=0) and cubic RegularGridInterpolator
    # build the same not-a-knot spline as the field's NdBSpline
    def test_matches_rect_bivariate_spline_2d(self):
        field = bl_field(ASSEMBLY_CASES["moved-sheared-rotor"])
        pts = _interior_points(field, 0.0, 200)
        g, jac = _jet_tensors(field, pts)
        got = {"": field.at(pts), "jet": g, "dx": jac[:, 0], "dy": jac[:, 1]}
        for kind, values in got.items():
            want = np.empty_like(values)
            for i in range(2):
                for j in range(2):
                    sp = RectBivariateSpline(*field.axes, field.values[:, :, i, j],
                                             kx=3, ky=3, s=0)
                    kw = {kind: 1} if kind.startswith("d") else {}
                    want[:, i, j] = sp.ev(pts[:, 0], pts[:, 1], **kw)
            assert np.abs(values - want).max() <= 1e-12 * np.abs(want).max(), kind

    def test_matches_cubic_grid_interpolator_3d(self):
        field = bl_field(ASSEMBLY_CASES["3d-conformal"])
        pts = _interior_points(field, 0.0, 200)
        # a direct solve; the default iterative one (gcrotmk) stops near 1e-7
        rgi = RegularGridInterpolator(tuple(field.axes), field.values, method="cubic",
                                      solver=spsolve)
        want = rgi(pts)
        assert np.abs(field.at(pts) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["moved-sheared-rotor", "3d-conformal"])
    def test_batched_calls_match_single_points(self, name):
        field = bl_field(ASSEMBLY_CASES[name])
        pts = _interior_points(field, 3.0, 12)
        for method in (field.at, field.christoffel, field.riemann):
            batch = method(pts.reshape(3, 4, field.dim))
            single = np.array([method(x) for x in pts])
            assert batch.shape == (3, 4) + single.shape[1:]
            scale = np.abs(single).max()
            np.testing.assert_allclose(batch.reshape(single.shape), single,
                                       rtol=0, atol=1e-12 * scale)

    def test_outside_lattice_rejected(self, interp_field):
        with pytest.raises(InputError, match="outside"):
            interp_field.at([[0.5, 0.0], [2.5, 0.0]])

    def test_inside_slack_scales_with_the_lattice(self):
        # on [0, 2^-60]^2, -1e-13 is about 1e5 chart widths outside; a fixed
        # slack of 1e-12 would extrapolate there to an indefinite tensor
        width = 2.0 ** -60
        axes = [np.linspace(0.0, width, 33)] * 2
        field = MetricField(axes, np.broadcast_to(np.eye(2), (33, 33, 2, 2)))
        np.testing.assert_array_equal(field.at([[0.0, 0.0], [width, width]]),
                                      [np.eye(2)] * 2)
        with pytest.raises(InputError, match="outside"):
            field.at([-1e-13, 0.0])

    def test_lattice_axis_must_increase(self):
        axes = [np.array([0.0, 1.0, 1.0, 2.0]), np.linspace(0.0, 1.0, 4)]
        with pytest.raises(InputError, match="lattice axis 0 are not strictly increasing"):
            MetricField(axes, np.broadcast_to(np.eye(2), (4, 4, 2, 2)))

    @pytest.mark.parametrize("method", ["at", "christoffel", "riemann"])
    def test_nan_point_rejected(self, interp_field, method):
        with pytest.raises(InputError, match=r"point \[nan +0\.\]"):
            getattr(interp_field, method)([[0.5, 0.0], [np.nan, 0.0]])

    @pytest.mark.parametrize("method", ["at", "christoffel", "riemann"])
    @pytest.mark.parametrize("x", [[0.1], [0.1, 0.2, 0.3], "ab"], ids=["short", "long", "text"])
    def test_point_of_wrong_length_or_kind_rejected(self, interp_field, method, x):
        # a 1-vector must not broadcast over the stencil of riemann
        with pytest.raises(InputError, match="point"):
            getattr(interp_field, method)(x)

    def test_positive_definite_check_locates_bad_node(self):
        axes = [np.linspace(0.0, 1.0, 9), np.linspace(0.0, 2.0, 7), np.linspace(1.0, 2.0, 5)]
        values = np.broadcast_to(np.eye(3), (9, 7, 5, 3, 3)).copy()
        values[6, 4, 1] = -np.eye(3)
        with pytest.raises(NumericalFailure, match="positive definiteness") as info:
            MetricField(axes, values).check_positive_definite()
        found = np.array(info.value.args[0].split("near [")[1].rstrip("]").split(), float)
        node = np.array([axes[0][6], axes[1][4], axes[2][1]])
        spacing = np.array([a[1] - a[0] for a in axes])
        assert np.all(np.abs(found - node) <= spacing), found

    def test_nan_field_fails_positive_definite_check(self):
        axes = [np.linspace(0.0, 1.0, 5)] * 2
        with pytest.raises(NumericalFailure, match="positive definiteness"):
            MetricField(axes, np.full((5, 5, 2, 2), np.nan)).check_positive_definite()

    @pytest.mark.parametrize("name, shape", [
        *[(name, (33, 33)) for name in sorted(catalog.BUILTIN_STRUCTURES)],
        ("3d-conformal", (9, 9, 9))])
    def test_coefficients_certify_definiteness(self, name, shape, monkeypatch):
        # the grid fallback needs the basis matrices; the certificate does not
        def no_grid(*args, **kwargs):
            raise AssertionError("grid check ran")

        monkeypatch.setattr(BSpline, "design_matrix", no_grid)
        st = ASSEMBLY_CASES[name]
        assert bl_field(st, shape=shape).values.shape == shape + (st.dim, st.dim)

    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_STRUCTURES) + sorted(BENCHMARK_3D))
    def test_jet_matches_spline_derivatives(self, name):
        # the refined spline holds G and every d_k G exactly; the scale of
        # d_k G is at least max |G| over a spacing, so near-constant fields
        # are held to their round-off and not to a relative error of noise
        st = {**ASSEMBLY_CASES, **BENCHMARK_3D}[name]
        field = bl_field(st)
        pts = _interior_points(field, 0.0, 400)
        g, jac = _jet_tensors(field, pts)
        scale = np.abs(field.values).max()
        assert np.abs(g - field._spline(pts)).max() <= 1e-12 * scale
        for k, nu in enumerate(np.eye(st.dim, dtype=int)):
            want = field._spline(pts, nu=nu)
            bound = 1e-12 * max(np.abs(want).max(), scale / field.spacing[k])
            assert np.abs(jac[:, k] - want).max() <= bound, k

    def test_grid_fallback_decides_past_the_certificate(self):
        # a bump of scale * I at the middle node of an identity field: its
        # spline coefficients are indefinite for both scales, yet the spline
        # is definite for 5 and not for 10, where it dips in the negative
        # lobe of the cubic cardinal spline, between one and two spacings out
        axes = [np.linspace(0.0, 1.0, 9)] * 2

        def bump(scale):
            values = np.broadcast_to(np.eye(2), (9, 9, 2, 2)).copy()
            values[4, 4] = scale * np.eye(2)
            field = MetricField(axes, values)
            assert np.linalg.eigvalsh(field._spline.c).min() < -2.0
            return field

        bump(5.0).check_positive_definite()
        with pytest.raises(NumericalFailure, match="positive definiteness") as info:
            bump(10.0).check_positive_definite()
        found = np.array(info.value.args[0].split("near [")[1].rstrip("]").split(), float)
        assert np.all(np.abs(found - 0.5) < 2.0 * (axes[0][1] - axes[0][0])), found


class TestChristoffel:
    def test_constant_field_zero(self):
        field = bl_field(constant_structure(square_gauge()), shape=(9, 9))
        assert np.abs(field.christoffel([0.1, 0.1])).max() < 1e-12

    def test_conformal_closed_form(self):
        # metric exp(2 x1) I; phi gradient (1, 0)
        st = conformal_rescale(
            constant_structure(Euclidean(np.eye(2)), lo=(-1, -1), hi=(1, 1)),
            lambda x: np.exp(x[0]))
        field = bl_field(st, shape=(33, 33))
        h = field.spacing.max()
        got = field.christoffel([0.2, -0.1])
        want = conformal_christoffel([1.0, 0.0])
        assert np.abs(got - want).max() < h ** 2

    def test_symmetry_in_lower_indices(self, interp_field):
        gam = interp_field.christoffel([0.5, 0.0])
        np.testing.assert_array_equal(gam, np.transpose(gam, (0, 2, 1)))

    def test_boundary_margin_enforced(self, interp_field):
        with pytest.raises(InputError):
            interp_field.christoffel([-0.99, 0.0])

    def test_riemann_of_conformal_field(self):
        # R^1_212 = -phi'' for exp(2 phi(x1)) I; here phi'' = -0.3 sin at 0...
        st = conformal_rescale(
            constant_structure(Euclidean(np.eye(2)), lo=(-1.5, -1.5), hi=(1.5, 1.5)),
            sin_factor)
        field = bl_field(st, shape=(41, 41))
        x = np.array([0.6, 0.0])
        s, c = np.sin(x[0]), np.cos(x[0])
        lam = 1.0 + 0.3 * s
        phipp = (-0.3 * s * lam - (0.3 * c) ** 2) / lam ** 2
        got = field.riemann(x)[0, 1, 0, 1]  # R^1_{2,1,2} component ordering l,k,i,j
        assert got == pytest.approx(-phipp, abs=5e-3)


# fields at their default lattices, and one whose spacing 11/150 is no binary
# fraction, so that neighbouring stencil points differ by rounding and are
# evaluated apart
STENCIL_CASES = {
    "conformal-euclidean": lambda: bl_field(catalog.builtin_structure("conformal-euclidean")),
    "l1-l2-interpolation": lambda: bl_field(l1_l2_interpolation()),  # spacings 3/32, 1/16
    "3d-conformal-euclidean": lambda: bl_field(BENCHMARK_3D["3d-conformal-euclidean"]),
    "spacing-11/150": lambda: bl_field(conformal_rescale(
        constant_structure(Euclidean(np.eye(2)), lo=(-1.0, -0.7), hi=(1.2, 1.5)), sin_factor),
        shape=(31, 31))}


def _interior_nodes(field):
    return np.stack(np.meshgrid(*[a[3:-3] for a in field.axes], indexing="ij"), axis=-1)


class TestCurvatureStencil:
    @pytest.mark.parametrize("name", sorted(STENCIL_CASES))
    def test_riemann_matches_reference_stencil(self, name):
        # the centre and its 2n neighbours at the smallest spacing, every
        # point evaluated on its own, then R^l_kij = d_i G^l_jk - d_j G^l_ik
        # + G^l_is G^s_jk - G^l_js G^s_ik
        field = STENCIL_CASES[name]()
        x = _interior_nodes(field).reshape(-1, field.dim)
        n, h = field.dim, field.spacing.min()
        gam = field.christoffel(x)
        up = np.stack([field.christoffel(x + h * e) for e in np.eye(n)], axis=1)
        down = np.stack([field.christoffel(x - h * e) for e in np.eye(n)], axis=1)
        d = (up - down) / (2.0 * h)                      # d[p, m, l, i, j] = d_m G^l_ij
        want = (np.einsum("pilkj->plkij", d) - np.einsum("pjlki->plkij", d)
                + np.einsum("plis,psjk->plkij", gam, gam)
                - np.einsum("pljs,psik->plkij", gam, gam))
        got = field.riemann(x)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name, points", [
        ("conformal-euclidean", 837), ("l1-l2-interpolation", 2241),
        ("3d-conformal-euclidean", 81)])
    def test_shared_stencil_points_evaluated_once(self, monkeypatch, name, points):
        # 33^2: the 27^2 interior nodes and their neighbours, 27 x 29 x 2 - 27^2
        # points of 3645; l1-l2's axis-0 neighbours fall between its nodes; 9^3:
        # the 3^3 interior cube and one layer on each face, 81 of 189
        field = STENCIL_CASES[name]()
        calls = []
        christoffel = MetricField.christoffel

        def counting(self, x):
            calls.append(np.shape(x))
            return christoffel(self, x)

        monkeypatch.setattr(MetricField, "christoffel", counting)
        field.riemann(_interior_nodes(field))
        assert calls == [(points, field.dim)]

    def test_nearby_points_stay_apart(self, interp_field):
        # a point 1e-9 spacings off a lattice node is not that node
        h = interp_field.spacing.min()
        x = np.array([[0.5, 0.25], [0.5 + 2.0 * h, 0.25 + 1e-9 * h]])
        first, groups = manifold._coincident(
            (x[:, None, :] + np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0]])).reshape(-1, 2))
        assert len(first) == 6 and len(set(groups)) == 6
        single = np.array([interp_field.riemann(p) for p in x])
        np.testing.assert_array_equal(interp_field.riemann(x), single)


def _spd_batch(rng, n, cond, count=200):
    q = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    g = q @ (np.logspace(0.0, np.log10(cond), n)[:, None] * np.swapaxes(q, 1, 2))
    return 0.5 * (g + np.swapaxes(g, 1, 2))


class TestSpdSolve:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e10])
    def test_matches_lapack(self, n, cond):
        rng = np.random.default_rng(n)
        g = _spd_batch(rng, n, cond)
        b = rng.standard_normal((len(g), n, 3))
        got = manifold._spd_solve(g, b)
        want = np.linalg.solve(g, b)
        err = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert err.max() <= 8.0 * np.finfo(float).eps * cond
        residual = np.linalg.norm(g @ got - b, axis=(1, 2)) / (
            np.linalg.norm(g, axis=(1, 2)) * np.linalg.norm(got, axis=(1, 2)))
        assert residual.max() <= 8.0 * np.finfo(float).eps

    @pytest.mark.parametrize("bad, pivot", [
        (np.full((2, 2), np.nan), "pivot 0 is nan"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "pivot 1 is -3.000e+00")],
        ids=["nan", "indefinite"])
    def test_failure_names_row(self, bad, pivot):
        g = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
        g[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match=f"row 3 .*{re.escape(pivot)}") as info:
                manifold._spd_solve(g, np.ones((5, 2, 1)))
        assert info.value.row == 3

    def test_christoffel_failure_names_point(self):
        # indefinite at one interior node only, where the spline interpolates
        # it exactly; the node two spacings away keeps the identity
        axes = [np.linspace(0.0, 1.0, 9)] * 2
        values = np.broadcast_to(np.eye(2), (9, 9, 2, 2)).copy()
        values[4, 4] = np.diag([1.0, -1.0])
        field = MetricField(axes, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match=r"failed at point \[0\.5 0\.5\]"):
                field.christoffel([[0.25, 0.5], [0.5, 0.5]])


class TestTransport:
    def test_constant_field_is_identity(self):
        field = bl_field(constant_structure(square_gauge()), shape=(9, 9))
        loop = rectangle_loop([0.0, 0.0], [0.4, 0.4])
        res = parallel_transport(field, loop, np.eye(2))
        np.testing.assert_allclose(res.transported_frame, np.eye(2), atol=1e-12)
        assert res.gram_residual < 1e-12

    def test_huge_frame_is_carried_scaled(self):
        # transport is linear in the frame; a frame near the float limit is
        # carried scaled by a power of two, so no Gram matrix overflows
        field = bl_field(constant_structure(Euclidean(np.eye(2))), shape=(9, 9))
        loop = rectangle_loop([0.0, 0.0], [0.4, 0.4])
        unit = parallel_transport(field, loop, np.eye(2))
        huge = parallel_transport(field, loop, [[1e308, 0.0], [0.0, 1e308]])
        np.testing.assert_allclose(huge.transported_frame, 1e308 * unit.transported_frame,
                                   rtol=1e-15, atol=1e308 * 1e-15)
        assert huge.steps == unit.steps and huge.gram_residual < 1e-15

    def test_holonomy_matches_curvature_integral(self):
        st = conformal_rescale(
            constant_structure(Euclidean(np.eye(2)), lo=(-1.5, -1.5), hi=(1.5, 1.5)),
            sin_factor)
        field = bl_field(st, shape=(41, 41))
        loop = rectangle_loop([0.0, 0.0], [0.5, 0.5])
        res = parallel_transport(field, loop, np.eye(2))

        def phipp(x):
            s, c = np.sin(x), np.cos(x)
            lam = 1.0 + 0.3 * s
            return (-0.3 * s * lam - (0.3 * c) ** 2) / lam ** 2

        want = -quad1d(phipp, -0.5, 0.5)[0]  # times the loop's y-extent, 1.0
        assert holonomy_angle(field, res) == pytest.approx(want, abs=1e-4)

    def test_flat_conformal_field_has_trivial_holonomy(self):
        # exp(2 x1) I is flat (phi harmonic); the residual angle is the
        # O(h^4) interpolation error of the lattice field, not transport error
        st = conformal_rescale(
            constant_structure(Euclidean(np.eye(2)), lo=(-1, -1), hi=(1, 1)),
            lambda x: np.exp(x[0]))
        field = bl_field(st, shape=(33, 33))
        loop = rectangle_loop([0.0, 0.0], [0.4, 0.4])
        res = parallel_transport(field, loop, np.eye(2))
        h = float(field.spacing.max())
        assert abs(holonomy_angle(field, res)) < 2.0 * h ** 4

    def test_reversal_inverts(self, interp_field):
        loop = rectangle_loop([0.125, 0.0], [0.375, 0.5])
        fwd = parallel_transport(interp_field, loop, np.eye(2))
        back = parallel_transport(interp_field, loop[::-1], fwd.transported_frame)
        np.testing.assert_allclose(back.transported_frame, np.eye(2), atol=1e-8)

    def test_gram_preserved(self, interp_field):
        probes = default_probes(2)
        loop = rectangle_loop([0.125, 0.0], [0.375, 0.5])
        res = parallel_transport(interp_field, loop, probes)
        assert res.gram_residual < 1e-6

    def test_matches_scalar_rk4_reference(self):
        # one christoffel call per RK4 stage, the frame advanced step by step
        st = catalog.builtin_structure("conformal-euclidean")
        field = bl_field(st)
        probes = default_probes(2)
        h_target = 0.25 * float(field.spacing.min())
        for loop in default_loops(st, 3.0 * float(field.spacing.max())):
            res = parallel_transport(field, loop, probes)
            xi, frames, total = probes.copy(), [probes.copy()], 0
            for a, b in zip(loop[:-1], loop[1:]):
                seg = b - a
                steps = max(4, int(np.ceil(np.linalg.norm(seg) / h_target)))
                dt = 1.0 / steps

                def rhs(t, mat):
                    return -np.einsum("kij,i,jm->km", field.christoffel(a + t * seg),
                                      seg, mat)

                for s in range(steps):
                    t = s * dt
                    k1 = rhs(t, xi)
                    k2 = rhs(t + 0.5 * dt, xi + 0.5 * dt * k1)
                    k3 = rhs(t + 0.5 * dt, xi + 0.5 * dt * k2)
                    k4 = rhs(t + dt, xi + dt * k3)
                    xi = xi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                total += steps
                frames.append(xi)
            assert res.steps == total
            np.testing.assert_allclose(np.array(res.frames), np.array(frames),
                                       rtol=0, atol=1e-12)

    def test_halved_transport_matches_scalar_rk4(self):
        st = catalog.builtin_structure("l1-l2-interpolation")
        field = bl_field(st)
        loop = default_loops(st, 3.0 * float(field.spacing.max()))[1]
        probes = default_probes(2)
        res = parallel_transport(field, loop, probes)
        assert res.halvings == 1
        frames, total = _stepwise_rk4(field, loop, probes, 0.125 * float(field.spacing.min()))
        assert res.steps == total
        np.testing.assert_allclose(np.array(res.frames), frames, rtol=0, atol=1e-12)

    def test_3d_transport_matches_scalar_rk4(self):
        st = structure_from_spec(CONFORMAL_3D)
        field = bl_field(st, shape=(9, 9, 9))
        loop = default_loops(st, 3.0 * float(field.spacing.max()))[2]
        assert np.ptp(loop, axis=0)[0] == 0.0      # the plane (1, 2)
        probes = default_probes(3)
        res = parallel_transport(field, loop, probes)
        assert (res.steps, res.halvings) == (128, 0)
        frames, _ = _stepwise_rk4(field, loop, probes, 0.25 * float(field.spacing.min()))
        np.testing.assert_allclose(np.array(res.frames), frames, rtol=0, atol=1e-12)

    def test_noncommuting_steps_match_scalar_rk4(self):
        # a rotating anisotropic norm: the step matrices do not commute (the
        # isotropic fields above would hide a wrong product order), and the
        # segments take 33, 32 and 38 steps, so odd counts get padded
        st = rotor_structure(lambda x: 0.8 * x[0] + 0.5 * x[1] ** 2,
                             Euclidean(np.diag([1.0, 4.0])))
        field = bl_field(st, shape=(17, 17))
        path = np.array([[-0.5, -0.5], [0.5, -0.4], [0.1, 0.5], [-0.5, -0.5]])
        res = parallel_transport(field, path, np.eye(2))
        assert (res.steps, res.halvings) == (103, 0)
        frames, _ = _stepwise_rk4(field, path, np.eye(2), 0.25 * float(field.spacing.min()))
        np.testing.assert_allclose(np.array(res.frames), frames, rtol=0, atol=1e-12)

    def test_repeated_vertex_keeps_frame(self, interp_field):
        loop = rectangle_loop([0.125, 0.0], [0.375, 0.5])
        path = np.insert(loop, 5, loop[5], axis=0)
        res = parallel_transport(interp_field, path, default_probes(2))
        np.testing.assert_array_equal(res.frames[6], res.frames[5])
        plain = parallel_transport(interp_field, loop, default_probes(2))
        assert res.steps == plain.steps
        np.testing.assert_allclose(np.array(res.frames[6:]), np.array(plain.frames[5:]),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name, halvings", [
        ("conformal-euclidean", [0, 0, 0]), ("l1-l2-interpolation", [0, 1, 1])])
    def test_one_christoffel_call_per_attempt(self, monkeypatch, name, halvings):
        st = catalog.builtin_structure(name)
        field = bl_field(st)
        calls = []
        christoffel = MetricField.christoffel

        def counting(self, x):
            calls.append(len(x))
            return christoffel(self, x)

        monkeypatch.setattr(MetricField, "christoffel", counting)
        for loop, want in zip(default_loops(st, 3.0 * float(field.spacing.max())), halvings):
            calls.clear()
            res = parallel_transport(field, loop, default_probes(2))
            assert res.halvings == want
            assert len(calls) == want + 1

    def test_bad_path_rejected(self, interp_field):
        with pytest.raises(InputError):
            parallel_transport(interp_field, np.array([[0.0, 0.0]]), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_vertex_rejected(self, interp_field, bad):
        path = [[0.0, 0.0], [0.1, bad], [0.2, 0.0]]
        with pytest.raises(InputError, match="path must be finite"):
            parallel_transport(interp_field, path, np.eye(2))

    @pytest.mark.parametrize("frame", ["ab", np.ones((2, 2, 2)), np.zeros((2, 0))],
                             ids=["text", "three-axes", "no-vectors"])
    def test_bad_frame_rejected(self, interp_field, frame):
        with pytest.raises(InputError, match="frame must"):
            parallel_transport(interp_field, [[0.0, 0.0], [0.1, 0.0]], frame)

    @pytest.mark.parametrize("frame", [default_probes(2), [[1.0, 1.0], [1.0, 1.0]]],
                             ids=["eight-vectors", "singular"])
    def test_holonomy_angle_needs_two_independent_vectors(self, frame):
        field = bl_field(constant_structure(square_gauge()), shape=(9, 9))
        res = parallel_transport(field, rectangle_loop([0.0, 0.0], [0.4, 0.4]), frame)
        with pytest.raises(InputError, match="holonomy angle needs"):
            holonomy_angle(field, res)


class TestBerwald:
    def test_constant_structure(self):
        st = constant_structure(square_gauge())
        rep = berwald_defect(st, bl_field(st, shape=(17, 17)))
        assert rep.defect < 1e-6
        assert rep.gram_residual < 1e-6

    def test_interpolation_structure(self, interp_field):
        loop = rectangle_loop([0.125, 0.0], [0.375, 0.5])
        rep = berwald_defect(l1_l2_interpolation(), interp_field, [loop])
        assert rep.defect > 1e-2

    def test_rotor_defect_iff_nonconstant(self):
        moving = rotor_structure(specio.scalar_field_from_spec(
            {"kind": "linear", "slope": 0.8, "offset": 0.1}, 2, "psi"))
        frozen = rotor_structure(specio.scalar_field_from_spec(
            {"kind": "constant", "value": 0.4}, 2, "psi"))
        assert berwald_defect(moving, bl_field(moving, shape=(17, 17))).defect > 1e-4
        assert berwald_defect(frozen, bl_field(frozen, shape=(17, 17))).defect < 1e-6

    @pytest.mark.parametrize("name", ["l1-l2-interpolation", "3d-quartic-axial"])
    def test_one_peel_and_one_values_call_per_base(self, monkeypatch, name):
        # every loop's vertices in one peel; each distinct base evaluated once
        st = {**ASSEMBLY_CASES, **BENCHMARK_3D}[name]
        field = bl_field(st)
        peel, peels = st.peel, []

        def counting_peel(pts):
            peels.append(len(pts))
            return peel(pts)

        monkeypatch.setattr(st, "peel", counting_peel)
        calls = count_values_calls(monkeypatch)
        report = berwald_defect(st, field)
        loops = default_loops(st, 3.0 * float(field.spacing.max()))
        assert len(report.per_loop) == len(loops) > 1
        assert peels == [sum(len(loop) for loop in loops)]
        bases = peel(np.concatenate(loops))[1]
        assert len(calls) == len(bases)

    def test_norm_failure_names_point(self):
        # the field is fine; the structure's factor x1 is not positive for x1 <= 0
        field = bl_field(constant_structure(Euclidean(np.eye(2))), shape=(9, 9))
        bad = conformal_rescale(constant_structure(Euclidean(np.eye(2))),
                                specio.scalar_field_from_spec(
                                    {"kind": "linear", "slope": 1.0}, 2, "factor"))
        with pytest.raises(NumericalFailure, match=r"failed at point \[.*factor"):
            berwald_defect(bad, field)

    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_STRUCTURES) + ["3d-quartic-axial"])
    def test_batched_loops_match_single_transports(self, name):
        # one christoffel batch for all loops changes no loop's result
        st = {**ASSEMBLY_CASES, **BENCHMARK_3D}[name]
        field = bl_field(st)
        loops = default_loops(st, 3.0 * float(field.spacing.max()))
        probes = default_probes(st.dim)
        report = berwald_defect(st, field)
        batch = manifold._transport(field, loops, probes)
        for loop, got, defect in zip(loops, batch, report.per_loop, strict=True):
            alone = parallel_transport(field, loop, probes)
            assert (got.steps, got.halvings, got.gram_residual) == (
                alone.steps, alone.halvings, alone.gram_residual)
            np.testing.assert_array_equal(np.array(got.frames), np.array(alone.frames))
            assert defect == berwald_defect(st, field, [loop]).defect

    def test_loops_of_different_lengths(self, interp_field):
        # a shorter path is padded with its last vertex while it rides along
        long = rectangle_loop([0.125, 0.0], [0.375, 0.5])
        short = np.array([[0.0, -0.2], [0.5, 0.1], [0.3, 0.3]])
        batch = manifold._transport(interp_field, [short, long], np.eye(2))
        for path, got in zip([short, long], batch):
            alone = parallel_transport(interp_field, path, np.eye(2))
            assert len(got.frames) == len(path) and got.steps == alone.steps
            np.testing.assert_array_equal(np.array(got.frames), np.array(alone.frames))

    def test_no_loops_no_defect(self, interp_field):
        rep = berwald_defect(l1_l2_interpolation(), interp_field, [])
        assert (rep.defect, rep.per_loop, rep.gram_residual) == (0.0, [], 0.0)

    def test_failure_reports_first_failing_loop(self, monkeypatch):
        st = catalog.builtin_structure("l1-l2-interpolation")
        field = bl_field(st)
        loops = default_loops(st, 3.0 * float(field.spacing.max()))
        monkeypatch.setattr(manifold, "GRAM_TOL", 0.0)
        with pytest.raises(TransportAccuracyError) as alone:
            parallel_transport(field, loops[0], default_probes(2))
        with pytest.raises(TransportAccuracyError) as batch:
            berwald_defect(st, field)
        assert str(batch.value) == str(alone.value)

    def test_caller_loops_validated(self, interp_field):
        loop = rectangle_loop([0.125, 0.0], [0.375, 0.5])
        with pytest.raises(InputError, match="polyline"):
            berwald_defect(l1_l2_interpolation(), interp_field, [loop, loop[:1]])
        with pytest.raises(InputError, match="two lattice spacings"):
            berwald_defect(l1_l2_interpolation(), interp_field, [loop, loop - 0.8])

    def test_nonfinite_loop_vertex_rejected(self, interp_field):
        loop = rectangle_loop([0.125, 0.0], [0.375, 0.5])
        loop[3, 1] = np.nan
        with pytest.raises(InputError, match="path must be finite"):
            berwald_defect(l1_l2_interpolation(), interp_field, [loop])

    @pytest.mark.parametrize("axes", [(0, 0), (0, 2), (-1, 1), (1, -2)])
    def test_bad_loop_plane_rejected(self, axes):
        # a negative axis would pass as an index and give a loop on one line
        with pytest.raises(InputError, match="bad loop plane"):
            rectangle_loop([0.0, 0.0], [0.4, 0.4], axes=axes)

    def test_default_loops_stay_inside(self):
        st = constant_structure(square_gauge())
        for loop in default_loops(st, margin=0.2):
            assert np.all(loop.min(axis=0) >= st.chart_lo + 0.19)
            assert np.all(loop.max(axis=0) <= st.chart_hi - 0.19)


class TestLocallyMinkowski:
    def test_constant_positive(self):
        rep = is_locally_minkowski(constant_structure(square_gauge()),
                                   shape=(17, 17))
        assert rep.locally_minkowski
        assert rep.verdict == "locally Minkowski"

    def test_holonomy_extension_positive(self):
        # the holonomy-extension spec family is an alias of the constant one
        spec = catalog.BUILTIN_STRUCTURES["holonomy-extension-square"][1]
        alias = structure_from_spec(spec)
        constant = structure_from_spec({**spec, "field": {**spec["field"], "family": "constant"}})
        assert np.array_equal(bl_field(alias, shape=(17, 17)).values,
                              bl_field(constant, shape=(17, 17)).values)
        assert is_locally_minkowski(alias, shape=(17, 17)).locally_minkowski

    def test_interpolation_negative_by_curvature(self):
        rep = is_locally_minkowski(l1_l2_interpolation(), shape=(33, 17))
        assert not rep.locally_minkowski
        assert rep.flat_residual > rep.tol

    def test_rotor_negative_by_berwald_only(self):
        rep = is_locally_minkowski(
            rotor_structure(specio.scalar_field_from_spec(
                {"kind": "linear", "slope": 0.8, "offset": 0.1}, 2, "psi")),
            shape=(17, 17))
        assert not rep.locally_minkowski
        assert rep.flat_residual < rep.tol
        assert rep.berwald_defect > rep.tol


class TestOneCheck:
    @pytest.mark.parametrize("name, calls", [
        ("conformal-euclidean", 2), ("l1-l2-interpolation", 3)])
    def test_christoffel_calls_per_check(self, monkeypatch, name, calls):
        # riemann's one call, then one per transport attempt for all loops
        # (l1-l2 halves two of its three loops once)
        count = []
        christoffel = MetricField.christoffel

        def counting(self, x):
            count.append(len(x))
            return christoffel(self, x)

        monkeypatch.setattr(MetricField, "christoffel", counting)
        is_locally_minkowski(catalog.builtin_structure(name))
        assert len(count) == calls

    def test_one_solve_per_base(self, monkeypatch):
        # the midpoint error reuses the lattice's base metric
        solves = []

        def counting(norm, level):
            solves.append(norm)
            return bl_metric(norm, level)

        monkeypatch.setattr(manifold, "bl_metric", counting)
        is_locally_minkowski(catalog.builtin_structure("constant-square"))
        assert len(solves) == 1


class TestVerdictMargin:
    def test_conformal_3d_undecided_at_9(self):
        # defect 6.5e-4 against an interpolation error of 4.4e-3 at 9^3
        with pytest.raises(NumericalFailure,
                           match="verdict undecided at this lattice: Berwald defect"):
            is_locally_minkowski(structure_from_spec(CONFORMAL_3D), shape=(9, 9, 9))

    def test_tolerance_within_the_error_is_undecided(self):
        # defect 9.3e-8 and flat residual 0.37026 of the catalog conformal field
        # at 33^2, whose interpolation error is about 1.5e-6
        st = catalog.builtin_structure("conformal-euclidean")
        assert not is_locally_minkowski(st, tol=1e-4).locally_minkowski
        with pytest.raises(NumericalFailure, match="undecided.*Berwald defect 9.3"):
            is_locally_minkowski(st, tol=1e-7)
        with pytest.raises(NumericalFailure, match="undecided.*flat residual 3.703e-01"):
            is_locally_minkowski(st, tol=0.3702575)

    def test_constant_field_has_no_interpolation_error(self):
        rep = is_locally_minkowski(constant_structure(square_gauge()), shape=(17, 17), tol=1e-13)
        assert rep.locally_minkowski


class TestEquivariance:
    def test_rigid_motion_of_field(self):
        angle = np.pi / 5.0
        rot = np.array([[np.cos(angle), -np.sin(angle)],
                        [np.sin(angle), np.cos(angle)]])
        shift = np.array([0.4, -0.1])
        base = constant_structure(PolytopeGauge([[2.0, -1.0], [-1.0, 2.0],
                                                 [-1.0, -1.0]]))
        moved = rigid_motion(base, rot, shift)
        x = np.array([0.15, -0.2])
        g = bl_field(base, shape=(9, 9)).at(x)
        g_moved = bl_field(moved, shape=(9, 9)).at(rot @ x + shift)
        np.testing.assert_allclose(g_moved, rot @ g @ rot.T, rtol=1e-6)

    def test_translation_only(self):
        base = l1_l2_interpolation()
        moved = rigid_motion(base, np.eye(2), [0.5, 0.5])
        x = np.array([0.3, 0.1])
        g = bl_field(base, shape=(13, 9)).at(x)
        g_moved = bl_field(moved, shape=(13, 9)).at(x + 0.5)
        np.testing.assert_allclose(g_moved, g, rtol=1e-6, atol=1e-9)


class TestThreeDimensional:
    def test_constant_3d_field_end_to_end(self):
        norm = Euclidean(np.diag([1.0, 2.0, 0.5]))
        st = constant_structure(norm, lo=(-1, -1, -1), hi=(1, 1, 1))
        field = bl_field(st, shape=(7, 7, 7))
        np.testing.assert_allclose(field.at([0.1, -0.2, 0.3]),
                                   np.diag([1.0, 2.0, 0.5]), atol=1e-8)
        assert np.abs(field.christoffel([0.0, 0.0, 0.0])).max() < 1e-10
        loop = rectangle_loop(np.zeros(3), 0.3 * np.ones(3), axes=(0, 2))
        res = parallel_transport(field, loop, np.eye(3))
        np.testing.assert_allclose(res.transported_frame, np.eye(3), atol=1e-9)

    def test_default_chart_matches_the_norm(self):
        # no chart given: the cube [-1, 1]^3 of a 3D norm, not a 2D square
        field = bl_field(constant_structure(Euclidean(np.eye(3))), shape=(5, 5, 5))
        np.testing.assert_array_equal(field.axes, [np.linspace(-1.0, 1.0, 5)] * 3)
        np.testing.assert_allclose(field.at([0.2, -0.4, 0.6]), np.eye(3), atol=1e-12)

    def test_berwald_defect_3d_constant(self):
        st = constant_structure(Euclidean(np.eye(3)), lo=(-1, -1, -1),
                                hi=(1, 1, 1))
        rep = berwald_defect(st, bl_field(st, shape=(9, 9, 9)))
        assert rep.defect < 1e-8

    def test_jacobian_is_the_spline_derivative(self):
        # exact nu= derivatives: a central difference of the spline itself at
        # a small step agrees (half-spacing differences were 3.1e-2 off)
        field = bl_field(structure_from_spec(CONFORMAL_3D), shape=(9, 9, 9))
        pts = _interior_points(field, 2.0, 50)
        h = 1e-6
        want = np.stack([(field.at(pts + h * e) - field.at(pts - h * e)) / (2.0 * h)
                         for e in np.eye(3)], axis=-3)
        assert np.abs(_jet_tensors(field, pts)[1] - want).max() <= 1e-7 * np.abs(want).max()

    def test_conformal_loops_keep_the_gram_gate(self):
        st = structure_from_spec(CONFORMAL_3D)
        field = bl_field(st, shape=(9, 9, 9))
        loops = default_loops(st, 3.0 * float(field.spacing.max()))
        assert len(loops) == 9
        for loop in loops:
            res = parallel_transport(field, loop, default_probes(3))
            assert res.gram_residual <= manifold.GRAM_TOL and res.halvings == 0

    def test_loops_cover_coordinate_planes(self):
        st = constant_structure(Euclidean(np.eye(3)), lo=(-1, -1, -1),
                                hi=(1, 1, 1))
        loops = default_loops(st, margin=0.2)
        assert len(loops) == 9
        for family in (loops[:3], loops[3:6], loops[6:]):    # one per scale
            spans = [np.ptp(loop, axis=0) > 1e-12 for loop in family]
            assert sorted(tuple(s) for s in spans) == [
                (False, True, True), (True, False, True), (True, True, False)]


class TestFingerprintCloud:
    def test_cloud_shape_and_conformal_invariance(self):
        st = l1_l2_interpolation()
        pts, cloud = fingerprint_cloud(st, grid=(5, 2))
        assert pts.shape == (10, 2) and cloud.shape == (10, 4)
        scaled = conformal_rescale(st, sin_factor)
        _, cloud2 = fingerprint_cloud(scaled, grid=(5, 2))
        np.testing.assert_allclose(cloud2, cloud, rtol=1e-6)

    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_STRUCTURES)
                             + ["moved-sheared-rotor"])
    def test_matches_fingerprint_per_point(self, name):
        # reference: the fingerprint of each point's own norm
        st = ASSEMBLY_CASES[name]
        pts, cloud = fingerprint_cloud(st, grid=(6, 4))
        want = np.array([fingerprint_point(bl_metric(norm, 0))
                         for norm in map(st.norm_at, pts)])
        np.testing.assert_allclose(cloud, want, rtol=1e-10, atol=0)

    def test_ill_conditioned_point_fails(self):
        # the base square is fine; its image under diag(1, 1e-7) is not
        st, problem = FAILING_CASES["ill-conditioned"]
        with pytest.raises(NumericalFailure, match=rf"failed at point \[.*{problem}"):
            fingerprint_cloud(st, grid=(4, 4))
