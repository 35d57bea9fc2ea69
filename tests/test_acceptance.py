"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
table.  Tolerances are fixed here and nowhere else.
"""

import time

import numpy as np
import pytest

from blgeom import (Euclidean, LpNorm, PolytopeGauge, QuarticAxial,
                    WeightedSum, auto_quadrature, berwald_defect, bl_metric,
                    compare_fingerprints, dual_scalar_matrix,
                    fingerprint_cloud, fingerprint_point, isotropy_defect,
                    bl_field, conformal_rescale, constant_structure,
                    is_locally_minkowski, l1_l2_interpolation,
                    legendre_ellipsoid, linear_image, moment_of_inertia,
                    rectangle_loop, rescale, rotor_structure, square_gauge)
from blgeom import catalog, specio
from oracles import random_invertible, random_spd

SQUARE = PolytopeGauge([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
DIAMOND = PolytopeGauge([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def report(num, name, value, tol, ok, unit="residual"):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {num}: {name}: {unit} {value:.3e} (tol {tol:.1e})")
    assert ok, f"criterion {num} failed: {name}: {value} vs {tol}"


def test_criterion_1_euclidean_recovery():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for n in (2, 3):
        for _ in range(10):
            g0 = random_spd(rng, n)
            norm = Euclidean(g0)
            g = bl_metric(norm, auto_quadrature(norm, level=1))
            worst = max(worst, np.linalg.norm(g - g0) / np.linalg.norm(g0))
    elapsed = time.monotonic() - start
    report(1, "euclidean recovery, 20 random PD matrices", worst, 1e-8,
           worst <= 1e-8 and elapsed < 5.0)
    print(f"       runtime {elapsed:.2f} s (bound 5 s)")


def test_criterion_2_closed_form_polytopes():
    g_sq = bl_metric(SQUARE, auto_quadrature(SQUARE))
    g_dia = bl_metric(DIAMOND, auto_quadrature(DIAMOND))
    err = max(np.abs(g_sq - 0.75 * np.eye(2)).max(),
              np.abs(g_dia - 1.5 * np.eye(2)).max())
    report(2, "square metric 0.75 I and diamond metric 1.5 I", err, 1e-6,
           err <= 1e-6)


def test_criterion_3_gl_equivariance():
    rng = np.random.default_rng(103)
    pool = [SQUARE, DIAMOND, catalog.builtin_norm("hexagon"),
            catalog.builtin_norm("asymmetric-triangle"), QuarticAxial(2),
            LpNorm(4, 2), WeightedSum(0.5, 0.5, LpNorm(1, 2), LpNorm(2, 2)),
            Euclidean(random_spd(rng, 2)), QuarticAxial(3),
            Euclidean(random_spd(rng, 3))]
    worst = 0.0
    for k in range(50):
        norm = pool[k % len(pool)]
        a = random_invertible(rng, norm.dim)
        img = linear_image(norm, a)
        g = bl_metric(norm, auto_quadrature(norm, level=1))
        g_img = bl_metric(img, auto_quadrature(img, level=1))
        target = a.T @ g @ a
        worst = max(worst, np.linalg.norm(g_img - target) / np.linalg.norm(target))
    report(3, "linear equivariance over 50 random (A, norm) pairs", worst,
           1e-6, worst <= 1e-6)


def test_criterion_4_scaling_and_bilipschitz():
    rng = np.random.default_rng(104)
    worst_scale = 0.0
    for norm in (SQUARE, QuarticAxial(2), Euclidean(random_spd(rng, 3))):
        kappa = float(rng.uniform(0.2, 5.0))
        g = bl_metric(norm, auto_quadrature(norm, level=1))
        scaled = rescale(norm, kappa)
        g_s = bl_metric(scaled, auto_quadrature(scaled, level=1))
        worst_scale = max(worst_scale,
                          np.linalg.norm(g_s - kappa ** 2 * g) / np.linalg.norm(g_s))

    violations = 0
    from scipy.linalg import eigh

    ang = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
    u = np.column_stack([np.cos(ang), np.sin(ang)])
    for t in (0.2, 0.5, 0.8):
        f1 = catalog.builtin_norm("hexagon")
        f2 = WeightedSum(1.0 - t, t, f1, Euclidean(np.eye(2)))
        ratio = f2.values(u) / f1.values(u)
        c = max(ratio.max(), 1.0 / ratio.min()) * (1 + 1e-12)
        g1 = bl_metric(f1, auto_quadrature(f1, level=1))
        g2 = bl_metric(f2, auto_quadrature(f2, level=1))
        lam = eigh(g2, g1, eigvals_only=True)
        if lam.min() < c ** -4 or lam.max() > c ** 4:
            violations += 1
    ok = worst_scale <= 1e-8 and violations == 0
    report(4, "kappa^2 scaling law and bilipschitz sandwich", worst_scale,
           1e-8, ok)
    print(f"       sandwich violations: {violations} (must be 0)")


def test_criterion_5_moment_identity():
    worst = 0.0
    for name in ("square-max", "diamond-l1"):
        norm = catalog.builtin_norm(name)
        ell = legendre_ellipsoid(norm, auto_quadrature(norm))
        for k, theta in enumerate(([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])):
            mc = moment_of_inertia(norm, theta, method="mc", samples=10 ** 7,
                                   seed=2000 + k)
            worst = max(worst,
                        abs(ell.moment_of_inertia(theta) - mc.value) / mc.value)
    report(5, "moment-of-inertia identity vs seeded MC oracle (1e7)", worst,
           1e-3, worst <= 1e-3)


def test_criterion_6_fingerprint():
    target = np.array([3.0, 2.0 * np.sqrt(3.0),
                       np.sqrt(2.0 / 3.0), 2.0 / np.sqrt(3.0)])
    err_sq = np.abs(fingerprint_point(SQUARE) - target).max()

    rng = np.random.default_rng(106)
    interp = l1_l2_interpolation()
    _, cloud = fingerprint_cloud(interp, grid=(6, 2))
    kappa = float(rng.uniform(0.3, 3.0))
    uniform = conformal_rescale(interp, lambda x: kappa)
    _, cloud_kappa = fingerprint_cloud(uniform, grid=(6, 2))
    wavy = conformal_rescale(interp, lambda x: 1.0 + 0.3 * np.sin(x[0]))
    _, cloud_wavy = fingerprint_cloud(wavy, grid=(6, 2))
    h_kappa = compare_fingerprints(cloud, cloud_kappa).hausdorff
    h_wavy = compare_fingerprints(cloud, cloud_wavy).hausdorff

    _, cloud_l1 = fingerprint_cloud(constant_structure(DIAMOND), grid=(3, 3))
    _, cloud_eu = fingerprint_cloud(constant_structure(Euclidean(np.eye(2))),
                                    grid=(3, 3))
    verdict = compare_fingerprints(cloud_l1, cloud_eu).verdict

    ok = (err_sq <= 1e-4 and h_kappa <= 1e-6 and h_wavy <= 1e-6
          and verdict == "not conformally equivalent")
    report(6, "square fingerprint and conformal invariance",
           max(err_sq, h_kappa, h_wavy), 1e-4, ok)
    print(f"       1-norm vs euclidean verdict: {verdict!r}")


def test_criterion_7_berwald_checks():
    start = time.monotonic()
    gram_worst = 0.0

    rep_const = berwald_defect(constant_structure(square_gauge()), shape=(17, 17))
    gram_worst = max(gram_worst, rep_const.gram_residual)

    interp = l1_l2_interpolation()
    field = bl_field(interp, shape=(49, 17))
    zone_loop = rectangle_loop([0.125, 0.0], [0.375, 0.5])
    rep_interp = berwald_defect(interp, loops=[zone_loop], field=field)
    gram_worst = max(gram_worst, rep_interp.gram_residual)

    rep_moving = berwald_defect(
        rotor_structure(specio.scalar_field_from_spec(
            {"kind": "linear", "slope": 0.8, "offset": 0.1}, 2, "psi")),
        shape=(17, 17))
    rep_frozen = berwald_defect(
        rotor_structure(specio.scalar_field_from_spec(
            {"kind": "constant", "value": 0.4}, 2, "psi")), shape=(17, 17))
    gram_worst = max(gram_worst, rep_moving.gram_residual,
                     rep_frozen.gram_residual)

    elapsed = time.monotonic() - start
    ok = (rep_const.defect <= 1e-6 and rep_interp.defect >= 1e-2
          and rep_moving.defect > 1e-4 and rep_frozen.defect <= 1e-4
          and gram_worst <= 1e-6 and elapsed < 60.0)
    report(7, "Berwald defects and transport metric preservation",
           gram_worst, 1e-6, ok)
    print(f"       constant {rep_const.defect:.2e} | interpolation "
          f"{rep_interp.defect:.2e} | rotor moving {rep_moving.defect:.2e} "
          f"| rotor frozen {rep_frozen.defect:.2e} | runtime {elapsed:.1f} s")


def test_criterion_8_local_minkowski():
    verdicts = {}
    for name in sorted(catalog.BUILTIN_STRUCTURES):
        st = catalog.builtin_structure(name)
        shape = (33, 17) if name == "l1-l2-interpolation" else (17, 17)
        verdicts[name] = is_locally_minkowski(st, shape=shape).locally_minkowski
    # positive exactly on the constant-norm fields
    expected = {
        "constant-square": True,
        "holonomy-extension-square": True,
        "rotor-constant": True,
        "rotor-linear": False,
        "l1-l2-interpolation": False,
        "conformal-euclidean": False,
    }
    ok = verdicts == expected
    report(8, "locally-Minkowski verdicts across built-ins",
           float(sum(v != expected[k] for k, v in verdicts.items())), 0.0, ok,
           unit="misclassified")
    for name, v in sorted(verdicts.items()):
        print(f"       {name:28s} {'positive' if v else 'negative'}")


def test_criterion_9_quartic_norm_metric():
    norm = QuarticAxial(3)
    g = bl_metric(norm, auto_quadrature(norm, level=1))
    off = np.abs(g - np.diag(np.diag(g))).max()
    aniso = abs(g[0, 0] - g[1, 1])
    defect = isotropy_defect(norm)
    # regression anchors from the first validated quadrature run
    anchor_a, anchor_b = 0.9724353920, 1.3155683108
    anchored = (abs(g[0, 0] - anchor_a) < 1e-8 and abs(g[2, 2] - anchor_b) < 1e-8)
    ok = off <= 1e-8 and aniso <= 1e-8 and defect > 1e-2 and anchored
    report(9, "quartic norm metric diag(a, a, b), non-euclidean", off, 1e-8, ok)
    print(f"       a = {g[0, 0]:.10f}, b = {g[2, 2]:.10f}, "
          f"isotropy defect = {defect:.4f}")


def test_criterion_10_quadrature_convergence():
    worst_smooth = 0.0
    for norm in (QuarticAxial(2), Euclidean(np.diag([1.0, 2.0])),
                 LpNorm(4, 2), QuarticAxial(3)):
        q = auto_quadrature(norm)
        m0 = dual_scalar_matrix(norm, q)
        m1 = dual_scalar_matrix(norm, q.refined())
        worst_smooth = max(worst_smooth,
                           np.linalg.norm(m1 - m0) / np.linalg.norm(m1))
    worst_poly = 0.0
    for name in ("square-max", "diamond-l1", "hexagon", "asymmetric-triangle",
                 "sheared-square"):
        norm = catalog.builtin_norm(name)
        q = auto_quadrature(norm)
        m0 = dual_scalar_matrix(norm, q)
        m1 = dual_scalar_matrix(norm, q.refined())
        worst_poly = max(worst_poly, np.linalg.norm(m1 - m0) / np.linalg.norm(m1))
    ok = worst_smooth < 1e-8 and worst_poly < 1e-6
    report(10, "refinement doubling: smooth < 1e-8, polytopes < 1e-6",
           max(worst_smooth, worst_poly), 1e-6, ok)
    print(f"       smooth {worst_smooth:.2e} | polytope panels {worst_poly:.2e}")
