"""End-to-end property suites behind the ``verify`` CLI subcommand.

Each check returns its measured residual next to the tolerance it must
beat, so a verify run prints an auditable table.  Seeds fix all sampled
inputs; deterministic quadrature ignores them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog
from .errors import InputError
from .invariants import (compare_fingerprints, fingerprint_point,
                         isotropy_defect, orthonormalize, quermassintegrals)
from .manifold import (berwald_defect, bl_field, conformal_factor,
                       conformal_rescale, constant_structure,
                       is_locally_minkowski, l1_l2_interpolation,
                       rectangle_loop, rigid_motion, square_gauge)
from .metric import bl_metric, relative_qf_deviation, sampled_moment
from .norms import (Euclidean, LinearImage, LpNorm, QuarticAxial,
                    WeightedSum, rescale, validate)
from .quadrature import ball_volume


@dataclass
class CheckResult:
    name: str
    value: float
    tol: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        note = f"  ({self.note})" if self.note else ""
        return f"[{flag}] {self.name:52s} {self.value:12.3e} <= {self.tol:.1e}{note}"


def _check(name, value, tol, note=""):
    return CheckResult(name, float(value), float(tol), bool(value <= tol), note)


def _check_at_least(name, value, tol, note=""):
    return CheckResult(name, float(value), float(tol), bool(value >= tol),
                       note or "must be at least the bound")


def _radii(shape, scale):
    """Semi-axis lengths of the ellipsoid {xi : xi^T shape xi <= scale^2}."""
    return scale / np.sqrt(np.linalg.eigvalsh(shape))


def _ellipsoid_moment(shape, scale, theta):
    """integral over {xi : xi^T shape xi <= scale^2} of (theta . xi)^2 d xi,
    closed form: vol / (n+2) * scale^2 theta^T shape^-1 theta."""
    n = len(shape)
    theta = np.asarray(theta, dtype=float)
    volume = ball_volume(n) * scale ** n / np.sqrt(np.linalg.det(shape))
    return volume / (n + 2) * scale ** 2 * float(theta @ np.linalg.inv(shape) @ theta)


def _random_spd(rng, n, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def _random_invertible(rng, n):
    while True:
        a = rng.standard_normal((n, n))
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] > 0.2 and s[0] / s[-1] < 8.0:
            return a


def _sample_norms(rng, dims=(2, 3)):
    out = []
    if 2 in dims:
        out += [catalog.builtin_norm("square-max"), catalog.builtin_norm("diamond-l1"),
                catalog.builtin_norm("hexagon"), catalog.builtin_norm("asymmetric-triangle"),
                QuarticAxial(2), LpNorm(4, 2),
                WeightedSum(0.5, 0.5, LpNorm(1, 2), LpNorm(2, 2)),
                Euclidean(_random_spd(rng, 2))]
    if 3 in dims:
        out += [QuarticAxial(3), Euclidean(_random_spd(rng, 3))]
    return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_norms(seed: int):
    rng = np.random.default_rng(seed)
    results = []
    worst = 0.0
    for name in sorted(catalog.BUILTIN_NORMS):
        rep = validate(catalog.builtin_norm(name), 500, seed=seed)
        worst = max(worst, rep.homogeneity_residual, rep.subadditivity_residual)
        if rep.min_on_unit_sphere <= 0:
            results.append(CheckResult(f"definiteness {name}", 0.0, 0.0, False))
    results.insert(0, _check("axiom residuals over all builtin norms", worst, 1e-9))

    sq = catalog.builtin_norm("square-max")
    gauge_at_vertices = np.abs(sq.values(sq.vertices) - 1.0).max()
    results.append(_check("polytope gauge at vertices is 1", gauge_at_vertices, 1e-12))

    tri = catalog.builtin_norm("asymmetric-triangle")
    a = _random_invertible(rng, 2)
    twice = LinearImage(np.linalg.inv(a), LinearImage(a, tri))
    pts = rng.standard_normal((200, 2))
    rel = np.abs(twice.values(pts) - tri.values(pts)) / tri.values(pts)
    results.append(_check("linear image round-trip", rel.max(), 1e-9))

    mix = WeightedSum(0.5, 0.5, LpNorm(1, 2), LpNorm(2, 2))
    th = rng.standard_normal((100, 2))
    h1 = mix.support(th[:50])
    h2 = mix.support(th[50:])
    h12 = mix.support(th[:50] + th[50:])
    results.append(_check("support is sublinear",
                          np.max(h12 - h1 - h2), 1e-8))
    return results


def suite_metric_properties(seed: int):
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for n in (2, 3):
        for _ in range(5):
            g0 = _random_spd(rng, n)
            g = bl_metric(Euclidean(g0), 1).metric
            worst = max(worst, np.linalg.norm(g - g0) / np.linalg.norm(g0))
    results.append(_check("euclidean recovery (metric equals input)", worst, 1e-8))

    sq = catalog.builtin_norm("square-max")
    dia = catalog.builtin_norm("diamond-l1")
    g_sq = bl_metric(sq, 0).metric
    g_dia = bl_metric(dia, 0).metric
    results.append(_check("square max-norm metric is 0.75 I",
                          np.abs(g_sq - 0.75 * np.eye(2)).max(), 1e-6))
    results.append(_check("diamond 1-norm metric is 1.5 I",
                          np.abs(g_dia - 1.5 * np.eye(2)).max(), 1e-6))

    worst = 0.0
    for norm in _sample_norms(rng):
        a = _random_invertible(rng, norm.dim)
        g = bl_metric(norm, 1).metric
        g_img = bl_metric(LinearImage(a, norm), 1).metric
        target = a.T @ g @ a
        worst = max(worst, np.linalg.norm(g_img - target) / np.linalg.norm(target))
    results.append(_check("linear equivariance g(F o A) = A^T g A", worst, 1e-6))

    worst = 0.0
    for norm in (sq, QuarticAxial(2), Euclidean(_random_spd(rng, 3))):
        kappa = float(rng.uniform(0.2, 5.0))
        g = bl_metric(norm, 1).metric
        g_scaled = bl_metric(rescale(norm, kappa), 1).metric
        worst = max(worst, np.linalg.norm(g_scaled - kappa ** 2 * g)
                    / np.linalg.norm(g_scaled))
    results.append(_check("scaling law g(kappa F) = kappa^2 g(F)", worst, 1e-8))

    # sandwich bound from a measured bilipschitz constant
    f1 = catalog.builtin_norm("hexagon")
    f2 = WeightedSum(0.7, 0.3, f1, Euclidean(np.eye(2)))
    g1 = bl_metric(f1, 1).metric
    g2 = bl_metric(f2, 1).metric
    dirs = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    u = np.column_stack([np.cos(dirs), np.sin(dirs)])
    ratio = f2.values(u) / f1.values(u)
    c = float(max(ratio.max(), 1.0 / ratio.min())) * (1 + 1e-12)
    from scipy.linalg import eigh

    lam = eigh(g2, g1, eigvals_only=True)
    n = 2
    slack = min(lam.min() - c ** (-2 * n), c ** (2 * n) - lam.max())
    results.append(_check_at_least("bilipschitz sandwich slack", slack, 0.0,
                                   note=f"c={c:.4f}"))

    # C0-stability in its assertable form: ratio within [1-eps, 1+eps]
    eps = 0.08
    base = catalog.builtin_norm("hexagon")
    pert = WeightedSum(1.0 - eps, eps * 0.9, base, Euclidean(np.eye(2)))
    ratio = pert.values(u) / base.values(u)
    eps_measured = float(np.abs(ratio - 1.0).max())
    g_b = bl_metric(base, 1).metric
    g_p = bl_metric(pert, 1).metric
    bound = ((1 + eps_measured) / (1 - eps_measured)) ** (2 * n) - 1.0
    dev = relative_qf_deviation(g_p, g_b)
    results.append(_check("C0-stability quadratic-form deviation", dev, bound,
                          note=f"eps={eps_measured:.3f}"))

    lamf = lambda x: 1.0 + 0.3 * np.sin(x[0])
    base_st = constant_structure(catalog.builtin_norm("square-max"))
    resc = conformal_rescale(base_st, lamf)
    fa = bl_field(resc, shape=(9, 9))
    fb = bl_field(base_st, shape=(9, 9))
    cf = conformal_factor(fa, fb)
    results.append(_check("conformal law g(lambda F) = lambda^2 g(F)",
                          cf.residual, 1e-6))

    interp = l1_l2_interpolation()
    field = bl_field(interp, shape=(25, 9))
    h = float(field.spacing.max())
    results.append(_check("metric field continuity O(h) between neighbors",
                          field.neighbor_variation(), 2.5 * h))

    worst_smooth = 0.0
    for norm in (QuarticAxial(2), Euclidean(_random_spd(rng, 2)), LpNorm(4, 2)):
        m0, m1 = bl_metric(norm, 0).dual, bl_metric(norm, 1).dual
        worst_smooth = max(worst_smooth, np.linalg.norm(m1 - m0) / np.linalg.norm(m1))
    results.append(_check("quadrature doubling change, smooth families",
                          worst_smooth, 1e-8))
    worst_poly = 0.0
    for name in ("square-max", "diamond-l1", "hexagon", "asymmetric-triangle"):
        norm = catalog.builtin_norm(name)
        m0, m1 = bl_metric(norm, 0).dual, bl_metric(norm, 1).dual
        worst_poly = max(worst_poly, np.linalg.norm(m1 - m0) / np.linalg.norm(m1))
    results.append(_check("quadrature doubling change, polytope gauges",
                          worst_poly, 1e-6))
    return results


def suite_ellipsoids(seed: int):
    rng = np.random.default_rng(seed)
    results = []

    eu = Euclidean(np.eye(2))
    results.append(_check("euclidean ball is its own moment ellipsoid",
                          abs(bl_metric(eu, 0).legendre_scale - 1.0), 1e-8))

    sq = catalog.builtin_norm("square-max")
    results.append(_check("square dual ellipsoid radius sqrt(3)/2",
                          abs(_radii(bl_metric(sq, 0).dual, 1.0)[0] - np.sqrt(3.0) / 2.0), 1e-8))

    # exact moments int_Omega <theta, x>^2 dx of the square [-1, 1]^2 and of
    # the diamond |x1| + |x2| <= 1, for theta = e1, e2 and (1, 1)
    worst = 0.0
    for name, exact in (("square-max", (4 / 3, 4 / 3, 8 / 3)),
                        ("diamond-l1", (1 / 3, 1 / 3, 2 / 3))):
        bl = bl_metric(catalog.builtin_norm(name), 0)
        for theta, want in zip(([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]), exact):
            got = _ellipsoid_moment(bl.metric, bl.legendre_scale, theta)
            worst = max(worst, abs(got - want) / want)
    results.append(_check("moment identity vs exact polygon moments", worst, 1e-9))

    # seed-robust: each deviation is bounded by its own sampling error
    worst_sigma = 0.0
    for name in ("square-max", "diamond-l1"):
        norm = catalog.builtin_norm(name)
        bl = bl_metric(norm, 0)
        for k, theta in enumerate(([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])):
            mc = sampled_moment(norm, theta, 10 ** 6, seed + k)
            dev = abs(_ellipsoid_moment(bl.metric, bl.legendre_scale, theta) - mc.value)
            worst_sigma = max(worst_sigma, dev / mc.stderr)
    results.append(_check("moment identity vs Monte Carlo oracle (sigmas)",
                          worst_sigma, 4.0, note="units of MC standard error"))

    a = _random_invertible(rng, 2)
    img = LinearImage(a, sq)
    m_img = bl_metric(img, 1).dual
    m = bl_metric(sq, 1).dual
    # dual moment matrix pushes forward contravariantly: M*(F o A) = A^-1 M* A^-T
    target = np.linalg.inv(a) @ m @ np.linalg.inv(a).T
    results.append(_check("dual ellipsoid transforms contravariantly",
                          np.linalg.norm(m_img - target) / np.linalg.norm(target), 1e-6))

    kappa = float(rng.uniform(0.5, 3.0))
    bl1, bl2 = bl_metric(sq, 0), bl_metric(rescale(sq, kappa), 0)
    r1 = _radii(bl1.metric, bl1.legendre_scale)
    r2 = _radii(bl2.metric, bl2.legendre_scale)
    results.append(_check("moment ellipsoid scales by 1/kappa",
                          np.abs(r2 * kappa - r1).max() / r1.max(), 1e-8))
    return results


def suite_invariants(seed: int):
    rng = np.random.default_rng(seed)
    results = []

    sq = catalog.builtin_norm("square-max")
    fp = fingerprint_point(bl_metric(sq, 0))
    target = np.array([3.0, 2.0 * np.sqrt(3.0), np.sqrt(2.0 / 3.0), 2.0 / np.sqrt(3.0)])
    results.append(_check("square fingerprint (3, 2 sqrt 3, 0.8165, 1.1547)",
                          np.abs(fp - target).max(), 1e-4))

    eu = Euclidean(np.eye(2))
    qm = quermassintegrals(bl_metric(eu, 0))
    results.append(_check("disk Steiner coefficients are (pi, pi, pi)",
                          np.abs(qm.values - np.pi).max(), 1e-6))

    kappa = float(rng.uniform(0.3, 4.0))
    fp_scaled = fingerprint_point(bl_metric(rescale(sq, kappa), 0))
    results.append(_check("fingerprint invariant under rescaling",
                          np.abs(fp - fp_scaled).max() / np.abs(fp).max(), 1e-6))

    a = _random_invertible(rng, 2)
    fp_img = fingerprint_point(bl_metric(LinearImage(a, sq), 0))
    results.append(_check("fingerprint invariant under linear maps",
                          np.abs(fp - fp_img).max() / np.abs(fp).max(), 1e-5))

    nb = orthonormalize(sq, bl_metric(sq, 0).metric)
    nb2 = orthonormalize(nb, bl_metric(nb, 0).metric)
    pts = rng.standard_normal((200, 2))
    results.append(_check("orthonormalization is idempotent",
                          np.abs(nb2.values(pts) - nb.values(pts)).max(), 1e-9))

    results.append(_check("euclidean isotropy defect", isotropy_defect(eu), 1e-6))
    results.append(_check_at_least("quartic norm isotropy defect exceeds 1e-2",
                                   isotropy_defect(QuarticAxial(3)), 1e-2))

    ball = quermassintegrals(bl_metric(Euclidean(np.eye(3)), 0))
    results.append(_check("ball Steiner coefficients are 4 pi / 3 (3D)",
                          np.abs(ball.values / (4.0 * np.pi / 3.0) - 1.0).max(), 1e-3))
    quartic = QuarticAxial(3)
    fp3 = fingerprint_point(bl_metric(quartic, 0))
    fp3_img = fingerprint_point(bl_metric(LinearImage(_random_invertible(rng, 3), quartic), 0))
    results.append(_check("3D fingerprint invariant under linear maps",
                          np.abs(fp3 - fp3_img).max() / np.abs(fp3).max(), 1e-3))

    interp = l1_l2_interpolation()
    from .manifold import fingerprint_cloud

    pts_a, cloud_a = fingerprint_cloud(interp, grid=(6, 2))
    resc = conformal_rescale(interp, lambda x: 1.0 + 0.3 * np.sin(x[0]))
    pts_b, cloud_b = fingerprint_cloud(resc, grid=(6, 2))
    cmp_same = compare_fingerprints(cloud_a, cloud_b, tol=1e-3)
    results.append(_check("rescaled field fingerprint cloud distance",
                          cmp_same.hausdorff, 1e-6))

    l1_field = constant_structure(catalog.builtin_norm("diamond-l1"))
    eu_field = constant_structure(eu)
    _, cloud_l1 = fingerprint_cloud(l1_field, grid=(3, 3))
    _, cloud_eu = fingerprint_cloud(eu_field, grid=(3, 3))
    cmp_diff = compare_fingerprints(cloud_l1, cloud_eu, tol=1e-3)
    results.append(CheckResult("1-norm vs euclidean fields distinguishable",
                               cmp_diff.hausdorff, 1e-3,
                               cmp_diff.verdict == "not conformally equivalent",
                               note=cmp_diff.verdict))
    return results


def suite_berwald(seed: int):
    results = []

    const = constant_structure(square_gauge())
    rep = berwald_defect(const, bl_field(const, shape=(17, 17)))
    results.append(_check("constant structure has zero defect", rep.defect, 1e-6))
    gram_worst = rep.gram_residual

    interp = l1_l2_interpolation()
    field = bl_field(interp, shape=(49, 17))
    zone_loop = rectangle_loop([0.125, 0.0], [0.375, 0.5])
    rep = berwald_defect(interp, field, [zone_loop])
    gram_worst = max(gram_worst, rep.gram_residual)
    results.append(_check_at_least("interpolating structure defect >= 1e-2",
                                   rep.defect, 1e-2))

    rotor = catalog.builtin_structure("rotor-linear")
    rep = berwald_defect(rotor, bl_field(rotor, shape=(17, 17)))
    gram_worst = max(gram_worst, rep.gram_residual)
    results.append(_check_at_least("rotating field defect positive", rep.defect, 1e-4))

    rotor_c = catalog.builtin_structure("rotor-constant")
    rep = berwald_defect(rotor_c, bl_field(rotor_c, shape=(17, 17)))
    gram_worst = max(gram_worst, rep.gram_residual)
    results.append(_check("frozen rotor defect at noise level", rep.defect, 1e-6))

    # Riemannian, hence Berwald; needs the finer lattice because the defect
    # floor is the O(h^4) interpolation error of the curved metric field.
    conf = catalog.builtin_structure("conformal-euclidean")
    rep = berwald_defect(conf, bl_field(conf, shape=(33, 33)))
    gram_worst = max(gram_worst, rep.gram_residual)
    results.append(_check("conformally euclidean field stays Berwald",
                          rep.defect, 1e-6))

    results.append(_check("metric preservation residual of every transport",
                          gram_worst, 1e-6))

    flat = is_locally_minkowski(const, shape=(17, 17))
    results.append(CheckResult("constant structure is locally flat",
                               flat.flat_residual, flat.tol,
                               flat.locally_minkowski, note=flat.verdict))
    neg = is_locally_minkowski(interp, shape=(33, 17))
    results.append(CheckResult("interpolating structure is not flat",
                               neg.flat_residual, neg.tol,
                               not neg.locally_minkowski, note=neg.verdict))
    negr = is_locally_minkowski(rotor, shape=(17, 17))
    results.append(CheckResult("rotating structure fails only the Berwald leg",
                               negr.berwald_defect, negr.tol,
                               (not negr.locally_minkowski)
                               and negr.flat_residual < negr.tol,
                               note=negr.verdict))

    angle = np.pi / 6.0
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    shift = np.array([0.3, -0.2])
    moved = rigid_motion(const, rot, shift)
    g_base = bl_field(const, shape=(9, 9)).at([0.1, 0.2])
    g_moved = bl_field(moved, shape=(9, 9)).at(rot @ np.array([0.1, 0.2]) + shift)
    results.append(_check("field equivariance under rigid motions",
                          np.linalg.norm(g_moved - rot @ g_base @ rot.T)
                          / np.linalg.norm(g_base), 1e-6))
    return results


SUITES = {
    "norms": suite_norms,
    "metric-properties": suite_metric_properties,
    "ellipsoids": suite_ellipsoids,
    "invariants": suite_invariants,
    "berwald": suite_berwald,
}


def run_suite(name: str, seed: int):
    if name == "all":
        return [check for suite in SUITES.values() for check in suite(seed)]
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; known: "
                         f"{', '.join(sorted(SUITES))}, all")
    return SUITES[name](seed)
