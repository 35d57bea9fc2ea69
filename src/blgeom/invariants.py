"""Conformal invariants of a Minkowski norm relative to its own metric.

Everything here is computed after moving to coordinates in which the
reference metric G is the identity, so the invariants only depend on the
conformal class of the norm:

* the Steiner coefficients W_0..W_n of the unit ball (W_n is always the
  euclidean unit-ball volume),
* the roundness bounds mu <= M of F over the G-unit sphere (mu = M exactly
  when the norm is euclidean for G),
* the fingerprint (W_0, ..., W_{n-1}, mu, M) in R^{n+2} used to rule out
  conformal equivalence of two norm fields by comparing image clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalFailure, UnsupportedDimensionError
from .metric import BLMetric, assert_spd, bl_metric
from .norms import (_TWO_PI, LinearImage, MinkowskiNorm, as_finite, as_reals,
                    sphere_directions, sphere_polish)
# auto_quadrature is not called here: perfbench/tests/test_tracing.py rebinds this copy
from .quadrature import auto_quadrature, ball_volume, circle_rule  # noqa: F401


def orthonormalize(norm: MinkowskiNorm, metric: np.ndarray) -> LinearImage:
    """Express the norm in coordinates where ``metric`` becomes identity.

    With G = L L^T (Cholesky), the substitution xi = L^{-T} xi' maps the
    quadratic form to the identity; the returned norm is xi' -> F(L^{-T} xi').
    Its metric pulled back through the same substitution is the identity.
    """
    G = as_reals(metric, "reference metric")
    if G.shape != (norm.dim,) * 2:
        raise InputError(f"reference metric must have shape {(norm.dim,) * 2}, got {G.shape}")
    assert_spd(G, "reference metric")
    L = np.linalg.cholesky(G)
    A = np.linalg.inv(L).T
    return LinearImage(A, norm)


@dataclass
class Quermassintegrals:
    """Steiner coefficients: vol(body + t*ball) = sum_j C(n,j) W_j t^j."""

    values: np.ndarray  # W_0 .. W_n
    dim: int

    def steiner_polynomial(self, t: float) -> float:
        from math import comb

        return float(sum(comb(self.dim, j) * self.values[j] * t ** j
                         for j in range(self.dim + 1)))


def quermassintegrals(bl: BLMetric) -> Quermassintegrals:
    """Steiner coefficients of the unit ball in coordinates where the
    record's metric G is the identity, at the record's quadrature level.

    W_n is the euclidean unit-ball volume omega_n.
    n = 2: W_0 = the record's ``orthonormal_volume``, vol(Omega) sqrt(det G)
    taken at the moment pass's own scale, W_1 = half the support-function
    integral over the circle (Cauchy's perimeter formula); without a closed
    form the support is the boundary cloud's best score (see
    ``MinkowskiNorm._cloud_best``).
    n = 3: the body is approximated by the polytope inscribed through
    20000 * 2^level directions; W_0 = volume, W_1 = surface/3, and W_2 comes
    from the exact polytope mean-width term sum(edge length * exterior
    dihedral angle) / 6.  The radial samples are in convex position, so the
    hull is built without Qhull's pre-merge and kept if Qhull raised no
    error and every edge is convex (the vertex of a facet opposite a shared
    edge lies at most 1e-12 max|coordinate| above the neighbour's plane);
    otherwise Qhull's default, merged hull is built.
    Other dimensions raise; there is no silent fallback.
    """
    n, level = bl.norm.dim, bl.quad.level
    body = orthonormalize(bl.norm, bl.metric)
    if n == 2:
        squad = circle_rule(body.support_kink_angles(), level)
        h = body._support(squad.nodes)   # unpolished without a closed form; ROADMAP item 16 removes it
        w1 = 0.5 * float(np.dot(squad.weights, h))
        return Quermassintegrals(np.array([bl.orthonormal_volume, w1, ball_volume(2)]), 2)
    if n == 3:
        from scipy.spatial import ConvexHull, QhullError

        dirs = sphere_directions(body, 20000 << level)
        verts = dirs / body.values(dirs)[:, None]
        try:   # pre-merge only absorbs near-coplanar facets; samples in convex position need none
            hull = ConvexHull(verts, qhull_options="Qt Q0")
        except QhullError:
            hull = None
        if hull is None or not _bulge(hull) <= 1e-12 * np.abs(verts).max():
            hull = ConvexHull(verts)
        w0 = hull.volume
        w1 = hull.area / 3.0
        w2 = _polytope_mean_width_term(hull) / 6.0
        return Quermassintegrals(np.array([w0, w1, w2, ball_volume(3)]), 3)
    raise UnsupportedDimensionError(
        f"quermassintegrals are implemented for n in {{2, 3}}, got n = {n}")


def _ridges(hull):
    """(k, i, m): facet k of a 3D ConvexHull meets its neighbour m > k across
    the edge opposite its vertex slot i; each edge once."""
    k, i = np.nonzero(hull.neighbors > np.arange(len(hull.simplices))[:, None])
    return k, i, hull.neighbors[k, i]


def _bulge(hull) -> float:
    """Largest height, above the plane of its neighbour, of a facet's vertex
    opposite a shared edge; at most 0 on every edge when the surface is convex."""
    k, i, m = _ridges(hull)
    opposite = hull.points[hull.simplices[k, i]]
    return float((np.einsum("ij,ij->i", hull.equations[m, :3], opposite) + hull.equations[m, 3]).max())


def _polytope_mean_width_term(hull) -> float:
    """sum over ConvexHull edges of edge length times exterior dihedral angle."""
    k, i, m = _ridges(hull)
    simplices = hull.simplices
    # the edge's end points are the two slots other than i
    ends = hull.points[simplices[k, (i + 1) % 3]] - hull.points[simplices[k, (i + 2) % 3]]
    normals = hull.equations[:, :3]
    cos = np.clip(np.einsum("ij,ij->i", normals[k], normals[m]), -1.0, 1.0)
    return float(np.linalg.norm(ends, axis=1) @ np.arccos(cos))


def roundness(norm: MinkowskiNorm, metric: np.ndarray) -> tuple[float, float]:
    """(mu, M): min and max of F(xi)/sqrt(xi^T G xi) over xi != 0, that is
    of F o A over the unit sphere, with A = L^{-T} from ``orthonormalize``.

    Exact, in any dimension, where the norm's family has a closed form: a
    polytope gauge (1 / its farthest vertex, and its nearest facet plane),
    a euclidean norm (the extreme singular values), l^p with p = 1, 2 or
    inf, and linear images of these.  A closed form that over- or
    underflows raises ``NumericalFailure``.

    Every other norm (``QuarticAxial``, ``WeightedSum``, l^p with another
    p) is searched: a dense sample of the G-unit sphere (4096 directions in
    2D, 20000 otherwise) plus the norm's extremal candidates, then one
    ``sphere_polish`` search from the lowest and the highest sample: the
    minimum and the maximum share every objective call.  The search grid
    starts 4 angular steps of the 2D sample wide, walks (and stretches)
    when the optimum lies beyond it, turns along a kink ridge of F, and
    stops at 1e-12 in angle (2D) or 1e-9 on the tangent chart.
    """
    body = orthonormalize(norm, metric)
    with np.errstate(all="ignore"):      # an overflow gives a non-finite pair
        exact = norm._exact_roundness(body.matrix, body._inv)
    if exact is not None:
        if not (np.isfinite(exact).all() and exact[0] > 0.0):
            raise NumericalFailure(f"roundness is not finite: {exact}")
        return exact
    n = body.dim
    grid = 4096 if n == 2 else 20000
    dirs = sphere_directions(body, grid)
    vals = body.values(dirs)
    ends = [int(np.argmin(vals)), int(np.argmax(vals))]
    sign = np.array([[1.0], [-1.0]])
    lo, neg_hi = sphere_polish(
        lambda u: sign * body.values(u.reshape(-1, n)).reshape(u.shape[:-1]),
        dirs[ends] / np.linalg.norm(dirs[ends], axis=1, keepdims=True), _TWO_PI / grid * 4.0)
    return min(float(vals[ends[0]]), float(lo)), max(float(vals[ends[1]]), float(-neg_hi))


def isotropy_defect(norm: MinkowskiNorm) -> float:
    """M/mu - 1 against the norm's own metric; ~0 certifies a euclidean norm."""
    mu, big_m = roundness(norm, bl_metric(norm, 0).metric)
    return big_m / mu - 1.0


def fingerprint_point(bl: BLMetric) -> np.ndarray:
    """(W_0, ..., W_{n-1}, mu, M) of the record's norm against its own
    metric; dimensions other than 2 and 3 raise in ``quermassintegrals``."""
    qm = quermassintegrals(bl)
    mu, big_m = roundness(bl.norm, bl.metric)
    return np.concatenate([qm.values[: bl.norm.dim], [mu, big_m]])


@dataclass
class FingerprintComparison:
    hausdorff: float
    quantile95: float
    verdict: str  # "cannot distinguish" | "not conformally equivalent"
    tol: float

    @property
    def distinguishable(self) -> bool:
        return self.verdict == "not conformally equivalent"


def compare_fingerprints(cloud_a, cloud_b, tol: float = 1e-3) -> FingerprintComparison:
    """Normalized symmetric Hausdorff distance between fingerprint clouds.

    Coordinates are rescaled by the pooled interquartile range so that
    heterogeneous units (areas vs ratios) weigh comparably; a coordinate
    with degenerate spread falls back to a magnitude-based scale.  The
    one-sided conclusion mirrors the underlying test: a large distance
    certifies "not conformally equivalent", a small one only means the
    clouds cannot be told apart.
    """
    from scipy.spatial import cKDTree

    a = np.atleast_2d(as_finite(cloud_a, "fingerprint cloud a"))
    b = np.atleast_2d(as_finite(cloud_b, "fingerprint cloud b"))
    if a.size == 0 or b.size == 0:
        raise InputError("fingerprint clouds must be non-empty")
    if a.shape[1] != b.shape[1]:
        raise InputError("fingerprint clouds have different dimensions")
    pooled = np.vstack([a, b])
    # entries near the float limit overflow the scaling or the distances
    with np.errstate(over="ignore", invalid="ignore"):
        q25, med, q75 = np.percentile(pooled, [25, 50, 75], axis=0)
        scale = q75 - q25
        degenerate = scale < 1e-12 * (1.0 + np.abs(med))
        scale[degenerate] = 1.0 + np.abs(med[degenerate])
        an = a / scale
        bn = b / scale
        if not (np.isfinite(an).all() and np.isfinite(bn).all()):
            raise NumericalFailure("fingerprint clouds are too large to scale")
        d_ab = cKDTree(bn).query(an)[0]
        d_ba = cKDTree(an).query(bn)[0]
        hausdorff = float(max(d_ab.max(), d_ba.max()))
        q95 = float(max(np.percentile(d_ab, 95), np.percentile(d_ba, 95)))
    verdict = "cannot distinguish" if hausdorff <= tol else "not conformally equivalent"
    return FingerprintComparison(hausdorff, q95, verdict, tol)
