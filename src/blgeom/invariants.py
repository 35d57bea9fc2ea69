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
from scipy.spatial import ConvexHull, cKDTree

from .errors import InputError, UnsupportedDimensionError
from .metric import assert_spd, bl_metric, unit_ball_volume
from .norms import (_TWO_PI, LinearImage, MinkowskiNorm, sphere_directions,
                    sphere_polish)
from .quadrature import auto_quadrature


def orthonormalize(norm: MinkowskiNorm, metric: np.ndarray) -> LinearImage:
    """Express the norm in coordinates where ``metric`` becomes identity.

    With G = L L^T (Cholesky), the substitution xi = L^{-T} xi' maps the
    quadratic form to the identity; the returned norm is xi' -> F(L^{-T} xi').
    Its metric pulled back through the same substitution is the identity.
    """
    G = np.asarray(metric, dtype=float)
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


def quermassintegrals(norm: MinkowskiNorm, metric: np.ndarray, *,
                      level: int = 0) -> Quermassintegrals:
    """Steiner coefficients of the unit ball in G-orthonormal coordinates.

    n = 2: W_0 = area (radial integral), W_1 = half the support-function
    integral over the circle (Cauchy's perimeter formula), W_2 = pi.
    n = 3: the body is approximated by the polytope inscribed through
    20000 * 2^level directions; W_0 = volume, W_1 = surface/3, and W_2 comes
    from the exact polytope mean-width term sum(edge length * exterior
    dihedral angle) / 6, with W_3 = 4 pi / 3.
    Other dimensions raise; there is no silent fallback.
    """
    n = norm.dim
    body = orthonormalize(norm, metric)
    if n == 2:
        w0 = unit_ball_volume(body, auto_quadrature(body, level=level))
        squad = auto_quadrature(body, level=level, use_support_kinks=True)
        h = body.support_batch(squad.nodes)
        w1 = 0.5 * float(np.dot(squad.weights, h))
        return Quermassintegrals(np.array([w0, w1, np.pi]), 2)
    if n == 3:
        dirs = sphere_directions(body, 20000 << level)
        verts = dirs / body.values(dirs)[:, None]
        hull = ConvexHull(verts)
        w0 = hull.volume
        w1 = hull.area / 3.0
        w2 = _polytope_mean_width_term(hull) / 6.0
        return Quermassintegrals(np.array([w0, w1, w2, 4.0 * np.pi / 3.0]), 3)
    raise UnsupportedDimensionError(
        f"quermassintegrals are implemented for n in {{2, 3}}, got n = {n}")


def _polytope_mean_width_term(hull: ConvexHull) -> float:
    """sum over hull edges of edge length times exterior dihedral angle."""
    simplices, neighbors = hull.simplices, hull.neighbors
    # each edge once: facet k meets its neighbour m > k across the edge
    # opposite vertex slot i, whose end points are the other two slots
    k, i = np.nonzero(neighbors > np.arange(len(simplices))[:, None])
    m = neighbors[k, i]
    ends = hull.points[simplices[k, (i + 1) % 3]] - hull.points[simplices[k, (i + 2) % 3]]
    normals = hull.equations[:, :3]
    cos = np.clip(np.einsum("ij,ij->i", normals[k], normals[m]), -1.0, 1.0)
    return float(np.linalg.norm(ends, axis=1) @ np.arccos(cos))


def roundness(norm: MinkowskiNorm, metric: np.ndarray) -> tuple[float, float]:
    """(mu, M): min and max of F(xi)/sqrt(xi^T G xi) over xi != 0.

    Dense sampling of the G-unit sphere (4096 directions in 2D, 20000
    otherwise) followed by ``sphere_polish`` at the best sample.  For
    polytope gauges the candidate set includes the vertex and facet-normal
    directions, where the extrema provably sit.
    """
    body = orthonormalize(norm, metric)
    grid = 4096 if body.dim == 2 else 20000
    dirs = sphere_directions(body, grid)
    vals = body.values(dirs)
    width = _TWO_PI / grid * 4.0
    return (_refine_extremum(body, dirs, vals, width, sign=+1),
            _refine_extremum(body, dirs, vals, width, sign=-1))


def _refine_extremum(body, dirs, vals, width, sign):
    # sign=+1 refines the minimum, sign=-1 the maximum
    idx = int(np.argmin(sign * vals))
    best = float(vals[idx])
    refined = sign * sphere_polish(lambda u: sign * float(body.values(u)),
                                   dirs[idx] / np.linalg.norm(dirs[idx]), width, best)
    return min(best, refined) if sign > 0 else max(best, refined)


def isotropy_defect(norm: MinkowskiNorm) -> float:
    """M/mu - 1 against the norm's own metric; ~0 certifies a euclidean norm."""
    g = bl_metric(norm, auto_quadrature(norm))
    mu, big_m = roundness(norm, g)
    return big_m / mu - 1.0


def fingerprint_point(norm: MinkowskiNorm, *, level: int = 0,
                      metric: np.ndarray | None = None) -> np.ndarray:
    """(W_0, ..., W_{n-1}, mu, M) against the norm's own metric, solved
    here unless the caller passes it as ``metric``."""
    if norm.dim not in (2, 3):
        raise UnsupportedDimensionError("fingerprints are implemented for n in {2, 3}")
    g = bl_metric(norm, auto_quadrature(norm, level=level)) if metric is None else metric
    qm = quermassintegrals(norm, g, level=level)
    mu, big_m = roundness(norm, g)
    return np.concatenate([qm.values[: norm.dim], [mu, big_m]])


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
    a = np.atleast_2d(np.asarray(cloud_a, dtype=float))
    b = np.atleast_2d(np.asarray(cloud_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise InputError("fingerprint clouds must be non-empty")
    if a.shape[1] != b.shape[1]:
        raise InputError("fingerprint clouds have different dimensions")
    pooled = np.vstack([a, b])
    q25, med, q75 = np.percentile(pooled, [25, 50, 75], axis=0)
    scale = q75 - q25
    degenerate = scale < 1e-12 * (1.0 + np.abs(med))
    scale[degenerate] = 1.0 + np.abs(med[degenerate])
    an = a / scale
    bn = b / scale
    d_ab = cKDTree(bn).query(an)[0]
    d_ba = cKDTree(an).query(bn)[0]
    hausdorff = float(max(d_ab.max(), d_ba.max()))
    q95 = float(max(np.percentile(d_ab, 95), np.percentile(d_ba, 95)))
    verdict = "cannot distinguish" if hausdorff <= tol else "not conformally equivalent"
    return FingerprintComparison(hausdorff, q95, verdict, tol)
