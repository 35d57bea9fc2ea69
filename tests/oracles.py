"""Independent brute-force oracles used to generate and check expected values.

Nothing here shares code paths with the library: hull membership goes
through nonnegative least squares, volumes through Monte Carlo rejection,
distances through explicit point-to-segment geometry.
"""

import math

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import cKDTree


def random_spd(rng, n, lo=0.5, hi=2.0):
    """Random symmetric positive definite matrix with eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def random_invertible(rng, n):
    """Random matrix with smallest singular value > 0.2 and condition < 8."""
    while True:
        a = rng.standard_normal((n, n))
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] > 0.2 and s[0] / s[-1] < 8.0:
            return a


def lp_ball_record(p, n):
    """(vol, c) of the unit ball of the l_p norm in R^n, with M* = c I, from
    Dirichlet's integral  int prod |x_i|^(a_i - 1) dx
    = 2^n prod(Gamma(1 + a_i/p) / a_i) / Gamma(1 + sum(a_i)/p)."""
    vol = 2 ** n * math.gamma(1 + 1 / p) ** n / math.gamma(1 + n / p)
    second = 2 ** n * math.gamma(1 + 3 / p) * math.gamma(1 + 1 / p) ** (n - 1) / (
        3 * math.gamma(1 + (n + 2) / p))
    return vol, (n + 2) * second / vol


def ellipsoid_moment(shape, scale, theta):
    """integral over {xi : xi^T shape xi <= scale^2} of (theta . xi)^2 d xi:
    the ellipsoid is L^-T (scale * ball) for shape = L L^T, whose volume is
    omega_n scale^n / sqrt(det shape) and whose normalized second moment is
    scale^2 shape^-1, so the integral is vol scale^2 theta^T shape^-1 theta / (n+2)."""
    shape = np.asarray(shape, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n = len(shape)
    omega = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    vol = omega * scale ** n / math.sqrt(np.linalg.det(shape))
    return vol * scale ** 2 * float(theta @ np.linalg.solve(shape, theta)) / (n + 2)


def in_hull(vertices, point, tol=1e-10):
    """Convex-combination membership via NNLS (no half-space data).

    The residual is recomputed from the solution; the norm reported by
    scipy's nnls is not trustworthy across versions."""
    v = np.asarray(vertices, dtype=float)
    a = np.vstack([v.T, np.ones(len(v))])
    b = np.concatenate([np.asarray(point, dtype=float), [1.0]])
    sol, _ = nnls(a, b)
    return float(np.linalg.norm(a @ sol - b)) <= tol


def gauge_by_bisection(vertices, xi, tol=1e-12):
    """min { t > 0 : xi / t in hull } by bisection on hull membership."""
    xi = np.asarray(xi, dtype=float)
    hi = 1.0
    while not in_hull(vertices, xi / hi):
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("point appears unreachable; is 0 interior?")
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid == 0.0 or not in_hull(vertices, xi / mid):
            lo = mid
        else:
            hi = mid
    return hi


def mc_body_moment(contains, box_lo, box_hi, theta, samples=10 ** 6, seed=0,
                   chunk=2 ** 20):
    """Monte-Carlo integral of (theta . x)^2 over {contains}; (value, stderr)."""
    box_lo = np.asarray(box_lo, dtype=float)
    box_hi = np.asarray(box_hi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    vol = float(np.prod(box_hi - box_lo))
    rng = np.random.default_rng(seed)
    tot = tot2 = 0.0
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        pts = rng.uniform(box_lo, box_hi, size=(m, len(box_lo)))
        vals = np.where(contains(pts), (pts @ theta) ** 2, 0.0)
        tot += vals.sum()
        tot2 += (vals ** 2).sum()
        done += m
    mean = tot / done
    var = max(tot2 / done - mean ** 2, 0.0)
    return vol * mean, vol * np.sqrt(var / done)


class PolygonDistance:
    """Exact euclidean distance to a convex polygon given as a dense
    CCW boundary polyline (nearest segment is adjacent to nearest vertex)."""

    def __init__(self, boundary_points):
        self.pts = np.asarray(boundary_points, dtype=float)
        self.tree = cKDTree(self.pts)
        self.m = len(self.pts)

    def _segment_distance(self, p, i):
        a = self.pts[i]
        b = self.pts[(i + 1) % self.m]
        ab = b - a
        denom = np.maximum((ab * ab).sum(axis=1), 1e-300)
        t = np.clip(((p - a) * ab).sum(axis=1) / denom, 0.0, 1.0)
        return np.linalg.norm(p - (a + t[:, None] * ab), axis=1)

    def distance(self, points):
        points = np.atleast_2d(points)
        _, idx = self.tree.query(points)
        return np.minimum(self._segment_distance(points, (idx - 1) % self.m),
                          self._segment_distance(points, idx))


def mc_dilated_area(norm, t, samples=400_000, seed=0, boundary_size=4096):
    """Monte-Carlo area of {F <= 1} + t * disk, for a 2D norm.

    Membership: either inside the body (dense-polygon gauge of the boundary
    polyline) or within distance t of it.
    """
    ang = np.arange(boundary_size) * (2.0 * np.pi / boundary_size)
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    boundary = dirs / norm.values(dirs)[:, None]
    poly = PolygonDistance(boundary)

    reach = np.abs(boundary).max() + t
    lo = np.array([-reach, -reach])
    hi = np.array([reach, reach])
    rng = np.random.default_rng(seed)
    inside_count = 0
    done = 0
    chunk = 65536
    while done < samples:
        m = min(chunk, samples - done)
        pts = rng.uniform(lo, hi, size=(m, 2))
        inside = norm.values(pts) <= 1.0
        near = ~inside
        if near.any():
            d = poly.distance(pts[near])
            inside[near.nonzero()[0][d <= t]] = True
        inside_count += int(inside.sum())
        done += m
    area = float(np.prod(hi - lo))
    est = area * inside_count / done
    err = area * np.sqrt(inside_count) / done  # ~binomial, coarse bound
    return est, err


def polygon_dual_moment_matrix(vertices):
    """Exact normalized second-moment matrix of a polygon containing 0.

    Fan the polygon into triangles (0, v_k, v_{k+1}) and use the simplex
    moment identity integral_T x x^T dA = (area/12) (sum p p^T + s s^T)
    with s the vertex sum; the result is (n+2)/area * integral x x^T.
    """
    v = np.asarray(vertices, dtype=float)
    ang = np.mod(np.arctan2(v[:, 1], v[:, 0]), 2.0 * np.pi)
    v = v[np.argsort(ang)]
    total_area = 0.0
    second = np.zeros((2, 2))
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        area = 0.5 * abs(a[0] * b[1] - a[1] * b[0])
        s = a + b
        second += (area / 12.0) * (np.outer(a, a) + np.outer(b, b) + np.outer(s, s))
        total_area += area
    return 4.0 * second / total_area


def conformal_christoffel(phi_grad):
    """Levi-Civita symbols of exp(2 phi) * identity from the gradient of phi."""
    g = np.asarray(phi_grad, dtype=float)
    n = len(g)
    gam = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gam[k, i, j] = ((k == i) * g[j] + (k == j) * g[i]
                                - (i == j) * g[k])
    return gam


def polytope_mean_width_term(hull):
    """sum over the edges of a 3D hull of edge length times exterior dihedral
    angle, one edge at a time (each edge seen from its lower-index facet)."""
    normals = hull.equations[:, :3]
    total = 0.0
    for k in range(len(hull.simplices)):
        for i in range(3):
            m = hull.neighbors[k, i]
            if m < k:
                continue
            a, b = [hull.simplices[k, j] for j in range(3) if j != i]
            length = np.linalg.norm(hull.points[a] - hull.points[b])
            c = float(np.clip(normals[k] @ normals[m], -1.0, 1.0))
            total += length * np.arccos(c)
    return total
