"""Minkowski norms on R^n, possibly asymmetric, with validated oracles.

A Minkowski norm F is positively homogeneous (F(t*xi) = t*F(xi) for t >= 0),
subadditive, and vanishes only at the origin.  Symmetry F(-xi) = F(xi) is
*not* assumed anywhere; every downstream integral runs over the full sphere.

Families implemented here:

* :class:`Euclidean` -- F(xi) = sqrt(xi^T G xi) for a positive definite G.
* :class:`LpNorm` -- the l^p norms, 1 <= p <= inf (p = inf is the max norm).
* :class:`PolytopeGauge` -- gauge of a convex polytope with 0 interior.
* :class:`LinearImage` -- F(xi) = inner(A xi) for invertible A.
* :class:`WeightedSum` -- w1*F1 + w2*F2 with w1, w2 >= 0, w1 + w2 > 0.
* :class:`QuarticAxial` -- ((sum xi_i^2)^2 + xi_n^4)^(1/4), a smooth
  non-euclidean norm invariant under rotations fixing the last axis.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.spatial import ConvexHull

from .errors import ConstructionError, InputError

# A vector shorter than this is treated as the zero vector when deciding
# definiteness (F(xi) = 0 only for xi = 0).
ZERO_VECTOR_CUTOFF = 1e-30

_TWO_PI = 2.0 * np.pi

# Largest dimension of a norm: Monte-Carlo quadrature (n >= 4) holds 1e6 * 2^level
# points of R^n, and a polytope hull can have exponentially many facets.
MAX_DIM = 6


def as_integer(value, what: str) -> int:
    """``value`` as an int; a bool, a non-number or a fraction is an InputError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


def as_dimension(value, least: int) -> int:
    """``value`` as a norm dimension in [least, MAX_DIM]; otherwise an InputError."""
    dim = as_integer(value, "dimension")
    if not least <= dim <= MAX_DIM:
        raise InputError(f"dimension must be between {least} and {MAX_DIM}, got {value!r}")
    return dim


def _as_points(xi, dim):
    pts = np.asarray(xi, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
        squeeze = True
    elif pts.ndim == 2:
        squeeze = False
    else:
        raise InputError(f"expected a vector or a (k, {dim}) array, got shape {pts.shape}")
    if pts.shape[1] != dim:
        raise InputError(f"dimension mismatch: norm lives on R^{dim}, input has {pts.shape[1]} components")
    if not np.all(np.isfinite(pts)):
        raise InputError("input contains non-finite components")
    return pts, squeeze


class MinkowskiNorm:
    """Base class.  Subclasses implement ``_values`` on (k, n) arrays."""

    dim: int

    def _values(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def values(self, xi) -> np.ndarray:
        """Evaluate F on a vector or a batch of row vectors."""
        pts, squeeze = _as_points(xi, self.dim)
        out = self._values(pts)
        tiny = np.linalg.norm(pts, axis=1) < ZERO_VECTOR_CUTOFF
        if np.any(tiny):
            out = np.where(tiny, 0.0, out)
        return out[0] if squeeze else out

    def __call__(self, xi):
        return self.values(xi)

    # -- support function -------------------------------------------------

    def support(self, theta) -> float:
        """h(theta) = max { theta . xi : F(xi) <= 1 }.

        Exact for families with a closed form; otherwise a dense boundary
        scan followed by local refinement to ~1e-8 relative accuracy.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise InputError(f"covector must have shape ({self.dim},)")
        if np.linalg.norm(theta) == 0.0:
            raise InputError("support direction must be nonzero")
        return self._support_one(theta)

    def support_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Support values for many covectors.

        Generic families evaluate against a dense boundary cloud (no local
        polish, intended for integrals where the O(grid^-2) per-direction
        error averages out); families with closed forms override this.
        """
        thetas = np.asarray(thetas, dtype=float)
        cloud = self.boundary_cloud()
        out = np.empty(len(thetas))
        for start in range(0, len(thetas), 256):
            block = thetas[start:start + 256]
            out[start:start + 256] = (block @ cloud.T).max(axis=1)
        return out

    def _support_one(self, theta):
        return _generic_support(self, theta)

    # -- structure hints used by quadrature and sphere optimizers ---------

    def kink_angles(self) -> np.ndarray:
        """Angles in [0, 2pi) where F is non-smooth (2D families only)."""
        return np.empty(0)

    def support_kink_angles(self) -> np.ndarray:
        """Angles where the support function is non-smooth (2D only)."""
        return np.empty(0)

    def extremal_candidates(self) -> Optional[np.ndarray]:
        """Unit directions where extrema of F over the sphere may sit."""
        return None

    # boundary cloud cache, shared by generic support/extrema scans
    _cloud: Optional[np.ndarray] = None

    def boundary_cloud(self) -> np.ndarray:
        """Dense sample of the unit-ball boundary, u / F(u), computed once."""
        if self._cloud is None:
            dirs = sphere_directions(self, 16384 if self.dim == 3 else 8192)
            self._cloud = dirs / self.values(dirs)[:, None]
        return self._cloud


def sphere_grid(dim: int, size: int, seed: int = 0) -> np.ndarray:
    """Roughly uniform unit directions: angular grid (2D), Fibonacci (3D),
    seeded Gaussian directions otherwise."""
    if dim == 2:
        ang = np.arange(size) * (_TWO_PI / size)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if dim == 3:
        i = np.arange(size) + 0.5
        z = 1.0 - 2.0 * i / size
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        phi = np.pi * (1.0 + np.sqrt(5.0)) * i
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((size, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _plane_angles(dirs: np.ndarray) -> np.ndarray:
    """Sorted polar angles in [0, 2pi) of the rows of ``dirs``; none off the plane."""
    if dirs.shape[1] != 2:
        return np.empty(0)
    return np.sort(np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), _TWO_PI))


def _tangent_basis(u):
    # orthonormal basis of the hyperplane orthogonal to u
    n = len(u)
    q, _ = np.linalg.qr(np.column_stack([u, np.eye(n)[:, : n - 1]]))
    return q[:, 1:]


def sphere_directions(norm: MinkowskiNorm, size: int) -> np.ndarray:
    """``sphere_grid(norm.dim, size)`` followed by the norm's extremal candidates."""
    dirs = sphere_grid(norm.dim, size)
    extra = norm.extremal_candidates()
    return dirs if extra is None or not len(extra) else np.vstack([dirs, extra])


def sphere_polish(objective, u0, width: float, scale: float) -> float:
    """Local minimum of ``objective`` over unit vectors, started at the unit
    vector u0.

    In 2D a bounded scalar search over the angles within ``width`` of u0;
    otherwise Nelder-Mead on the tangent chart at u0, with value tolerance
    1e-12 * max(1, |scale|) for objectives of size ``scale``.
    """
    if len(u0) == 2:
        a0 = np.arctan2(u0[1], u0[0])
        res = minimize_scalar(lambda a: objective(np.array([np.cos(a), np.sin(a)])),
                              bounds=(a0 - width, a0 + width), method="bounded",
                              options={"xatol": 1e-12})
        return float(res.fun)
    basis = _tangent_basis(u0)

    def on_chart(t):
        v = u0 + basis @ t
        return objective(v / np.linalg.norm(v))

    res = minimize(on_chart, np.zeros(len(u0) - 1), method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-12 * max(1.0, abs(scale)),
                            "maxiter": 600})
    return float(res.fun)


def _generic_support(norm, theta):
    # the best boundary-cloud point, polished on the sphere
    cloud = norm.boundary_cloud()
    scores = cloud @ theta
    best = int(np.argmax(scores))
    h0 = scores[best]
    u0 = cloud[best] / np.linalg.norm(cloud[best])
    neg = sphere_polish(lambda u: -(theta @ u) / norm.values(u), u0,
                        _TWO_PI / len(cloud) * 4.0, h0)
    return float(max(h0, -neg))


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------


class Euclidean(MinkowskiNorm):
    """F(xi) = sqrt(xi^T G xi) for a symmetric positive definite matrix G."""

    def __init__(self, matrix):
        G = np.asarray(matrix, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise InputError("euclidean norm needs a square matrix")
        if not np.isfinite(G).all():
            raise InputError("matrix entries must be finite")
        if not np.allclose(G, G.T, atol=1e-12 * max(1.0, np.abs(G).max())):
            raise InputError("matrix must be symmetric")
        self.dim = as_dimension(G.shape[0], 1)
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise InputError("matrix must be positive definite") from exc
        self.matrix = G
        self._inv = np.linalg.inv(G)

    def _values(self, pts):
        return np.sqrt(np.einsum("ki,ij,kj->k", pts, self.matrix, pts))

    def _support_one(self, theta):
        return float(np.sqrt(theta @ self._inv @ theta))

    def support_batch(self, thetas):
        return np.sqrt(np.einsum("ki,ij,kj->k", thetas, self._inv, thetas))

    def extremal_candidates(self):
        _, vecs = np.linalg.eigh(self.matrix)
        return np.vstack([vecs.T, -vecs.T])

    def __repr__(self):
        return f"Euclidean(dim={self.dim})"


def _p_norms(pts, p):
    """The l^p norm of every row, 1 <= p <= inf.  Rows are scaled by their
    largest entry first, so no power over- or underflows at large finite p."""
    a = np.abs(pts)
    top = a.max(axis=1)
    if np.isinf(p):
        return top
    top = np.where(top > 0.0, top, 1.0)          # a zero row stays zero
    return top * ((a / top[:, None]) ** p).sum(axis=1) ** (1.0 / p)


class LpNorm(MinkowskiNorm):
    """The l^p norm, 1 <= p <= inf.  p = inf is the max norm (no limits taken)."""

    def __init__(self, p, dim):
        p = float(p)
        if not (p >= 1.0):
            raise InputError("p must be >= 1")
        self.p = p
        self.dim = as_dimension(dim, 1)

    def _values(self, pts):
        return _p_norms(pts, self.p)

    def _dual_exponent(self):
        if np.isinf(self.p):
            return 1.0
        if self.p == 1.0:
            return np.inf
        return self.p / (self.p - 1.0)

    def _support_one(self, theta):
        return float(_p_norms(theta[None, :], self._dual_exponent())[0])

    def support_batch(self, thetas):
        return _p_norms(np.asarray(thetas, dtype=float), self._dual_exponent())

    def _axis_angles(self):
        return np.array([0.0, 0.5, 1.0, 1.5]) * np.pi

    def _diag_angles(self):
        return np.array([0.25, 0.75, 1.25, 1.75]) * np.pi

    def kink_angles(self):
        if self.dim != 2:
            return np.empty(0)
        if np.isinf(self.p):
            return self._diag_angles()
        if self.p < 2.0:
            return self._axis_angles()  # p=1 kinks; 1<p<2 derivative blow-up
        return np.empty(0)

    def support_kink_angles(self):
        if self.dim != 2:
            return np.empty(0)
        q = self._dual_exponent()
        if np.isinf(q):
            return self._diag_angles()
        if q < 2.0:
            return self._axis_angles()
        return np.empty(0)

    def extremal_candidates(self):
        axes = np.vstack([np.eye(self.dim), -np.eye(self.dim)])
        diags = sphere_grid(self.dim, 2 ** min(self.dim, 6), seed=1)
        corners = np.sign(diags)
        corners = corners / np.linalg.norm(corners, axis=1, keepdims=True)
        return np.vstack([axes, corners])

    def __repr__(self):
        return f"LpNorm(p={self.p}, dim={self.dim})"


class PolytopeGauge(MinkowskiNorm):
    """Gauge of the convex hull of ``vertices``; 0 must be strictly interior.

    F(xi) = min { t > 0 : xi / t in hull } is the maximum of the facet
    functionals xi -> n . xi / b of the precomputed hull, in every
    dimension (in the plane the facets are the polygon's edges).
    """

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] < V.shape[1] + 1:
            raise ConstructionError("need at least n+1 vertices of full dimension")
        if not np.all(np.isfinite(V)):
            raise ConstructionError("vertices contain non-finite entries")
        self.dim = as_dimension(V.shape[1], 1)
        try:
            hull = ConvexHull(V)
        except Exception as exc:  # qhull raises its own error types
            raise ConstructionError(f"convex hull construction failed: {exc}") from exc
        # hull.equations rows are [unit outward normal, offset] with
        # normal.x + offset <= 0 inside
        normals = hull.equations[:, :-1]
        offsets = -hull.equations[:, -1]
        scale = np.abs(V).max()
        if np.any(offsets <= 1e-12 * scale):
            raise ConstructionError("origin is not strictly interior to the polytope hull")
        self.vertices = V[hull.vertices]
        self._facet_normals = normals
        self._facet_offsets = offsets

    def _values(self, pts):
        ratios = (pts @ self._facet_normals.T) / self._facet_offsets
        return np.maximum(ratios.max(axis=1), 0.0)

    def _support_one(self, theta):
        return float((self.vertices @ theta).max())

    def support_batch(self, thetas):
        return (thetas @ self.vertices.T).max(axis=1)

    def kink_angles(self):
        return _plane_angles(self.vertices)

    def support_kink_angles(self):
        return _plane_angles(self._facet_normals)

    def extremal_candidates(self):
        vdirs = self.vertices / np.linalg.norm(self.vertices, axis=1, keepdims=True)
        return np.vstack([vdirs, self._facet_normals])

    def __repr__(self):
        return f"PolytopeGauge(dim={self.dim}, vertices={len(self.vertices)})"


class LinearImage(MinkowskiNorm):
    """F(xi) = inner(A xi) for an invertible matrix A."""

    def __init__(self, matrix, inner: MinkowskiNorm):
        A = np.asarray(matrix, dtype=float)
        if A.shape != (inner.dim, inner.dim):
            raise InputError("matrix shape must match the inner norm dimension")
        # the determinant of A scaled to unit entries, so that a folded chain
        # such as 1e200 I, whose own determinant overflows, still passes
        scale = np.abs(A).max()
        if not (np.isfinite(scale) and scale > 0) or abs(np.linalg.det(A / scale)) < 1e-300:
            raise InputError("matrix must be invertible")
        self.dim = inner.dim
        self.matrix = A
        self.inner = inner
        self._inv = np.linalg.inv(A)

    def _values(self, pts):
        return self.inner.values(pts @ self.matrix.T)

    def _support_one(self, theta):
        return self.inner.support(self._inv.T @ theta)

    def support_batch(self, thetas):
        return self.inner.support_batch(thetas @ self._inv)

    def _map_angles(self, angles, mat):
        if len(angles) == 0:
            return angles
        return _plane_angles(np.column_stack([np.cos(angles), np.sin(angles)]) @ mat.T)

    def kink_angles(self):
        # F is non-smooth along A^{-1} d for every kink direction d of inner
        return self._map_angles(self.inner.kink_angles(), self._inv)

    def support_kink_angles(self):
        return self._map_angles(self.inner.support_kink_angles(), self.matrix.T)

    def extremal_candidates(self):
        cand = self.inner.extremal_candidates()
        if cand is None:
            return None
        mapped = np.vstack([cand @ self._inv.T, cand @ self.matrix])
        return mapped / np.linalg.norm(mapped, axis=1, keepdims=True)

    def __repr__(self):
        return f"LinearImage({self.inner!r})"


class WeightedSum(MinkowskiNorm):
    """F = w1*F1 + w2*F2 with nonnegative weights, w1 + w2 > 0."""

    def __init__(self, w1, w2, first: MinkowskiNorm, second: MinkowskiNorm):
        if first.dim != second.dim:
            raise InputError("component norms must share a dimension")
        w1, w2 = float(w1), float(w2)
        if not (np.isfinite([w1, w2]).all() and w1 >= 0 and w2 >= 0 and w1 + w2 > 0):
            raise InputError("weights must be finite and nonnegative with positive sum")
        self.dim = first.dim
        self.w1, self.w2 = w1, w2
        self.first, self.second = first, second

    def _values(self, pts):
        out = 0.0
        if self.w1:
            out = self.w1 * self.first.values(pts)
        if self.w2:
            out = out + self.w2 * self.second.values(pts)
        return out

    def kink_angles(self):
        parts = []
        if self.w1:
            parts.append(self.first.kink_angles())
        if self.w2:
            parts.append(self.second.kink_angles())
        return np.unique(np.concatenate(parts)) if parts else np.empty(0)

    def support_kink_angles(self):
        parts = [self.first.support_kink_angles(), self.second.support_kink_angles()]
        return np.unique(np.concatenate(parts))

    def extremal_candidates(self):
        parts = [c for c in (self.first.extremal_candidates(),
                             self.second.extremal_candidates()) if c is not None]
        return np.vstack(parts) if parts else None

    def __repr__(self):
        return f"WeightedSum({self.w1}*{self.first!r} + {self.w2}*{self.second!r})"


class QuarticAxial(MinkowskiNorm):
    """F(xi) = ((sum_i xi_i^2)^2 + xi_n^4)^(1/4).

    Smooth, non-euclidean, invariant under every rotation fixing the last
    coordinate axis and under xi_n -> -xi_n.
    """

    def __init__(self, dim):
        self.dim = as_dimension(dim, 2)

    def _values(self, pts):
        ssq = np.einsum("ki,ki->k", pts, pts)
        return (ssq * ssq + pts[:, -1] ** 4) ** 0.25

    def extremal_candidates(self):
        return np.vstack([np.eye(self.dim), -np.eye(self.dim)])

    def __repr__(self):
        return f"QuarticAxial(dim={self.dim})"


# ---------------------------------------------------------------------------
# free-function interface
# ---------------------------------------------------------------------------


def linear_image(norm: MinkowskiNorm, matrix) -> LinearImage:
    """The norm xi -> F(A xi)."""
    return LinearImage(matrix, norm)


def rescale(norm: MinkowskiNorm, kappa: float) -> LinearImage:
    """The norm kappa * F, realized as the linear image by kappa * I."""
    if not (kappa > 0):
        raise InputError("scale factor must be positive")
    return LinearImage(kappa * np.eye(norm.dim), norm)


@dataclass
class ValidationReport:
    """Worst-case axiom residuals of a norm over random samples."""

    samples: int
    homogeneity_residual: float
    homogeneity_witness: np.ndarray
    subadditivity_residual: float
    subadditivity_witness: np.ndarray
    min_on_unit_sphere: float
    min_witness: np.ndarray
    homogeneity_tol: float = 1e-9
    subadditivity_tol: float = 1e-9

    @property
    def ok(self) -> bool:
        return (self.homogeneity_residual <= self.homogeneity_tol
                and self.subadditivity_residual <= self.subadditivity_tol
                and self.min_on_unit_sphere > 0.0)

    def summary(self) -> str:
        state = "pass" if self.ok else "FAIL"
        return (f"validation {state}: homogeneity {self.homogeneity_residual:.3e}, "
                f"subadditivity {self.subadditivity_residual:.3e}, "
                f"min F on sphere {self.min_on_unit_sphere:.6g} ({self.samples} samples)")


def validate(norm: MinkowskiNorm, sample_count: int = 1000, seed: int = 0) -> ValidationReport:
    """Check the Minkowski axioms on random samples.

    Reports the worst homogeneity residual |F(t*xi) - t*F(xi)| / (1 + F(xi)),
    the worst relative subadditivity violation, and the minimum of F over
    random unit vectors (definiteness).
    """
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    n = norm.dim

    xi = rng.standard_normal((sample_count, n)) * rng.lognormal(0.0, 1.0, (sample_count, 1))
    eta = rng.standard_normal((sample_count, n)) * rng.lognormal(0.0, 1.0, (sample_count, 1))
    lam = rng.uniform(1e-3, 10.0, sample_count)

    f_xi = norm.values(xi)
    f_eta = norm.values(eta)
    f_scaled = norm.values(lam[:, None] * xi)
    hom = np.abs(f_scaled - lam * f_xi) / (1.0 + f_xi)
    i_hom = int(np.argmax(hom))

    f_sum = norm.values(xi + eta)
    sub = np.maximum(f_sum - f_xi - f_eta, 0.0) / (f_xi + f_eta)
    i_sub = int(np.argmax(sub))

    sphere = rng.standard_normal((sample_count, n))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    f_sph = norm.values(sphere)
    i_min = int(np.argmin(f_sph))

    return ValidationReport(
        samples=sample_count,
        homogeneity_residual=float(hom[i_hom]),
        homogeneity_witness=xi[i_hom].copy(),
        subadditivity_residual=float(sub[i_sub]),
        subadditivity_witness=np.vstack([xi[i_sub], eta[i_sub]]),
        min_on_unit_sphere=float(f_sph[i_min]),
        min_witness=sphere[i_min].copy(),
    )
