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

import functools
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConstructionError, InputError, NumericalFailure,
                     UnsupportedDimensionError)

_TWO_PI = 2.0 * np.pi
_TINY = np.finfo(float).tiny   # the smallest normal float

# sphere_polish: grid points per chart axis by dimension n (odd, so the
# centre is a grid point; 5 past n = 4), and its cap on rounds
_ZOOM_POINTS = {2: 65, 3: 17, 4: 9}
_ZOOM_ROUNDS = 200

_SUPPORT_BLOCK = 256   # covectors per cloud scan: 32 MiB of scores against 16384 points

# Largest dimension of a norm: the orthant rule (n >= 4) holds about 1e6 * 2^level
# points of R^n, and a polytope hull can have exponentially many facets.
MAX_DIM = 6


def as_integer(value, what: str) -> int:
    """``value`` as an int; a bool, a non-number or a fraction is an InputError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


def as_dimension(value) -> int:
    """``value`` as a norm dimension in [2, MAX_DIM]; otherwise an InputError.
    No sphere rule or sphere search exists on S^0, so R^1 has no metric."""
    dim = as_integer(value, "dimension")
    if not 2 <= dim <= MAX_DIM:
        raise InputError(f"dimension must be between 2 and {MAX_DIM}, got {value!r}")
    return dim


def as_reals(value, what: str) -> np.ndarray:
    """``value`` -- a number, an array, or nested lists of them of one shape --
    as a float array.  An entry at any depth that is not a real number (a
    bool, a string), an array of such, a ragged entry or an integer past the
    float range is an InputError naming ``what``; finiteness is the caller's."""
    todo = [value]
    while todo:
        item = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend(reversed(item))
        elif isinstance(item, np.ndarray):
            if item.dtype == object:
                todo.extend(reversed(item.ravel()))
            elif item.dtype.kind not in "fiu":
                raise InputError(f"{what} must hold numbers, got an array of {item.dtype}")
        elif isinstance(item, bool) or not isinstance(item, numbers.Real):
            raise InputError(f"{what} must hold numbers, got {item!r}")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError as exc:    # e.g. a JSON integer past the float range
        raise InputError(f"{what} must be finite, got a number too large for a float") from exc
    except ValueError as exc:       # ragged, or nested past numpy's 64 axes
        raise InputError(f"{what} must be a number or an array of numbers of one shape") from exc


def as_finite(value, what: str, shape=None) -> np.ndarray:
    """``value`` by :func:`as_reals`, finite and, given ``shape``, of that shape."""
    arr = as_reals(value, what)
    if shape is not None and arr.shape != shape:
        raise InputError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{what} must be finite")
    return arr


def as_real(value, what: str) -> float:
    """``value`` as one float, by the rule of :func:`as_reals`."""
    arr = as_reals(value, what)
    if arr.ndim:
        raise InputError(f"{what} must be a number, got {value!r}")
    return float(arr)


def _row_max(a):
    """``a.max(axis=1)`` for a (k, n) array of norm coordinates (n <= MAX_DIM),
    taken column by column: numpy's reduction over the short axis is many
    times slower."""
    return functools.reduce(np.maximum, a.T)


def _as_points(xi, dim, what="input"):
    """``xi`` as a finite real (k, dim) array, and whether it was one vector."""
    pts = as_reals(xi, what)
    if pts.ndim == 1:
        pts = pts[None, :]
        squeeze = True
    elif pts.ndim == 2:
        squeeze = False
    else:
        raise InputError(f"expected a vector or a (k, {dim}) array, got shape {pts.shape}")
    if pts.shape[1] != dim:
        raise InputError(f"dimension mismatch: norm lives on R^{dim}, {what} has {pts.shape[1]} components")
    if not np.all(np.isfinite(pts)):
        raise InputError(f"{what} contains non-finite components")
    return pts, squeeze


class MinkowskiNorm:
    """Base class.  Subclasses implement ``_values`` on (k, n) arrays; a
    family whose support function has a closed form also implements
    ``_support`` on (k, n) covectors and sets ``_exact_support = True``.
    The others inherit the boundary-cloud scan as ``_support``, which the
    public ``support`` polishes.  A family whose extremes over the sphere
    have a closed form implements ``_exact_roundness``.

    The public ``values`` and ``support`` are the one boundary that
    validates input.  ``_values`` and ``_support`` get a validated real
    (k, n) float array and evaluate inner norms only through their private
    kernels, so a composite checks its input once, not once per layer.
    """

    dim: int

    def _values(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def values(self, xi) -> np.ndarray:
        """Evaluate F on a vector or a batch of row vectors."""
        pts, squeeze = _as_points(xi, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite value is rejected below
            out = self._values(pts)
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("norm value is not finite")
        return out[0] if squeeze else out

    def __call__(self, xi):
        return self.values(xi)

    # -- support function -------------------------------------------------

    _exact_support = False

    def support(self, theta):
        """h(theta) = max { theta . xi : F(xi) <= 1 } for a nonzero covector
        or a batch of them: exact for families with a closed form, otherwise
        each row's best boundary-cloud point polished by one batched sphere
        search to ~1e-8 relative accuracy."""
        thetas, squeeze = _as_points(theta, self.dim, "covector")
        if not np.all(np.any(thetas, axis=1)):
            raise InputError("support direction must be nonzero")
        out = self._support(thetas) if self._exact_support else self._polished_support(thetas)
        return float(out[0]) if squeeze else out

    def _support(self, thetas):
        # the boundary-cloud scan: a lower bound with O(grid^-2) error
        cloud = self.boundary_cloud()
        out = np.empty(len(thetas))
        for start in range(0, len(thetas), _SUPPORT_BLOCK):
            out[start:start + _SUPPORT_BLOCK] = (thetas[start:start + _SUPPORT_BLOCK] @ cloud.T).max(axis=1)
        return out

    def _polished_support(self, thetas):
        # each row's best boundary-cloud point, polished on the sphere
        cloud = self.boundary_cloud()
        out = np.empty(len(thetas))
        for start in range(0, len(thetas), _SUPPORT_BLOCK):
            block = thetas[start:start + _SUPPORT_BLOCK]
            scores = block @ cloud.T
            best = cloud[scores.argmax(axis=1)]
            neg = sphere_polish(lambda u, b=block: -np.einsum("skn,sn->sk", u, b)
                                / self.values(u.reshape(-1, self.dim)).reshape(u.shape[:-1]),
                                best / np.linalg.norm(best, axis=1, keepdims=True),
                                _TWO_PI / len(cloud) * 4.0)
            out[start:start + _SUPPORT_BLOCK] = np.maximum(scores.max(axis=1), -neg)
        return out

    # -- structure hints used by quadrature and sphere optimizers ---------

    def kink_angles(self) -> np.ndarray:
        """Angles in [0, 2pi) where F is non-smooth (2D families only)."""
        return np.empty(0)

    def support_kink_angles(self) -> np.ndarray:
        """Angles where the support function is non-smooth (2D only)."""
        return np.empty(0)

    def extremal_candidates(self) -> np.ndarray:
        """Unit directions where extrema of F over the sphere may sit."""
        return np.empty((0, self.dim))

    def _exact_roundness(self, A, inv):
        """(min, max) of u -> F(A u) over unit vectors u, for an invertible
        A with inverse ``inv``, where the family has a closed form; None
        where it has not (the caller searches the sphere)."""
        return None

    # boundary cloud cache, shared by generic support/extrema scans
    _cloud: Optional[np.ndarray] = None

    def boundary_cloud(self) -> np.ndarray:
        """Dense sample of the unit-ball boundary, u / F(u), computed once."""
        if self._cloud is None:
            dirs = sphere_directions(self, 16384 if self.dim == 3 else 8192)
            self._cloud = dirs / self.values(dirs)[:, None]
        return self._cloud


@functools.lru_cache(maxsize=16)
def sphere_grid(dim: int, size: int) -> np.ndarray:
    """Roughly uniform unit directions: angular grid (2D), Fibonacci (3D),
    seeded Gaussian directions otherwise.  Built once per arguments and
    shared, so the array is read-only."""
    if dim == 2:
        ang = np.arange(size) * (_TWO_PI / size)
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
    elif dim == 3:
        i = np.arange(size) + 0.5
        z = 1.0 - 2.0 * i / size
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        phi = np.pi * (1.0 + np.sqrt(5.0)) * i
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    else:
        pts = np.random.default_rng(0).standard_normal((size, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts.setflags(write=False)
    return pts


def _plane_angles(dirs: np.ndarray) -> np.ndarray:
    """Sorted polar angles in [0, 2pi) of the rows of ``dirs``; none off the plane."""
    if dirs.shape[1] != 2:
        return np.empty(0)
    return np.sort(np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), _TWO_PI))


def _tangent_rows(starts):
    """(s, n-1, n): orthonormal bases of the hyperplanes orthogonal to the
    unit rows of ``starts``, from the Householder reflection taking e_n to
    -sign(u_n) u (its other rows are orthogonal to u)."""
    w = starts.copy()
    w[:, -1] += np.copysign(1.0, starts[:, -1])
    n = starts.shape[1]
    scale = 2.0 / np.einsum("ij,ij->i", w, w)
    return np.eye(n)[: n - 1] - scale[:, None, None] * w[:, : n - 1, None] * w[:, None, :]


def sphere_directions(norm: MinkowskiNorm, size: int) -> np.ndarray:
    """``sphere_grid(norm.dim, size)`` followed by the norm's extremal candidates."""
    dirs = sphere_grid(norm.dim, size)
    extra = norm.extremal_candidates()
    return np.vstack([dirs, extra]) if len(extra) else dirs


def sphere_polish(objective, starts, width: float) -> np.ndarray:
    """Local minima of ``objective`` over unit vectors, one per row of the
    unit vectors ``starts`` (shape (s, n)).

    ``objective`` maps unit vectors of shape (s, k, n) to values of shape
    (s, k).  A zoom search on each start's tangent chart: every round
    evaluates, in one objective call, a grid of K^(n-1) chart points around
    each start's current best (K = 65 on the circle, 17 on S^2, 9 on S^3 and
    5 beyond; the grid is the cube of half-width ``width`` at first) and
    recentres on the best grid point.

    * When that point is interior, the grid shrinks: its new axes are a
      square root of the spread of the 2n - 1 best points around it plus
      one grid step squared, scaled down to at most 1/8 of the old grid.
      Along a kink ridge of F the best points line up, so the grid turns
      and stretches along the ridge instead of stalling across it.
    * When it lies on the grid's edge, the grid walks there and doubles
      along the walk, so an optimum far outside ``width`` is still reached.

    The search stops once the grid's axes are below 1e-12 on the circle (an
    angle) or 1e-9 on the chart otherwise, and returns the best value of
    each start, which is never worse than the start's own.
    """
    s, n = starts.shape
    if n < 2:
        raise UnsupportedDimensionError(f"a sphere search needs dimension 2 or more, got {n}")
    axis = np.linspace(-1.0, 1.0, _ZOOM_POINTS.get(n, 5))
    offsets = np.stack(np.meshgrid(*[axis] * (n - 1), indexing="ij"), axis=-1).reshape(-1, n - 1)
    on_edge = np.abs(offsets).max(axis=1) == 1.0
    step = 2.0 / (_ZOOM_POINTS.get(n, 5) - 1)
    floor = step * step * np.eye(n - 1)
    tol = 1e-12 if n == 2 else 1e-9
    middle, best = len(offsets) // 2, 2 * n - 1
    tangents = _tangent_rows(starts)
    rows = np.arange(s)
    centre = np.zeros((s, n - 1))
    axes = np.tile(float(width) * np.eye(n - 1), (s, 1, 1))   # grid point: centre + axes @ offset
    for _ in range(_ZOOM_ROUNDS):
        chart = centre[:, None, :] + offsets @ axes.transpose(0, 2, 1)
        pts = starts[:, None, :] + chart @ tangents
        vals = objective(pts / np.sqrt(np.einsum("ski,ski->sk", pts, pts))[:, :, None])
        pick = np.argmin(vals, axis=1)
        pick = np.where(vals[:, middle] <= vals[rows, pick], middle, pick)   # ties stay put
        centre, o = chart[rows, pick], offsets[pick]
        # an interior best shrinks the grid to the spread of the best points
        # (at least 8-fold); an edge best walks, doubling the grid along the walk
        near = offsets[np.argpartition(vals, best - 1, axis=1)[:, :best]] - o[:, None, :]
        spread = np.einsum("sqi,sqj->sij", near, near) / best + floor
        cap = np.minimum(1.0, 0.125 / np.sqrt(np.einsum("sii->s", spread)))
        shrink = np.linalg.cholesky(spread) * cap[:, None, None]
        walk = np.eye(n - 1) + (np.einsum("si,sj->sij", o, o)
                                / np.maximum(np.einsum("si,si->s", o, o), 1.0)[:, None, None])
        axes = axes @ np.where(on_edge[pick][:, None, None], walk, shrink)
        if np.einsum("sij,sij->s", axes, axes).max() < tol * tol:
            break
    return vals[rows, pick]


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------


class Euclidean(MinkowskiNorm):
    """F(xi) = sqrt(xi^T G xi) for a symmetric positive definite matrix G."""

    def __init__(self, matrix):
        G = as_reals(matrix, "euclidean matrix")
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise InputError("euclidean norm needs a square matrix")
        self.dim = as_dimension(G.shape[0])
        if not np.isfinite(G).all():
            raise InputError("matrix entries must be finite")
        if not np.allclose(G, G.T, atol=1e-12 * max(1.0, np.abs(G).max())):
            raise InputError("matrix must be symmetric")
        try:
            self._root = np.linalg.cholesky(G)     # F(xi) = |root^T xi|
        except np.linalg.LinAlgError as exc:
            raise InputError("matrix must be positive definite") from exc
        self.matrix = G
        self._inv = np.linalg.inv(G)

    def _values(self, pts):
        return np.sqrt(np.einsum("ki,ij,kj->k", pts, self.matrix, pts))

    _exact_support = True

    def _support(self, thetas):
        # rows scaled by their largest entry, so tiny covectors do not underflow
        top = _row_max(np.abs(thetas))
        top = np.where(top > 0.0, top, 1.0)          # a zero row stays zero
        unit = thetas / top[:, None]
        return top * np.sqrt(np.einsum("ki,ij,kj->k", unit, self._inv, unit))

    def extremal_candidates(self):
        _, vecs = np.linalg.eigh(self.matrix)
        return np.vstack([vecs.T, -vecs.T])

    def _exact_roundness(self, A, inv):
        return _ellipsoid_roundness(self._root.T @ A)

    def __repr__(self):
        return f"Euclidean(dim={self.dim})"


def _p_norms(pts, p):
    """The l^p norm of every row, 1 <= p <= inf.  Rows are scaled by their
    largest entry first, so no power over- or underflows at large finite p."""
    a = np.abs(pts)
    top = _row_max(a)
    if np.isinf(p):
        return top
    top = np.where(top > 0.0, top, 1.0)          # a zero row stays zero
    return top * functools.reduce(np.add, ((a / top[:, None]) ** p).T) ** (1.0 / p)


def _lp_kink_angles(p, dim):
    """Angles where the l^p norm on the plane is not smooth: the diagonals
    for p = inf, the axes for p < 2 (kinks at p = 1, a second derivative
    that blows up for 1 < p < 2); none otherwise or off the plane."""
    if dim != 2 or 2.0 <= p < np.inf:
        return np.empty(0)
    return np.array([0.25, 0.75, 1.25, 1.75] if np.isinf(p) else [0.0, 0.5, 1.0, 1.5]) * np.pi


def _box_corners(lo, hi):
    """The 2^n corners of the box [lo, hi]: bit i of row k picks hi[i]."""
    n = len(lo)
    upper = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    return np.where(upper == 1, hi, lo)


def _axes_and_corners(dim):
    """The 2n signed unit axes and the 2^n sign vectors (cube corners, last sign fastest) of R^n."""
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    return axes, _box_corners(np.ones(dim), -np.ones(dim))[:, ::-1]


def _ellipsoid_roundness(B):
    """(min, max) of u -> |B u| over unit vectors u: B's extreme singular
    values; NaN if B is not finite."""
    if not np.isfinite(B).all():
        return np.nan, np.nan
    sigma = np.linalg.svd(B, compute_uv=False)
    return float(sigma[-1]), float(sigma[0])


def _gauge_roundness(A, inv, vertices, normals, offsets):
    """(min, max) of u -> F(A u) over unit vectors u for the gauge F of the
    polytope with ``vertices`` and facets {x : normals x <= offsets}.  The
    farthest point of the body A^-1 P from 0 is a vertex, so the min is
    1 / max |A^-1 v|; its nearest boundary point lies on a facet plane, at
    distance b / |A^T n|, so the max is max |A^T n| / b."""
    far = np.linalg.norm(vertices @ inv.T, axis=1).max()
    return float(1.0 / far), float((np.linalg.norm(normals @ A, axis=1) / offsets).max())


class LpNorm(MinkowskiNorm):
    """The l^p norm, 1 <= p <= inf.  p = inf is the max norm (no limits taken)."""

    def __init__(self, p, dim):
        p = as_real(p, "p")
        if not (p >= 1.0):
            raise InputError("p must be >= 1")
        self.p = p
        self.dim = as_dimension(dim)

    def _values(self, pts):
        return _p_norms(pts, self.p)

    def _dual_exponent(self):
        if np.isinf(self.p):
            return 1.0
        if self.p == 1.0:
            return np.inf
        return self.p / (self.p - 1.0)

    _exact_support = True

    def _support(self, thetas):
        return _p_norms(thetas, self._dual_exponent())

    def kink_angles(self):
        return _lp_kink_angles(self.p, self.dim)

    def support_kink_angles(self):
        return _lp_kink_angles(self._dual_exponent(), self.dim)

    def extremal_candidates(self):
        axes, corners = _axes_and_corners(self.dim)
        return np.vstack([axes, corners / np.sqrt(self.dim)])

    def _exact_roundness(self, A, inv):
        # p = 2 is the round ball; p = 1 is the cross-polytope, whose
        # vertices are the axes and facet normals the corners, and p = inf
        # the cube, the other way round; every facet offset is 1
        if self.p == 2.0:
            return _ellipsoid_roundness(A)
        if self.p == 1.0:
            vertices, normals = _axes_and_corners(self.dim)
        elif np.isinf(self.p):
            normals, vertices = _axes_and_corners(self.dim)
        else:
            return None
        return _gauge_roundness(A, inv, vertices, normals, 1.0)

    def __repr__(self):
        return f"LpNorm(p={self.p}, dim={self.dim})"


class PolytopeGauge(MinkowskiNorm):
    """Gauge of the convex hull of ``vertices``; 0 must be strictly interior.

    F(xi) = min { t > 0 : xi / t in hull } is the maximum of the facet
    functionals xi -> n . xi / b of the precomputed hull, in every
    dimension (in the plane the facets are the polygon's edges).
    """

    def __init__(self, vertices):
        from scipy.spatial import ConvexHull

        V = as_reals(vertices, "polytope vertices")
        if V.ndim != 2 or V.shape[0] < V.shape[1] + 1:
            raise ConstructionError("need at least n+1 vertices of full dimension")
        if not np.all(np.isfinite(V)):
            raise ConstructionError("vertices contain non-finite entries")
        self.dim = as_dimension(V.shape[1])
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
        # facets by points: a maximum over the leading axis is many times
        # faster than over a short trailing one
        ratios = (self._facet_normals @ pts.T) / self._facet_offsets[:, None]
        return np.maximum(ratios.max(axis=0), 0.0)

    _exact_support = True

    def _support(self, thetas):
        return (self.vertices @ thetas.T).max(axis=0)

    def kink_angles(self):
        return _plane_angles(self.vertices)

    def support_kink_angles(self):
        return _plane_angles(self._facet_normals)

    def extremal_candidates(self):
        vdirs = self.vertices / np.linalg.norm(self.vertices, axis=1, keepdims=True)
        return np.vstack([vdirs, self._facet_normals])

    def _exact_roundness(self, A, inv):
        return _gauge_roundness(A, inv, self.vertices, self._facet_normals, self._facet_offsets)

    def __repr__(self):
        return f"PolytopeGauge(dim={self.dim}, vertices={len(self.vertices)})"


class LinearImage(MinkowskiNorm):
    """F(xi) = inner(A xi) for an invertible matrix A."""

    def __init__(self, matrix, inner: MinkowskiNorm):
        A = as_reals(matrix, "linear-image matrix")
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
        return self.inner._values(pts @ self.matrix.T)

    @property
    def _exact_support(self):
        return self.inner._exact_support

    def _support(self, thetas):
        return self.inner._support(thetas @ self._inv)

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
        mapped = np.vstack([cand @ self._inv.T, cand @ self.matrix])
        # rows scaled by their largest entry first, so the norm does not overflow
        mapped /= _row_max(np.abs(mapped))[:, None]
        return mapped / np.linalg.norm(mapped, axis=1, keepdims=True)

    def _exact_roundness(self, A, inv):
        return self.inner._exact_roundness(self.matrix @ A, inv @ self._inv)

    def __repr__(self):
        return f"LinearImage({self.inner!r})"


class WeightedSum(MinkowskiNorm):
    """F = w1*F1 + w2*F2 with nonnegative weights, w1 + w2 > 0."""

    def __init__(self, w1, w2, first: MinkowskiNorm, second: MinkowskiNorm):
        if first.dim != second.dim:
            raise InputError("component norms must share a dimension")
        w1, w2 = as_real(w1, "weight w1"), as_real(w2, "weight w2")
        if not (np.isfinite([w1, w2]).all() and w1 >= 0 and w2 >= 0 and w1 + w2 > 0):
            raise InputError("weights must be finite and nonnegative with positive sum")
        self.dim = first.dim
        self.w1, self.w2 = w1, w2
        self.first, self.second = first, second

    def _values(self, pts):
        out = 0.0
        if self.w1:
            out = self.w1 * self.first._values(pts)
        if self.w2:
            out = out + self.w2 * self.second._values(pts)
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
        return np.vstack([self.first.extremal_candidates(), self.second.extremal_candidates()])

    def __repr__(self):
        return f"WeightedSum({self.w1}*{self.first!r} + {self.w2}*{self.second!r})"


class QuarticAxial(MinkowskiNorm):
    """F(xi) = ((sum_i xi_i^2)^2 + xi_n^4)^(1/4).

    Smooth, non-euclidean, invariant under every rotation fixing the last
    coordinate axis and under xi_n -> -xi_n.
    """

    def __init__(self, dim):
        self.dim = as_dimension(dim)

    def _values(self, pts):
        # sqrt(ssq) (1 + (x_n^2 / ssq)^2)^(1/4) is exactly 2^m F at 2^m xi where
        # ssq is a normal float; dividing by at least the smallest one maps 0 to 0
        ssq = np.einsum("ki,ki->k", pts, pts)
        ratio = pts[:, -1] * pts[:, -1] / np.maximum(ssq, _TINY)
        return np.sqrt(ssq) * np.sqrt(np.sqrt(1.0 + ratio * ratio))

    def extremal_candidates(self):
        return np.vstack([np.eye(self.dim), -np.eye(self.dim)])

    def __repr__(self):
        return f"QuarticAxial(dim={self.dim})"


# ---------------------------------------------------------------------------
# free-function interface
# ---------------------------------------------------------------------------


def rescale(norm: MinkowskiNorm, kappa: float) -> LinearImage:
    """The norm kappa * F, realized as the linear image by kappa * I."""
    kappa = as_real(kappa, "scale factor")
    if not (kappa > 0):
        raise InputError("scale factor must be positive")
    return LinearImage(kappa * np.eye(norm.dim), norm)


# Largest homogeneity or subadditivity residual a valid norm may show.
AXIOM_TOL = 1e-9


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

    @property
    def ok(self) -> bool:
        return (self.homogeneity_residual <= AXIOM_TOL
                and self.subadditivity_residual <= AXIOM_TOL
                and self.min_on_unit_sphere > 0.0)


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
