"""The dual scalar product, its metric, and the associated ellipsoids.

For a Minkowski norm F with unit ball Omega in R^n the dual scalar product
on covectors is the normalized second moment of Omega,

    m*(theta, phi) = (n+2)/vol(Omega) * integral_Omega theta(x) phi(x) dx,

and the metric of interest is its inverse on vectors.  Reducing the moment
integral to polar coordinates turns everything into sphere integrals of
powers of 1/F, which is what the quadrature rules evaluate:

    M*_ij = [ sum_k w_k u_ki u_kj F(u_k)^-(n+2) ] / vol(Omega),
    vol(Omega) = (1/n) sum_k w_k F(u_k)^-n.

Both sums come from one evaluation of F on the rule's nodes, and g is
(M*)^-1.  ``bl_metric`` makes that one pass and keeps all of it in one
``BLMetric`` record, from which the ellipsoids, the refinement loop and
the Steiner coefficients read what they need.

The unit ball of m* in the dual space is the Binet ellipsoid of Omega; the
ball of the inverse metric, rescaled by (vol(Omega)/vol(ball))^(1/(n+2)),
is the Legendre ellipsoid -- the unique ellipsoid with the same moment of
inertia as Omega in every codirection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (DefinitenessError, InputError, NumericalFailure,
                     QuadratureFailure)
from .norms import MinkowskiNorm
from .quadrature import SphericalQuadrature, auto_quadrature, ball_volume

CONDITION_LIMIT = 1e12
MAX_QUAD_LEVEL = 4  # refinement cap of bl_metric_converged
MC_BATCHES = 32  # batch count of the Monte-Carlo standard error


def assert_spd(matrix: np.ndarray, what: str = "matrix", sym_tol: float = 1e-12):
    """Raise unless ``matrix`` is symmetric (to sym_tol) positive definite."""
    if not np.isfinite(matrix).all():
        raise NumericalFailure(f"{what} is not finite")
    scale = max(1.0, float(np.abs(matrix).max()))
    if np.abs(matrix - matrix.T).max() > sym_tol * scale:
        raise NumericalFailure(f"{what} is not symmetric")
    eigs = np.linalg.eigvalsh(matrix)
    if not (eigs[0] > 0.0):
        raise NumericalFailure(f"{what} is not positive definite (min eigenvalue {eigs[0]:.3e})")


def _norm_values(norm: MinkowskiNorm, quad: SphericalQuadrature) -> np.ndarray:
    """F on the nodes of ``quad``, each node evaluated once; F must be positive."""
    f = norm.values(quad.nodes)
    if np.any(f <= 0.0):
        k = int(np.argmin(f))
        raise DefinitenessError(
            f"norm is not positive at node {quad.nodes[k]} (F = {f[k]:.3e})")
    return f


def _moments(quad: SphericalQuadrature, f: np.ndarray, rows=slice(None)):
    """(vol(Omega), M*) from F's values ``f`` on the nodes ``rows`` of ``quad``."""
    nodes, weights, f = quad.nodes[rows], quad.weights[rows], f[rows]
    n = quad.dim
    vol = float(np.dot(weights, f ** (-n)) / n)
    m = np.einsum("k,ki,kj->ij", weights * f ** (-(n + 2)), nodes, nodes) / vol
    m = 0.5 * (m + m.T)
    if not np.isfinite(m).all():
        raise NumericalFailure(
            "moment matrix is not finite (the norm's values over- or underflow "
            f"in the powers F^-{n} and F^-{n + 2})")
    eigs = np.linalg.eigvalsh(m)
    if not (eigs[0] > 0.0):
        raise QuadratureFailure(
            "moment matrix is not positive definite after symmetrization "
            f"(eigenvalues {eigs}, scheme {quad.scheme}, {len(weights)} nodes); "
            "refine the quadrature")
    return vol, m


def _invert(m: np.ndarray):
    """(g, cond): the metric (M*)^-1 and the condition number of M*."""
    eigs = np.linalg.eigvalsh(m)
    cond = float(eigs[-1] / eigs[0])
    if not (cond <= CONDITION_LIMIT):
        raise NumericalFailure(
            f"dual moment matrix is too ill-conditioned to invert (cond = {cond:.3e})")
    g = np.linalg.inv(m)
    if not np.isfinite(g).all():
        raise NumericalFailure("metric is not finite (the moment matrix is too small to invert)")
    return 0.5 * (g + g.T), cond


@dataclass(frozen=True, eq=False)
class BLMetric:
    """The Binet-Legendre record of ``norm`` on the rule ``quad``: F's
    values on the rule's nodes, vol(Omega), the dual moment matrix M*, the
    metric g = (M*)^-1 and the condition number of M*, all from one pass."""

    norm: MinkowskiNorm
    quad: SphericalQuadrature
    values: np.ndarray
    volume: float
    dual: np.ndarray
    metric: np.ndarray
    condition_number: float

    def ellipsoids(self):
        """(Binet, Legendre) ellipsoids.

        Binet is the unit ball of M* in dual-basis coordinates.  Legendre,
        the ellipsoid matching the unit ball's moments of inertia, is the
        metric's unit ball scaled by (vol(Omega)/vol(B))^(1/(n+2)), with
        vol(B) computed analytically from det of the metric.
        """
        n = self.norm.dim
        vol_b = ball_volume(n) / np.sqrt(np.linalg.det(self.metric))
        scale = (self.volume / vol_b) ** (1.0 / (n + 2))
        return Ellipsoid(self.dual, 1.0), Ellipsoid(self.metric, scale)


def bl_metric(norm: MinkowskiNorm, quad: SphericalQuadrature) -> BLMetric:
    """The Binet-Legendre record of ``norm``: one evaluation of F over ``quad``."""
    f = _norm_values(norm, quad)
    vol, m = _moments(quad, f)
    g, cond = _invert(m)
    return BLMetric(norm, quad, f, vol, m, g, cond)


@dataclass
class ConvergenceInfo:
    converged: bool
    achieved_tol: Optional[float]  # None when no two levels were compared


def _mc_standard_error(bl: BLMetric) -> float:
    """Batch-means relative standard error of the record's metric, from the
    metrics of slices of its F values."""
    size = len(bl.quad) // MC_BATCHES
    samples = [_invert(_moments(bl.quad, bl.values, slice(b * size, (b + 1) * size))[1])[0]
               for b in range(MC_BATCHES)]
    spread = np.std(np.array(samples), axis=0) / np.sqrt(MC_BATCHES)
    return float(np.linalg.norm(spread) / np.linalg.norm(bl.metric))


def bl_metric_converged(norm: MinkowskiNorm, tol: float = 1e-8, level: int = 0,
                        seed: int = 0, mc_tol: float = 1e-3):
    """The record at the first accepted refinement level, and how it was accepted.

    Deterministic schemes compute at consecutive refinement levels and
    accept once the relative Frobenius change of the metric drops below
    ``tol``.  Monte-Carlo schemes use variance-based stopping instead:
    accept when the batch-means relative standard error falls below
    ``mc_tol``, and report that standard error as the achieved tolerance.
    Either way refinement is capped at ``MAX_QUAD_LEVEL``; a deterministic
    start there compares no two levels and reports ``achieved_tol`` None.
    ``bl_metric`` runs once per level.  Returns (BLMetric, ConvergenceInfo).
    """
    quad = auto_quadrature(norm, level=level, seed=seed)
    bl, achieved, converged = None, None, False
    while True:
        prev, bl = bl, bl_metric(norm, quad)
        if quad.scheme == "monte-carlo":
            achieved = _mc_standard_error(bl)
            converged = achieved <= mc_tol
        elif prev is not None:
            achieved = float(np.linalg.norm(bl.metric - prev.metric) / np.linalg.norm(bl.metric))
            converged = achieved < tol
        if converged or quad.level >= MAX_QUAD_LEVEL:
            return bl, ConvergenceInfo(converged, achieved)
        quad = auto_quadrature(norm, level=quad.level + 1, seed=seed)


# ---------------------------------------------------------------------------
# ellipsoids
# ---------------------------------------------------------------------------


@dataclass
class Ellipsoid:
    """The set { xi : xi^T Q xi <= scale^2 } for a positive definite Q."""

    shape: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        self.shape = np.asarray(self.shape, dtype=float)
        assert_spd(self.shape, "ellipsoid shape matrix")
        if not self.scale > 0:
            raise InputError("ellipsoid scale must be positive")

    @property
    def dim(self) -> int:
        return self.shape.shape[0]

    def volume(self) -> float:
        return ball_volume(self.dim) * self.scale ** self.dim / np.sqrt(
            np.linalg.det(self.shape))

    def moment_of_inertia(self, theta) -> float:
        """integral over the ellipsoid of (theta . xi)^2 d xi, closed form."""
        theta = np.asarray(theta, dtype=float)
        qinv = np.linalg.inv(self.shape)
        return self.volume() / (self.dim + 2) * self.scale ** 2 * float(theta @ qinv @ theta)

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.einsum("ki,ij,kj->k", pts, self.shape, pts) <= self.scale ** 2

    def radii(self) -> np.ndarray:
        """Semi-axis lengths."""
        return self.scale / np.sqrt(np.linalg.eigvalsh(self.shape))


# ---------------------------------------------------------------------------
# moments of inertia
# ---------------------------------------------------------------------------


@dataclass
class MomentResult:
    value: float
    stderr: Optional[float] = None  # None for deterministic evaluation


def _norm_bounding_box(norm: MinkowskiNorm):
    eye = np.eye(norm.dim)
    return -norm.support(-eye), norm.support(eye)


def _ellipsoid_bounding_box(ell: Ellipsoid):
    qinv = np.linalg.inv(ell.shape)
    half = ell.scale * np.sqrt(np.diag(qinv))
    return -half, half


def moment_of_inertia(body: Union[MinkowskiNorm, Ellipsoid], theta, *,
                      quad: Optional[SphericalQuadrature] = None,
                      method: str = "radial", samples: int = 1_000_000,
                      seed: int = 0) -> MomentResult:
    """integral over the body of (theta . xi)^2 d xi.

    ``body`` is either a norm (its unit sublevel set) or an ellipsoid.
    method="radial" uses the polar-coordinate reduction (deterministic,
    needs ``quad`` for norm bodies; closed form for ellipsoids);
    method="mc" uses seeded rejection sampling in the bounding box, in
    chunks of 2^20 points, and reports a standard-error estimate.
    """
    theta = np.asarray(theta, dtype=float)
    if method == "radial":
        if isinstance(body, Ellipsoid):
            return MomentResult(body.moment_of_inertia(theta))
        if quad is None:
            quad = auto_quadrature(body, level=1)
        f = _norm_values(body, quad)
        n = body.dim
        proj = quad.nodes @ theta
        val = float(np.dot(quad.weights, proj ** 2 * f ** (-(n + 2))) / (n + 2))
        return MomentResult(val)
    if method != "mc":
        raise InputError(f"unknown method {method!r}")

    if isinstance(body, Ellipsoid):
        lo, hi = _ellipsoid_bounding_box(body)
        inside = body.contains
        n = body.dim
    else:
        lo, hi = _norm_bounding_box(body)
        inside = lambda pts: body.values(pts) <= 1.0
        n = body.dim
    box_vol = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    count = 0
    while count < samples:
        m = min(2 ** 20, samples - count)
        pts = rng.uniform(lo, hi, size=(m, n))
        vals = np.where(inside(pts), (pts @ theta) ** 2, 0.0)
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
        count += m
    mean = total / count
    var = max(total_sq / count - mean ** 2, 0.0)
    return MomentResult(box_vol * mean, box_vol * np.sqrt(var / count))


def relative_qf_deviation(g_a: np.ndarray, g_b: np.ndarray) -> float:
    """max |lambda - 1| over generalized eigenvalues of (g_a, g_b)."""
    from scipy.linalg import eigh

    lam = eigh(g_a, g_b, eigvals_only=True)
    return float(np.abs(lam - 1.0).max())
