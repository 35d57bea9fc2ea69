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
``BLMetric`` record, from which the ellipsoids, the moments of inertia,
the refinement loop and the Steiner coefficients read what they need.

The unit ball of m* in the dual space is the Binet ellipsoid of Omega; the
ball of the inverse metric, rescaled by (vol(Omega)/vol(ball))^(1/(n+2)),
is the Legendre ellipsoid -- the unique ellipsoid with the same moment of
inertia as Omega in every codirection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DefinitenessError, InputError, NumericalFailure,
                     QuadratureFailure)
from .norms import MinkowskiNorm, as_finite
from .quadrature import MAX_QUAD_LEVEL, auto_quadrature, ball_volume

CONDITION_LIMIT = 1e12
_TINY = np.finfo(float).tiny   # the smallest normal float


def assert_spd(matrix: np.ndarray, what: str):
    """Raise unless ``matrix`` is symmetric (to 1e-12 of its largest entry)
    positive definite."""
    if not np.isfinite(matrix).all():
        raise NumericalFailure(f"{what} is not finite")
    if np.abs(matrix - matrix.T).max() > 1e-12 * np.abs(matrix).max():
        raise NumericalFailure(f"{what} is not symmetric")
    eigs = np.linalg.eigvalsh(matrix)
    if not (eigs[0] > 0.0):
        raise NumericalFailure(f"{what} is not positive definite (min eigenvalue {eigs[0]:.3e})")


@dataclass(frozen=True, eq=False)
class BLMetric:
    """The Binet-Legendre record of ``norm`` at quadrature ``level``, on a
    rule it names by ``scheme`` only, all from one pass: vol(Omega) sqrt(det g)
    (the volume of Omega where g is the identity, at the pass's own scale),
    vol(Omega), the dual moment matrix M*, g = (M*)^-1 and the condition number of M*."""

    norm: MinkowskiNorm
    level: int
    scheme: str
    orthonormal_volume: float
    volume: float
    dual: np.ndarray
    metric: np.ndarray
    condition_number: float

    @property
    def legendre_scale(self) -> float:
        """The s for which {xi : xi^T g xi <= s^2} is the Legendre ellipsoid:
        the metric's unit ball B scaled by (vol(Omega)/vol(B))^(1/(n+2)),
        that is by (orthonormal_volume / omega_n)^(1/(n+2)).  The Binet
        ellipsoid is the unit ball of ``dual``, in the dual space."""
        n = self.norm.dim
        return (self.orthonormal_volume / ball_volume(n)) ** (1.0 / (n + 2))

    def moment_of_inertia(self, theta) -> float:
        """integral over Omega of (theta . xi)^2 d xi, which is
        vol(Omega) theta^T M* theta / (n+2) by the definition of M*."""
        n = self.norm.dim
        theta = as_finite(theta, "theta", (n,))
        return self.volume * float(theta @ self.dual @ theta) / (n + 2)


def bl_metric(norm: MinkowskiNorm, level: int) -> BLMetric:
    """The Binet-Legendre record of ``norm`` at quadrature ``level``, which
    (norm, level) names: one evaluation of F over ``auto_quadrature(norm,
    level)``, each node once; F must be positive there.  The sums take the
    powers of 2^-k F, with 2^k <= max F < 2^(k+1) (k = 0 on the catalog); the
    scaling is exact, as is the way back by the conformal law (vol by 2^-nk,
    M* by 4^-k, g by 4^k), so the record is exact at any scale where those
    fit.  The checks and the scale-free vol(Omega) sqrt(det g) use 2^-k F."""
    quad = auto_quadrature(norm, level)
    nodes, weights, n = quad.nodes, quad.weights, quad.dim
    # the rule's nodes are finite (k, n) floats already: F's kernel takes them
    # without the input checks of ``values``, under its checks on the output
    with np.errstate(over="ignore", invalid="ignore"):
        f = norm._values(nodes)
    if not np.all(np.isfinite(f)):
        raise NumericalFailure("norm value is not finite")
    if np.any(f <= 0.0):
        k = int(np.argmin(f))
        raise DefinitenessError(f"norm is not positive at node {nodes[k]} (F = {f[k]:.3e})")
    k = math.frexp(f.max())[1] - 1
    scaled = np.ldexp(f, -k)
    with np.errstate(all="ignore"):      # a non-finite moment is rejected below
        vol = float(np.dot(weights, scaled ** (-n)) / n)
        m = np.einsum("k,ki,kj->ij", weights * scaled ** (-(n + 2)), nodes, nodes) / vol
    m = 0.5 * (m + m.T)
    if not np.isfinite(m).all():
        raise NumericalFailure(
            "moment matrix is not finite (the norm's values span too many orders "
            f"of magnitude for the powers F^-{n} and F^-{n + 2})")
    eigs = np.linalg.eigvalsh(m)
    if not (eigs[0] > 0.0):
        raise QuadratureFailure(
            "moment matrix is not positive definite after symmetrization "
            f"(eigenvalues {eigs}, scheme {quad.scheme}, {len(weights)} nodes); "
            "refine the quadrature")
    cond = float(eigs[-1] / eigs[0])
    if not (cond <= CONDITION_LIMIT):
        raise NumericalFailure(
            f"dual moment matrix is too ill-conditioned to invert (cond = {cond:.3e})")
    g = np.linalg.inv(m)
    g = 0.5 * (g + g.T)
    orthonormal_volume = vol * float(np.sqrt(np.linalg.det(g)))
    # every eigenvalue of M* and of g, and vol(Omega), a normal float at F's scale
    with np.errstate(over="ignore"):
        lo, hi, vol = np.ldexp([eigs[0], eigs[-1], vol], [-2 * k, -2 * k, -n * k]).tolist()
    if not (_TINY <= lo and hi <= 1.0 / _TINY and _TINY <= vol < np.inf):
        raise NumericalFailure(
            f"moment matrix is not finite at the norm's scale 2^{k}: vol(Omega), "
            "M* or g lies past the float range")
    # auto_quadrature accepted ``level``, so int() is the level it validated
    return BLMetric(norm, int(level), quad.scheme, orthonormal_volume, vol,
                    np.ldexp(m, -2 * k), np.ldexp(g, 2 * k), cond)


@dataclass
class ConvergenceInfo:
    converged: bool
    achieved_tol: Optional[float]  # None when no two levels were compared


def bl_metric_converged(norm: MinkowskiNorm, tol: float = 1e-8, level: int = 0):
    """The record at the first accepted refinement level, and how it was accepted.

    Runs ``bl_metric`` once per level from ``level`` up to ``MAX_QUAD_LEVEL``
    and accepts once the relative Frobenius change of the metric drops below
    ``tol``; ``achieved_tol`` is None when no two levels were compared.
    Returns (BLMetric, ConvergenceInfo).
    """
    prev, achieved = None, None
    while True:
        bl = bl_metric(norm, level)
        if prev is not None:
            # both metrics scaled by one power of two, so no square in a norm overflows
            cur, old = np.ldexp([bl.metric, prev], -math.frexp(np.abs(bl.metric).max())[1])
            achieved = float(np.linalg.norm(cur - old) / np.linalg.norm(cur))
        converged = achieved is not None and achieved < tol
        if converged or bl.level >= MAX_QUAD_LEVEL:
            return bl, ConvergenceInfo(converged, achieved)
        prev, level = bl.metric, bl.level + 1


# ---------------------------------------------------------------------------
# the Monte-Carlo moment oracle
# ---------------------------------------------------------------------------


@dataclass
class MomentResult:
    value: float
    stderr: float


def sampled_moment(norm: MinkowskiNorm, theta, samples: int, seed: int) -> MomentResult:
    """integral over the unit ball of (theta . xi)^2 d xi by seeded rejection
    sampling in its bounding box, in chunks of 2^20 points, with a
    standard-error estimate.  It shares no quadrature rule with
    ``bl_metric``, so it is the independent oracle for
    ``BLMetric.moment_of_inertia``; the ellipsoid {xi^T Q xi <= s^2} is the
    unit ball of ``Euclidean(Q / s^2)``."""
    n = norm.dim
    theta = as_finite(theta, "theta", (n,))
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    eye = np.eye(n)
    lo, hi = -norm.support(-eye), norm.support(eye)
    box_vol = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    count = 0
    while count < samples:
        m = min(2 ** 20, samples - count)
        pts = rng.uniform(lo, hi, size=(m, n))
        vals = np.where(norm.values(pts) <= 1.0, (pts @ theta) ** 2, 0.0)
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
