"""Quadrature rules on the unit sphere S^{n-1}.

Scheme choice by dimension (``auto_quadrature`` gives each level's size):

* n = 2, smooth integrand: uniform trapezoid on the circle (spectrally
  accurate for smooth periodic integrands).
* n = 2, piecewise-smooth integrand (polytope gauges and friends): the
  circle is partitioned at the norm's kink angles and each panel gets a
  composite Gauss-Legendre rule, so every panel sees a smooth integrand.
* n = 3: product Gauss-Legendre (in cos theta) x trapezoid (in phi).
* n >= 4: Gauss-Legendre on the radial image of the simplex in each of the
  2^n orthants, so |u_i| kinks lie on patch boundaries.  No rule takes a seed.

Weights always sum to the full sphere measure; asymmetric integrands are
expected, so no half-sphere shortcut is ever taken.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InputError
from .norms import _TWO_PI, MinkowskiNorm, _box_corners, as_integer, sphere_grid

MAX_QUAD_LEVEL = 4  # the finest level auto_quadrature builds


def ball_volume(dim: int) -> float:
    """Volume omega_dim of the euclidean unit ball in R^dim; S^{dim-1} has measure dim omega_dim."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@dataclass(frozen=True)
class SphericalQuadrature:
    """Nodes and weights on S^{n-1}, the rule ``scheme``."""

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    scheme: str

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self):
        return len(self.weights)

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def moment_defect(self) -> float:
        """Max entrywise error of sum w u u^T against its exact value, omega_n I."""
        m = np.einsum("k,ki,kj->ij", self.weights, self.nodes, self.nodes)
        exact = ball_volume(self.dim) * np.eye(self.dim)
        return float(np.abs(m - exact).max())


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def circle_trapezoid(nodes: int) -> SphericalQuadrature:
    if nodes < 4:
        raise InputError("need at least 4 circle nodes")
    w = np.full(nodes, _TWO_PI / nodes)
    return SphericalQuadrature(2, sphere_grid(2, nodes), w, "circle-trapezoid")


def circle_panels(break_angles, subdiv: int) -> SphericalQuadrature:
    """Composite 32-point Gauss rule on the circle: the arcs between
    consecutive ``break_angles`` are each split into ``subdiv`` panels."""
    br = np.mod(np.asarray(break_angles, dtype=float), _TWO_PI)
    br = np.unique(np.round(br, 14))
    if len(br) == 0:
        br = np.array([0.0])
    bounds = np.concatenate([br, [br[0] + _TWO_PI]])
    x, w = _gauss_legendre(32)
    angles, weights = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a < 1e-14:
            continue
        edges = np.linspace(a, b, subdiv + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            angles.append(0.5 * (hi + lo) + half * x)
            weights.append(half * w)
    ang = np.concatenate(angles)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    return SphericalQuadrature(2, pts, np.concatenate(weights), "circle-panels")


def sphere_product_gauss(n_polar: int, n_azimuth: int) -> SphericalQuadrature:
    """Gauss-Legendre in cos(theta) x uniform trapezoid in phi on S^2."""
    t, wt = _gauss_legendre(n_polar)   # t = cos(theta) on [-1, 1]
    phi = np.arange(n_azimuth) * (_TWO_PI / n_azimuth)
    wp = _TWO_PI / n_azimuth
    st = np.sqrt(1.0 - t ** 2)
    nodes = np.empty((n_polar * n_azimuth, 3))
    nodes[:, 0] = np.outer(st, np.cos(phi)).ravel()
    nodes[:, 1] = np.outer(st, np.sin(phi)).ravel()
    nodes[:, 2] = np.repeat(t, n_azimuth)
    weights = np.repeat(wt * wp, n_azimuth)
    return SphericalQuadrature(3, nodes, weights, "product-gauss")


def sphere_orthant_gauss(dim: int, order: int) -> SphericalQuadrature:
    """2^dim * order^(dim-1) nodes on S^{dim-1}.  The simplex {x >= 0, sum x = 1},
    whose radial image has surface element dx_1 ... dx_{dim-1} / |x|^dim, takes
    ``order``-point Gauss-Legendre a_i on [0, 1] in collapsed coordinates
    x_i = rest_i a_i, rest_{i+1} = rest_i (1 - a_i), x_dim = rest_dim (Duffy,
    SIAM J. Numer. Anal. 19, 1982); the other orthants are its sign flips."""
    t, w = _gauss_legendre(order)
    a, wa = 0.5 * (t + 1.0), 0.5 * w
    x, weights, rest = np.empty((order ** (dim - 1), dim)), 1.0, 1.0
    for i, k in enumerate(np.indices((order,) * (dim - 1)).reshape(dim - 1, -1)):
        x[:, i] = rest * a[k]
        weights = weights * (rest * wa[k])
        rest = rest * (1.0 - a[k])
    x[:, -1] = rest
    r = np.sqrt(np.einsum("ij,ij->i", x, x))
    x /= r[:, None]
    signs = _box_corners(np.ones(dim), -np.ones(dim))
    return SphericalQuadrature(dim, (signs[:, None, :] * x).reshape(-1, dim),
                               np.tile(weights / r ** dim, 2 ** dim), "orthant-gauss")


def circle_rule(kinks, level: int) -> SphericalQuadrature:
    """The circle rule of ``level`` for an integrand that is smooth except
    at the angles ``kinks`` (see ``auto_quadrature``)."""
    if len(kinks):
        return circle_panels(kinks, subdiv=2 ** (level + 1))
    return circle_trapezoid(2048 * 2 ** level)


def auto_quadrature(norm: MinkowskiNorm, level: int) -> SphericalQuadrature:
    """The sphere rule of ``level`` for ``norm``: the one place that maps a
    level to a rule, so level L + 1 is the refinement of level L.

    * n = 2, F smooth: the 2048 * 2^level point trapezoid rule.
    * n = 2, F kinked: the circle split at ``norm.kink_angles()``, each arc
      into 2^(level+1) panels of 32-point Gauss-Legendre.
    * n = 3: product Gauss-Legendre, 64 * 2^level (cos theta) by
      128 * 2^level (phi).
    * n >= 4: the orthant rule of order round((1e6 * 2^level / 2^n)^(1/(n-1))),
      about 1e6 * 2^level nodes.
    """
    return _rule(*_rule_key(norm, level))


def _rule_key(norm: MinkowskiNorm, level: int) -> tuple:
    """(n, level, kinks): all that ``auto_quadrature``'s rule for ``norm``
    depends on, with ``level`` validated and the kink angles kept in 2D
    only, so norms with one key share one rule."""
    level = as_integer(level, "quadrature level")
    if not 0 <= level <= MAX_QUAD_LEVEL:
        raise InputError(f"quadrature level must be between 0 and {MAX_QUAD_LEVEL}, got {level}")
    n = norm.dim
    return n, level, tuple(norm.kink_angles()) if n == 2 else ()


def _rule(n: int, level: int, kinks: tuple) -> SphericalQuadrature:
    """The rule of the key (n, level, kinks) from ``_rule_key``."""
    if n == 2:
        return circle_rule(kinks, level)
    if n == 3:
        return sphere_product_gauss(64 * 2 ** level, 128 * 2 ** level)
    order = round((1e6 * 2 ** level / 2 ** n) ** (1.0 / (n - 1)))
    return sphere_orthant_gauss(n, order)
