"""Quadrature rules on the unit sphere S^{n-1}.

Scheme choice by dimension:

* n = 2, smooth integrand: uniform trapezoid on the circle (spectrally
  accurate for smooth periodic integrands).
* n = 2, piecewise-smooth integrand (polytope gauges and friends): the
  circle is partitioned at the norm's kink angles and each panel gets a
  composite Gauss-Legendre rule, so every panel sees a smooth integrand.
* n = 3: product Gauss-Legendre (in cos theta) x trapezoid (in phi).
* n >= 4 (or on request): seeded Monte Carlo with equal weights.

Weights always sum to the full sphere measure; asymmetric integrands are
expected, so no half-sphere shortcut is ever taken.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InputError
from .norms import _TWO_PI, MinkowskiNorm


def sphere_surface_area(dim: int) -> float:
    """Measure of S^{dim-1}: 2 pi^{dim/2} / Gamma(dim/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def ball_volume(dim: int) -> float:
    """Volume of the euclidean unit ball in R^dim."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@dataclass(frozen=True)
class SphericalQuadrature:
    """Nodes and weights on S^{n-1} with a refinement handle.

    ``refined()`` returns the next refinement level (double the resolution,
    or double the sample count for Monte Carlo); the convergence drivers in
    :mod:`blgeom.metric` compare consecutive levels.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    scheme: str
    level: int = 0
    seed: int = 0
    panel_angles: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self):
        return len(self.weights)

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def moment_defect(self) -> float:
        """Max entrywise error of sum w u u^T against its exact value."""
        m = np.einsum("k,ki,kj->ij", self.weights, self.nodes, self.nodes)
        exact = sphere_surface_area(self.dim) / self.dim * np.eye(self.dim)
        return float(np.abs(m - exact).max())

    def refined(self) -> "SphericalQuadrature":
        lvl = self.level + 1
        if self.scheme == "circle-trapezoid":
            return circle_trapezoid(2 * len(self), level=lvl)
        if self.scheme == "circle-panels":
            return circle_panels(self.panel_angles, subdiv=2 ** (lvl + 1), level=lvl)
        if self.scheme == "product-gauss":
            n_t = int(round(math.sqrt(len(self) / 2)))
            return sphere_product_gauss(2 * n_t, 4 * n_t, level=lvl)
        if self.scheme == "monte-carlo":
            return sphere_monte_carlo(self.dim, 2 * len(self), seed=self.seed, level=lvl)
        raise InputError(f"unknown scheme {self.scheme!r}")


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def circle_trapezoid(nodes: int = 2048, level: int = 0) -> SphericalQuadrature:
    if nodes < 4:
        raise InputError("need at least 4 circle nodes")
    ang = np.arange(nodes) * (_TWO_PI / nodes)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    w = np.full(nodes, _TWO_PI / nodes)
    return SphericalQuadrature(2, pts, w, "circle-trapezoid", level)


def circle_panels(break_angles, subdiv: int = 2, order: int = 32,
                  level: int = 0) -> SphericalQuadrature:
    """Composite Gauss rule on the circle with panels split at ``break_angles``."""
    br = np.mod(np.asarray(break_angles, dtype=float), _TWO_PI)
    br = np.unique(np.round(br, 14))
    if len(br) == 0:
        br = np.array([0.0])
    bounds = np.concatenate([br, [br[0] + _TWO_PI]])
    x, w = _gauss_legendre(order)
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
    return SphericalQuadrature(2, pts, np.concatenate(weights), "circle-panels",
                               level, panel_angles=br)


def sphere_product_gauss(n_polar: int = 64, n_azimuth: int = 128,
                         level: int = 0) -> SphericalQuadrature:
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
    return SphericalQuadrature(3, nodes, weights, "product-gauss", level)


def sphere_monte_carlo(dim: int, samples: int = 1_000_000, seed: int = 0,
                       level: int = 0) -> SphericalQuadrature:
    rng = np.random.default_rng(np.random.SeedSequence([seed, level]))
    pts = rng.standard_normal((samples, dim))
    # row norms without a (samples, dim) temporary
    pts /= np.sqrt(np.einsum("ij,ij->i", pts, pts))[:, None]
    w = np.full(samples, sphere_surface_area(dim) / samples)
    return SphericalQuadrature(dim, pts, w, "monte-carlo", level, seed=seed)


def auto_quadrature(norm: MinkowskiNorm, level: int = 0, seed: int = 0,
                    use_support_kinks: bool = False) -> SphericalQuadrature:
    """Pick a scheme for the given norm's dimension and smoothness.

    With ``use_support_kinks`` the 2D panels align with the kinks of the
    support function instead of the norm (used by perimeter integrals).
    """
    n = norm.dim
    if n == 2:
        kinks = norm.support_kink_angles() if use_support_kinks else norm.kink_angles()
        if len(kinks):
            return circle_panels(kinks, subdiv=2 ** (level + 1), level=level)
        return circle_trapezoid(2048 * 2 ** level, level=level)
    if n == 3:
        return sphere_product_gauss(64 * 2 ** level, 128 * 2 ** level, level=level)
    return sphere_monte_carlo(n, 1_000_000 * 2 ** level, seed=seed, level=level)
