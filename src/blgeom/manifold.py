"""Finsler structures over chart boxes: metric fields, parallel transport,
Berwald-defect and local-flatness checks, and conformal-factor recovery.

A structure is a chart box plus a batched norm oracle, its peel: the
norms at an array of points are base o A(x), with one linear map per point
and bases keyed by value; its scalar fields are callables on arrays of
coordinates (see ``FinslerStructure``).  The metric field evaluates the
norm's metric on a regular lattice (one solve per distinct base norm, by
GL-equivariance; see ``bl_field``) and interpolates it with one
tensor-product cubic spline.  The Christoffel symbols use the spline's
exact derivatives in every dimension, all taken with the metric in one
evaluation of a second spline on doubled knots (``MetricField._jet``), and
one batched Cholesky solve with the metric (``_spd_solve``), so the
transport ODE preserves the interpolated metric to integrator accuracy;
that preservation is monitored on every transport and doubles as the
accuracy gate.  The curvature is the plain central difference of the
symbols at the smallest lattice spacing; a stencil point shared by
several nodes is evaluated once, which changes only how often each
point is evaluated (see ``MetricField.riemann``).  Transport integrates
a linear ODE with fixed-step RK4, so each step is a matrix: an attempt
forms every step's matrix from one batch of Christoffel symbols and
multiplies them into one propagator per polyline segment (see
``_segment_propagators``), with no loop over steps.

The Berwald defect of a structure transports probe vectors along closed
loops, all loops in one batch per attempt (see ``_transport``), and
compares norm values both at intermediate points (open-path defect,
catches fields whose tangent norms rotate while the metric stays flat)
and after the full loop (holonomy defect)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericalFailure, TransportAccuracyError
from .invariants import fingerprint_point
from .metric import CONDITION_LIMIT, bl_metric
from .norms import (LinearImage, LpNorm, MinkowskiNorm, PolytopeGauge,
                    WeightedSum, _box_corners, as_finite, as_reals)


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------


@dataclass
class FinslerStructure:
    """Chart box [lo, hi] with a batched norm oracle ``peel``.

    ``peel(X)`` takes chart points X of shape (k, n) and returns
    ``(maps, bases, base_index)``: the norm at X[i] is
    xi -> bases[base_index[i]](maps[i] @ xi), so every structure is a
    field base o A(x).  The maps have shape (k, n, n); the bases are
    distinct by value (equal norms share one entry, so callers solve one
    metric per entry), none is a ``LinearImage``, and each is used by some
    point.  A failure at a point raises ``PointFailure`` with the row of
    that point.  ``norm_at`` is the one-point view.  A scalar field (psi of
    ``rotor_structure``, factor of ``conformal_rescale``) maps coordinates
    x, each x[i] a number or an array of one shape, to a value of that
    shape; a peel of points X calls it once, on X.T.
    """

    chart_lo: np.ndarray
    chart_hi: np.ndarray
    peel: Callable[[np.ndarray], tuple]

    def __post_init__(self):
        self.chart_lo = as_reals(self.chart_lo, "chart bound lo")
        self.chart_hi = as_reals(self.chart_hi, "chart bound hi")
        if self.chart_lo.shape != self.chart_hi.shape or self.chart_lo.ndim != 1:
            raise InputError("chart bounds must be 1-d arrays of equal length")
        with np.errstate(over="ignore"):
            width = self.chart_hi - self.chart_lo
        if not (np.isfinite(self.chart_lo).all() and np.isfinite(width).all()):
            raise InputError("chart bounds and widths must be finite")
        if not np.all(self.chart_hi > self.chart_lo):
            raise InputError("chart box is degenerate")

    @property
    def dim(self) -> int:
        return len(self.chart_lo)

    def norm_at(self, x) -> MinkowskiNorm:
        """The norm at one chart point: its base, or ``LinearImage(A, base)``."""
        try:
            maps, bases, index = self.peel(as_reals(x, "chart point")[None, :])
        except PointFailure as exc:
            raise exc.__cause__ from None
        A, base = maps[0], bases[index[0]]
        return base if np.array_equal(A, np.eye(self.dim)) else LinearImage(A, base)


class PointFailure(Exception):
    """A structure oracle failed at row ``index`` of its points; the error
    itself is the ``__cause__``."""

    def __init__(self, index):
        super().__init__(f"failure at point row {index}")
        self.index = int(index)


def smoothstep(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)

    def bump(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    num = bump(t)
    den = num + bump(1.0 - t)
    return num / den


def _linear_chain(norm: MinkowskiNorm):
    """(A, base) with norm = base o A, peeling nested ``LinearImage`` layers."""
    A = np.eye(norm.dim)
    while isinstance(norm, LinearImage):
        A = norm.matrix @ A
        norm = norm.inner
    return A, norm


def _norm_field(dim: int, lo, hi, peel) -> FinslerStructure:
    """The structure ``peel`` of norms on R^dim over the chart [lo, hi]."""
    structure = FinslerStructure(lo, hi, peel)
    if structure.dim != dim:
        raise InputError(f"a field of norms on R^{dim} needs a {dim}D chart, "
                         f"got a {structure.dim}D chart")
    return structure


def constant_structure(norm: MinkowskiNorm, lo=None, hi=None) -> FinslerStructure:
    """Same Minkowski norm in every tangent space, over [lo, hi] (default [-1, 1]^n)."""
    A, base = _linear_chain(norm)

    def peel(X):
        return np.broadcast_to(A, (len(X),) + A.shape), [base], np.zeros(len(X), dtype=int)

    ones = np.ones(norm.dim)
    return _norm_field(norm.dim, -ones if lo is None else lo, ones if hi is None else hi, peel)


def l1_l2_interpolation(lo=(-1.0, -1.0), hi=(2.0, 1.0)) -> FinslerStructure:
    """Plane structure interpolating from the 1-norm to the 2-norm.

    F(x, xi) = (1 - f(x_1)) * (|xi_1| + |xi_2|) + f(x_1) * |xi|_2 with a
    C-infinity step f that is 0 for x_1 <= 0 and 1 for x_1 >= 1.  The norm
    depends only on x_1; every unit ball is symmetric under the axis
    reflections and the coordinate swap, so the metric field is a scalar
    multiple of the identity at every point.  Points with one weight f
    share one base norm.
    """
    l1 = LpNorm(1, 2)
    l2 = LpNorm(2, 2)

    def peel(X):
        weights, index = np.unique(smoothstep(X[:, 0]), return_inverse=True)
        bases = [l1 if f <= 0.0 else l2 if f >= 1.0 else WeightedSum(1.0 - f, f, l1, l2)
                 for f in weights]
        return np.broadcast_to(np.eye(2), (len(X), 2, 2)), bases, index

    return _norm_field(2, lo, hi, peel)


def square_gauge() -> PolytopeGauge:
    return PolytopeGauge([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def rotor_structure(psi: Callable, base: MinkowskiNorm | None = None,
                    lo=(-1.0, -1.0), hi=(1.0, 1.0)) -> FinslerStructure:
    """Monochromatic plane structure F(x, xi) = F0(R(psi(x)) xi), with a
    scalar field ``psi`` as ``FinslerStructure`` describes.

    All tangent spaces are isometric Minkowski spaces.  With a base norm
    whose metric is a multiple of the identity (default: the square gauge),
    every R(psi(x)) is metric-orthogonal, the metric field is constant, and
    the structure is Berwald exactly when psi is constant.
    """
    if base is None:
        base = square_gauge()
    if base.dim != 2:
        raise InputError("rotor structures are planar")
    A, base = _linear_chain(base)

    def peel(X):
        a = np.broadcast_to(psi(X.T), len(X))
        c, s = np.cos(a), np.sin(a)
        rot = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
        return A @ rot, [base], np.zeros(len(X), dtype=int)

    return _norm_field(2, lo, hi, peel)


def conformal_rescale(base: FinslerStructure, factor: Callable) -> FinslerStructure:
    """Pointwise rescaled structure x -> factor(x) * F_x (scalar field: see
    ``FinslerStructure``)."""

    def peel(X):
        maps, bases, index = base.peel(X)
        lam = np.broadcast_to(factor(X.T), len(X))
        bad = ~(lam > 0)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise PointFailure(k) from InputError(
                f"conformal factor must be positive, got {lam[k]} at {X[k]}")
        return maps * lam[:, None, None], bases, index

    return FinslerStructure(base.chart_lo.copy(), base.chart_hi.copy(), peel)


def rigid_motion(structure: FinslerStructure, rotation, translation) -> FinslerStructure:
    """Push a structure forward through y = R x + t (R orthogonal).

    The chart becomes the bounding box of the mapped corners; the base
    oracle must be defined on the preimage of that box (true for all
    built-ins, whose formulas are global).
    """
    n = structure.dim
    R = as_finite(rotation, "rotation", (n, n))
    t = as_finite(translation, "translation", (n,))
    if not np.allclose(R @ R.T, np.eye(n), atol=1e-12):
        raise InputError("rotation matrix must be orthogonal")
    corners = _box_corners(structure.chart_lo, structure.chart_hi) @ R.T + t

    def peel(Y):
        # x = R^T (y - t) for every row y; F_y(xi) = F_x(R^T xi)
        maps, bases, index = structure.peel((Y - t) @ R)
        return maps @ R.T, bases, index

    return FinslerStructure(corners.min(axis=0), corners.max(axis=0), peel)


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------


_NEAR_BOUNDARY = "is within two lattice spacings of the chart boundary"


class MetricField:
    """Metric tensors on a regular lattice with one tensor-product cubic spline
    for all components.  ``at``, ``christoffel`` and ``riemann`` take a point
    (n,) or a batch (..., n) of points.  The interpolant need not be positive
    definite between nodes even where every node tensor is;
    ``check_positive_definite`` certifies it from the spline coefficients or
    names a point where it fails."""

    def __init__(self, axes: Sequence[np.ndarray], values: np.ndarray):
        from scipy.interpolate import NdBSpline, make_interp_spline

        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.values = np.asarray(values, dtype=float)
        self.dim = len(self.axes)
        grid_shape = tuple(len(a) for a in self.axes)
        if self.values.shape != grid_shape + (self.dim, self.dim):
            raise InputError("field values must have shape grid + (n, n)")
        for i, a in enumerate(self.axes):
            _increasing(a, f"the nodes of lattice axis {i}")
        self.spacing = np.array([a[1] - a[0] for a in self.axes])
        self.lo = np.array([a[0] for a in self.axes])
        self.hi = np.array([a[-1] for a in self.axes])
        # not-a-knot interpolation along one axis at a time (non-finite data is
        # left to check_positive_definite); BSpline.c puts the interpolated
        # axis first, so move it back into place
        coeffs = self.values
        knots = []
        for i, a in enumerate(self.axes):
            sp = make_interp_spline(a, coeffs, k=3, axis=i, check_finite=False)
            coeffs = np.moveaxis(sp.c, 0, i)
            knots.append(sp.t)
        self._spline = NdBSpline(tuple(knots), coeffs, 3)

    def at(self, x) -> np.ndarray:
        """Interpolated metric tensor at chart points, shape (..., n, n)."""
        x = self._check_inside(x, 0.0, "is outside the lattice box")
        g = self._spline(x)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def _check_inside(self, x, margin, problem):
        """``x`` by ``as_reals``, with a last axis of length ``dim``; a point
        not finite or outside the box shrunk by ``margin``, with a slack of
        1e-12 lattice spacings, is an InputError."""
        x = as_reals(x, "point")
        if x.shape[-1:] != (self.dim,):
            raise InputError(f"points need a last axis of length {self.dim}, got {x.shape}")
        margin = margin - 1e-12 * self.spacing
        # negated, so that a NaN coordinate (every comparison false) is outside
        outside = np.any(~(x >= self.lo + margin) | ~(x <= self.hi - margin), axis=-1)
        if np.any(outside):
            raise InputError(f"point {x[outside][0]} {problem}")
        return x

    @cached_property
    def _jet(self):
        """One spline for G and its first partials: components (n + 1, pairs),
        row 0 the upper-triangle entries of G and row 1 + k those of d_k G.

        On the lattice knots with every interior knot doubled, the cubic
        spline (C2 at its knots) and each first partial (quadratic and C1
        along its own axis, cubic along the others) are exactly cubic
        splines, by knot insertion and degree elevation.  Each axis maps
        coefficients to the refined knots (see ``_refine``): every block so
        far takes the value map, and the value block also the derivative
        map, which starts the block of that axis's partial."""
        from scipy.interpolate import NdBSpline

        i, j, _ = _pairs(self.dim)
        c = self._spline.c
        blocks = 0.5 * (c + np.swapaxes(c, -1, -2))[..., None, i, j]
        knots = []
        for axis, t in enumerate(self._spline.t):
            t2, value, slope = _refine(t, axis)
            knots.append(t2)
            blocks = np.concatenate(
                [np.moveaxis(np.tensordot(m, b, axes=(1, axis)), 0, axis)
                 for m, b in ((value, blocks), (slope, blocks[..., :1, :]))], axis=-2)
        return NdBSpline(tuple(knots), blocks, 3)

    def christoffel(self, x) -> np.ndarray:
        """Levi-Civita symbols Gamma[..., k, i, j] at x (symmetric in i, j),
        from the exact derivatives of the spline: one ``_jet`` evaluation
        gives G and every d_k G, and Gamma^k_ij = 1/2 G^kl T_l,ij with
        T_l,ij = d_i G_jl + d_j G_il - d_l G_ij on the pairs i <= j, solved
        for every point at once by ``_spd_solve``.  A point within two
        lattice spacings of the boundary, or not finite, raises
        ``InputError``; a tensor that is not positive definite there raises
        ``NumericalFailure``; both name the point."""
        x = self._check_inside(x, 2.0 * self.spacing, _NEAR_BOUNDARY)
        i, j, pair = _pairs(self.dim)
        l = np.arange(self.dim)[:, None]
        jet = self._jet(x)
        g, d = jet[..., 0, pair], jet[..., 1:, :]    # d[k, pair] = d_k G_pair
        t = d[..., i, pair[j, l]]
        t += d[..., j, pair[i, l]]
        t -= d[..., l, pair[i, j]]
        del jet, d           # in place and freed early: a transport batch is large
        try:
            t = _spd_solve(g, t)
        except NumericalFailure as exc:
            raise NumericalFailure(f"Christoffel symbols failed at point "
                                   f"{x.reshape(-1, self.dim)[exc.row]}: {exc}") from exc
        t *= 0.5
        # C order for the callers' contractions (t[..., pair] would put the
        # pair axes outermost in memory)
        return np.take(t, pair, axis=-1)

    def riemann(self, x) -> np.ndarray:
        """Curvature R[..., l, k, i, j] by central differences of the symbols
        at the smallest lattice spacing h: the stencil is each point x and
        its 2n neighbours x +- h e_k, on every lattice, uniform or not.
        Stencil points that are equal bit for bit (around the nodes of a
        lattice whose nodes and steps are exact binary fractions, the
        neighbours of one node are other nodes and their neighbours; see
        ``_coincident``) are evaluated once, all in one ``christoffel`` call,
        and shared by every stencil that holds them; the stencil and its
        step are those of the plain central difference."""
        # checked here too, so that an error names x and not a stencil point
        x = self._check_inside(x, 2.0 * self.spacing, _NEAR_BOUNDARY)
        n = self.dim
        h = float(self.spacing.min())
        shifts = np.concatenate([np.zeros((1, n)), h * np.eye(n), -h * np.eye(n)])
        pts = (x[..., None, :] + shifts).reshape(-1, n)
        first, back = _coincident(pts)
        gam_all = self.christoffel(pts[first])[back]
        gam_all = gam_all.reshape(x.shape[:-1] + (2 * n + 1,) + gam_all.shape[1:])
        gam = gam_all[..., 0, :, :, :]
        dgam = (gam_all[..., 1:n + 1, :, :, :] - gam_all[..., n + 1:, :, :, :]) / (2.0 * h)
        t1 = np.einsum("...iljk->...lkij", dgam)        # d_i Gamma^l_{jk}
        t2 = np.swapaxes(t1, -1, -2)                    # d_j Gamma^l_{ik}
        t3 = np.einsum("...lis,...sjk->...lkij", gam, gam)   # Gamma^l_{is} Gamma^s_{jk}
        t4 = np.swapaxes(t3, -1, -2)
        return t1 - t2 + t3 - t4

    def check_positive_definite(self):
        """Raise ``NumericalFailure`` unless the interpolated tensor is
        positive definite on the lattice box.

        First a certificate: the cubic B-splines are nonnegative and sum to
        one on the box, so the interpolant at every point is a convex
        combination of the (symmetrized) spline coefficients, and if all of
        those pass one batched Cholesky factorization the whole box is
        definite.  The certificate is only sufficient, so when it fails the
        interpolant is tested on a 4 times finer grid, in slabs of about
        4096 points along axis 0; on that tensor grid the spline is its
        coefficients times one basis matrix per axis.  Eigenvalues are
        computed only to locate a failure, which names its grid point."""
        from scipy.interpolate import BSpline

        c = self._spline.c
        if _definite(0.5 * (c + np.swapaxes(c, -1, -2))):
            return
        axes = [np.linspace(a[0], a[-1], 4 * (len(a) - 1) + 1) for a in self.axes]
        basis = [BSpline.design_matrix(a, t, 3).toarray()
                 for a, t in zip(axes, self._spline.t)]
        rows = max(1, 4096 // int(np.prod([len(a) for a in axes[1:]])))
        for start in range(0, len(axes[0]), rows):
            g = c
            for i, b in enumerate([basis[0][start:start + rows]] + basis[1:]):
                g = np.moveaxis(np.tensordot(b, g, axes=(1, i)), 0, i)
            if not _definite(g):
                low = np.linalg.eigvalsh(g)[..., 0]
                k = np.unravel_index(np.argmin(low), low.shape)  # NaN counts as the minimum
                point = [a[j] for a, j in zip(axes, (start + k[0],) + k[1:])]
                raise NumericalFailure(
                    f"interpolated metric loses positive definiteness near {np.array(point)}")

    def neighbor_variation(self) -> float:
        """Max Frobenius difference between lattice neighbors (continuity probe)."""
        out = 0.0
        for axis in range(self.dim):
            diff = np.diff(self.values, axis=axis)
            out = max(out, float(np.sqrt((diff ** 2).sum(axis=(-2, -1))).max()))
        return out


def _pairs(n: int):
    """Rows i, j of the upper-triangle pairs i <= j of an n x n matrix, and
    the (n, n) array of each entry's pair."""
    i, j = np.triu_indices(n)
    pair = np.empty((n, n), dtype=int)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    return i, j, pair


def _spd_solve(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve g x = b for a batch of symmetric positive definite g (..., n, n)
    and right-hand sides b (..., n, m) by Cholesky elimination g = L L^T,
    vectorised over the batch with a loop over n only; only the lower
    triangle of g is read.  The batch axes go last, so each matrix entry is
    one array.  A pivot that is not finite and positive raises
    ``NumericalFailure`` with the failing row of the flattened batch in its
    message and as its ``row``, before its square root or any division by
    it, so a singular, indefinite or NaN matrix raises without a warning."""
    n = g.shape[-1]
    g = np.moveaxis(g, (-2, -1), (0, 1))
    x = np.moveaxis(b, (-2, -1), (0, 1)).astype(float)
    low = np.zeros(g.shape)
    for j in range(n):
        pivot = g[j, j] - (low[j, :j] ** 2).sum(axis=0)
        bad = ~(np.isfinite(pivot) & (pivot > 0.0))
        if np.any(bad):
            row = int(np.argmax(bad.ravel()))
            failure = NumericalFailure(f"matrix in row {row} is not positive definite "
                                       f"(pivot {j} is {pivot.ravel()[row]:.3e})")
            failure.row = row
            raise failure
        low[j, j] = np.sqrt(pivot)
        low[j + 1:, j] = (g[j + 1:, j] - (low[j + 1:, :j] * low[j, :j]).sum(axis=1)) / low[j, j]
    for j in range(n):                       # L y = b
        x[j] -= (low[j, :j, None] * x[:j]).sum(axis=0)
        x[j] /= low[j, j]
    for j in reversed(range(n)):             # L^T x = y
        x[j] -= (low[j + 1:, j, None] * x[j + 1:]).sum(axis=0)
        x[j] /= low[j, j]
    return np.moveaxis(x, (0, 1), (-2, -1))


def _coincident(pts: np.ndarray):
    """One representative row for each group of equal rows of ``pts`` (k, n),
    and the group of every row: (representatives, groups), so that
    ``pts[representatives][groups]`` is ``pts``.  Rows that are equal bit for
    bit (up to the sign of zero) are one group; no other rows are merged, and
    a row holding a NaN is a group of its own."""
    order = np.lexsort(pts.T)
    ordered = pts[order]
    new = np.ones(len(pts), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    groups = np.empty(len(pts), dtype=int)
    groups[order] = np.cumsum(new) - 1
    return order[new], groups


def _increasing(a: np.ndarray, what: str):
    """Raise an InputError unless ``a`` is strictly increasing: the floats
    near a chart far from the origin may not resolve its spacing."""
    if not np.all(np.diff(a) > 0.0):
        raise InputError(f"{what} are not strictly increasing: the chart's spacing "
                         "is below the float resolution at its coordinates")


def _refine(t, axis: int):
    """Cubic knots ``t`` of chart ``axis`` with every interior knot doubled, and
    the maps of shape (refined, original) that take coefficients on ``t`` to
    those of the same spline and of its derivative on the refined knots.  Each
    map interpolates the original basis at the refined Greville abscissae,
    which recovers a spline of the refined space exactly."""
    from scipy.interpolate import BSpline, make_interp_spline

    t2 = np.sort(np.concatenate([t, t[4:-4]]))
    # the mean of three knots, from knot differences: a sum of knots near
    # the float limit would overflow, and the chart's widths are finite
    mid = t2[2:-2]
    greville = mid + ((t2[1:-3] - mid) + (t2[3:-1] - mid)) / 3.0
    _increasing(greville, f"the Greville abscissae of lattice axis {axis}'s refined knots")
    basis = BSpline(t, np.eye(len(t) - 4), 3)
    maps = make_interp_spline(greville, np.hstack([basis(greville), basis(greville, 1)]),
                              k=3, t=t2).c
    return t2, *np.hsplit(maps, 2)


def _definite(g: np.ndarray) -> bool:
    """Whether one batched Cholesky factorization of ``g`` succeeds and is
    finite (a NaN tensor does not raise, it gives a non-finite factor)."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(g)).all())
    except np.linalg.LinAlgError:
        return False


def default_lattice_shape(dim: int) -> tuple:
    return (33, 33) if dim == 2 else (9,) * dim


# Most nodes a lattice or fingerprint grid may have; checked before any
# array is built.  The default lattices have at most 9^3 = 729 nodes.
MAX_LATTICE_NODES = 1 << 18


def _lattice(lo, hi, shape):
    """Axes and row-stacked nodes of the regular lattice ``shape`` over [lo, hi]."""
    if len(shape) != len(lo):
        raise InputError(f"lattice shape {tuple(shape)} does not match the {len(lo)}D chart")
    if math.prod(int(s) for s in shape) > MAX_LATTICE_NODES:
        raise InputError(f"lattice shape {tuple(shape)} has more than "
                         f"{MAX_LATTICE_NODES} nodes")
    axes = [np.linspace(a, b, int(s)) for a, b, s in zip(lo, hi, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return axes, np.column_stack([m.ravel() for m in mesh])


def _peel(structure: FinslerStructure, pts: np.ndarray, failure: str):
    """``structure.peel(pts)``; a failure at a point becomes a
    ``NumericalFailure`` that reads ``failure``, then the point."""
    try:
        return structure.peel(pts)
    except PointFailure as exc:
        raise NumericalFailure(
            f"{failure} {pts[exc.index]}: {exc.__cause__}") from exc.__cause__


def _gl_metrics(structure: FinslerStructure, pts: np.ndarray, level: int, site: str,
                memo: dict | None = None):
    """Checked metric tensors at ``pts`` by GL-equivariance, as ``bl_field``
    describes; a failure names its point, called ``site`` in the message.
    ``memo`` maps id(base) to the ``BLMetric`` record of a base already
    solved at this level (the record holds the base, so the id stays
    taken), and gains every new solve.
    Returns (tensors, base index of each point, base records)."""
    n = structure.dim
    failure = f"metric evaluation failed at {site}"
    maps, bases, base_of_point = _peel(structure, pts, failure)
    memo = {} if memo is None else memo
    records = []
    for b, base in enumerate(bases):
        if id(base) not in memo:
            try:
                memo[id(base)] = bl_metric(base, level)
            except Exception as exc:
                x = pts[np.argmax(base_of_point == b)]
                raise NumericalFailure(f"{failure} {x}: {exc}") from exc
        records.append(memo[id(base)])
    g0 = np.array([bl.metric for bl in records])[base_of_point]
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite tensor is named below
        values = np.swapaxes(maps, 1, 2) @ g0 @ maps
        values = 0.5 * (values + np.swapaxes(values, 1, 2))
    finite = np.isfinite(values).all(axis=(1, 2))
    eigs = np.linalg.eigvalsh(np.where(finite[:, None, None], values, np.eye(n)))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = eigs[:, -1] / eigs[:, 0]
    bad = ~finite | (eigs[:, 0] <= 0.0) | ~(cond <= CONDITION_LIMIT)
    if np.any(bad):
        k = int(np.argmax(bad))
        if not finite[k]:
            problem = "metric tensor is not finite"
        elif eigs[k, 0] <= 0.0:
            problem = f"metric tensor is not positive definite (min eigenvalue {eigs[k, 0]:.3e})"
        else:
            problem = f"metric tensor is too ill-conditioned (cond = {cond[k]:.3e})"
        raise NumericalFailure(f"{failure} {pts[k]}: {problem}")
    return values, base_of_point, records


def bl_field(structure: FinslerStructure, shape: Sequence[int] | None = None,
             level: int = 0, *, memo: dict | None = None) -> MetricField:
    """Metric of the structure's norm at every lattice node.

    One ``structure.peel`` call gives every node's norm as base o A, the
    metric of every distinct base is solved once by ``bl_metric`` at
    ``level`` (a base in ``memo`` is not solved again; see
    ``_gl_metrics``), and the node tensors are assembled as
    A^T g_base A by GL-equivariance, g_{F o A} = A^T g_F A.  A failure at
    any node, or a node tensor that is not positive definite or exceeds
    ``CONDITION_LIMIT``, aborts with the offending node in the message.
    The interpolated field then passes ``MetricField.check_positive_definite``:
    its spline coefficients certify the whole box, or else a 4 times finer
    grid is tested and a failure names its grid point.
    """
    n = structure.dim
    if shape is None:
        shape = default_lattice_shape(n)
    axes, pts = _lattice(structure.chart_lo, structure.chart_hi, shape)
    if min(len(a) for a in axes) < 5:
        raise InputError("need at least 5 lattice nodes per axis for cubic interpolation")
    values = _gl_metrics(structure, pts, level, "node", memo)[0]
    field = MetricField(axes, values.reshape(tuple(len(a) for a in axes) + (n, n)))
    field.check_positive_definite()
    return field


# Largest relative residual at which ``conformal_factor`` calls two fields
# conformal.
CONFORMAL_TOL = 1e-4


@dataclass
class ConformalFactorResult:
    factor: np.ndarray          # lambda on the lattice
    residual: float             # max ||G_a - lambda^2 G_b|| / ||G_a||
    conformal: bool
    tol: float


def conformal_factor(field_a: MetricField, field_b: MetricField) -> ConformalFactorResult:
    """Recover lambda with G_a = lambda^2 G_b, and report the residual.

    lambda(x) = (det G_a / det G_b)^(1/(2n)), from the log-determinants so
    that no determinant leaves the float range; the fields are conformal
    when the max relative residual stays below ``CONFORMAL_TOL``.
    """
    if len(field_a.axes) != len(field_b.axes) or any(
            a.shape != b.shape or not np.allclose(a, b)
            for a, b in zip(field_a.axes, field_b.axes)):
        raise InputError("fields must share the same lattice")
    n = field_a.dim
    lam = np.exp((np.linalg.slogdet(field_a.values)[1]
                  - np.linalg.slogdet(field_b.values)[1]) / (2 * n))
    diff = field_a.values - lam[..., None, None] ** 2 * field_b.values
    residual = float(_relative_change(diff, field_a.values).max())
    return ConformalFactorResult(lam, residual, residual < CONFORMAL_TOL, CONFORMAL_TOL)


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------


# Relative drift of the transported frame's Gram matrix that a transport
# accepts, and the step halvings it tries before giving up.
GRAM_TOL = 1e-6
MAX_HALVINGS = 4


@dataclass
class TransportResult:
    path: np.ndarray                 # polyline vertices, shape (m, n)
    initial_frame: np.ndarray        # columns are the transported vectors
    frames: list                     # frame after reaching each vertex
    steps: int
    gram_residual: float             # max relative drift of frame^T G frame
    halvings: int                    # step halvings of the accepted attempt

    @property
    def transported_frame(self) -> np.ndarray:
        return self.frames[-1]


def _segment_propagators(field: MetricField, starts, segs, steps) -> np.ndarray:
    """RK4 propagator M of each segment from ``starts[s]`` along ``segs[s]``
    with ``steps[s]`` steps, returned as M - I, shape (segments, n, n).

    The transport ODE is xi' = a(t) xi with a = -Gamma(p + t seg) . seg on a
    segment from p; one ``christoffel`` call gives a at every RK4 stage point
    t = j / (2 m), j = 0..2m, of every segment with m = steps[s] > 0.  One
    RK4 step is the matrix M = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) with
    K1 = a1, K2 = a2 (I + dt/2 K1), K3 = a2 (I + dt/2 K2) and
    K4 = a4 (I + dt K3); every step of every segment is formed in one pass.
    Each segment's steps are then multiplied pairwise, later step on the
    left, in log depth; before each round a segment with an odd number of
    factors gets an identity appended, so no pair straddles two segments.
    A segment with no steps is the identity.  Every factor is held as
    D = M - I and multiplied as (I + B)(I + A) = I + (B + A + B A), so a
    step's small increment is not rounded against the identity.
    """
    stages = 2 * steps + (steps > 0)
    first = np.cumsum(stages) - stages
    seg_of = np.repeat(np.arange(len(segs)), stages)
    t = (np.arange(stages.sum()) - first[seg_of]) / (2 * steps[seg_of])
    rates = -np.einsum("pkij,pi->pkj",
                       field.christoffel(starts[seg_of] + t[:, None] * segs[seg_of]),
                       segs[seg_of])

    n = field.dim
    eye = np.eye(n)
    seg = np.repeat(np.arange(len(steps)), steps)
    local = np.arange(steps.sum()) - np.repeat(np.cumsum(steps) - steps, steps)
    j = first[seg] + 2 * local              # stage row where each step starts
    a1, a2, a4 = rates[j], rates[j + 1], rates[j + 2]
    dt = (1.0 / steps[seg])[:, None, None]
    k2 = a2 @ (eye + 0.5 * dt * a1)
    k3 = a2 @ (eye + 0.5 * dt * k2)
    k4 = a4 @ (eye + dt * k3)
    dev = (dt / 6.0) * (a1 + 2 * k2 + 2 * k3 + k4)
    counts = steps.copy()
    while counts.max() > 1:
        odd = counts % 2 == 1
        dev = np.insert(dev, np.cumsum(counts)[odd], 0.0, axis=0)
        counts = (counts + odd) // 2
        dev = dev[1::2] + dev[0::2] + dev[1::2] @ dev[0::2]
    out = np.zeros((len(steps), n, n))
    out[steps > 0] = dev
    return out


def parallel_transport(field: MetricField, path, frame) -> TransportResult:
    """Transport a frame along a polyline with the field's connection.

    Classical fixed-step RK4 on the linear transport ODE, with up to
    ``MAX_HALVINGS`` step halvings until the frame's Gram matrix in the
    interpolated metric is preserved within ``GRAM_TOL`` (metric
    preservation is exact for the continuous problem, so the drift
    measures integration error).  This is the one-path view of
    ``_transport``, which ``berwald_defect`` runs on all its loops at once.
    """
    return _transport(field, [path], frame)[0]


def _transport(field: MetricField, paths, frame) -> list:
    """``TransportResult`` of ``frame`` along every polyline of ``paths``.

    The ODE is linear, so an attempt makes one ``christoffel`` call for the
    RK4 stage points of every pending path, turns each segment's steps
    into one propagator matrix (see ``_segment_propagators``), reaches the
    vertices by applying the propagators to the frame in turn, and checks
    every pending path's Gram drift with one ``at`` call.  The paths that
    fail the gate retry together with halved steps.  A path's steps and
    halvings are its own, and every array operation acts on each path's
    rows alone, so each result is the one of transporting that path alone.
    Shorter paths are padded with their last vertex: zero-length segments,
    whose propagator is the identity.  After ``MAX_HALVINGS`` the error
    reports the first failing path's residual.
    """
    paths = [as_finite(path, "path") for path in paths]
    for path in paths:
        if path.ndim != 2 or len(path) < 2 or path.shape[1] != field.dim:
            raise InputError("path must be a polyline with at least two points")
    frame = as_finite(frame, "frame")
    if frame.ndim == 1:
        frame = frame[:, None]
    if frame.ndim != 2 or frame.shape[0] != field.dim or frame.shape[1] == 0:
        raise InputError(f"frame must be a vector or a ({field.dim}, k) array of k >= 1 columns")
    if not paths:
        return []
    # transport is linear in the frame: carry it scaled by the power of two
    # of its largest entry, so its Gram matrices neither over- nor underflow
    scale = np.frexp(np.abs(frame).max())[1]
    unit = np.ldexp(frame, -scale)

    width = max(len(path) for path in paths)
    padded = np.array([np.concatenate([path, np.repeat(path[-1:], width - len(path), axis=0)])
                       for path in paths])
    segs = np.diff(padded, axis=1)
    lengths = np.linalg.norm(segs, axis=2)
    base_h = 0.25 * float(field.spacing.min())
    results = [None] * len(paths)
    pending = np.arange(len(paths))
    for attempt in range(MAX_HALVINGS + 1):
        h_target = base_h / 2 ** attempt
        size = lengths[pending]
        steps = np.maximum(4, np.ceil(size / h_target).astype(int)) * (size > 0)
        devs = _segment_propagators(field, padded[pending, :-1].reshape(-1, field.dim),
                                    segs[pending].reshape(-1, field.dim), steps.ravel())
        devs = devs.reshape(steps.shape + devs.shape[1:])
        frames = np.empty((len(pending), width) + frame.shape)
        frames[:, 0] = unit
        for v in range(width - 1):
            frames[:, v + 1] = frames[:, v] + devs[:, v] @ frames[:, v]
        gram = np.swapaxes(frames, -1, -2) @ field.at(padded[pending]) @ frames
        residual = _relative_change(gram - gram[:, :1], gram[:, :1]).max(axis=1)
        ok = residual <= GRAM_TOL                     # a NaN residual fails
        for row in np.flatnonzero(ok):
            p = pending[row]
            reached = np.ldexp(frames[row, :len(paths[p])], scale)
            results[p] = TransportResult(paths[p], frame, list(reached),
                                         int(steps[row].sum()), float(residual[row]), attempt)
        if ok.all():
            return results
        pending = pending[~ok]
    raise TransportAccuracyError(
        f"transport Gram residual {residual[~ok][0]:.3e} exceeds {GRAM_TOL:.1e} after "
        f"{MAX_HALVINGS} step halvings; use a finer lattice")


def _relative_change(diff, ref):
    """|diff| / |ref| in the Frobenius norm over the last two axes, both scaled
    by the power of two of ref's largest entry, so no square over- or underflows."""
    e = np.frexp(np.abs(ref).max(axis=(-2, -1), keepdims=True))[1]
    return (np.linalg.norm(np.ldexp(diff, -e), axis=(-2, -1))
            / np.linalg.norm(np.ldexp(ref, -e), axis=(-2, -1)))


def holonomy_angle(field: MetricField, result: TransportResult) -> float:
    """Rotation angle of a closed-loop transport in a 2D isotropic field."""
    if field.dim != 2:
        raise InputError("holonomy angle is a planar diagnostic")
    shape = result.initial_frame.shape
    if shape != (2, 2):
        raise InputError(f"holonomy angle needs a frame of two vectors, got shape {shape}")
    try:
        p = result.transported_frame @ np.linalg.inv(result.initial_frame)
    except np.linalg.LinAlgError as exc:
        raise InputError("holonomy angle needs two independent frame vectors") from exc
    return float(np.arctan2(p[1, 0] - p[0, 1], p[0, 0] + p[1, 1]))


# ---------------------------------------------------------------------------
# Berwald and local-flatness checks
# ---------------------------------------------------------------------------


# Loop sizes of ``default_loops``, as fractions of the chart's half widths
# less the margin.
LOOP_SCALES = (0.25, 0.5, 0.75)


def default_loops(structure: FinslerStructure, margin: float) -> list:
    """Axis-aligned rectangles at the three ``LOOP_SCALES`` centered in the chart.

    In dimension >= 3 every coordinate plane through the center gets its
    own family of rectangles.
    """
    center = 0.5 * (structure.chart_lo + structure.chart_hi)
    half_width = 0.5 * (structure.chart_hi - structure.chart_lo)
    half_max = half_width - margin
    # a margin equal to the half width leaves round-off (2.2e-16 at 7 lattice nodes)
    if np.any(half_max <= 1e-9 * half_width):
        raise InputError("chart too small for the requested loop margin")
    n = structure.dim
    planes = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [rectangle_loop(center, s * half_max, axes=axes)
            for s in LOOP_SCALES for axes in planes]


def rectangle_loop(center, half, axes: tuple = (0, 1)) -> np.ndarray:
    """Closed rectangle polyline in a coordinate plane, each edge cut into 8.

    ``axes`` selects the plane; coordinates off that plane stay at the
    center value.  Counterclockwise in the chosen plane.
    """
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float)
    i, j = axes
    if i == j or min(i, j) < 0 or max(i, j) >= len(center):
        raise InputError(f"bad loop plane {axes} for dimension {len(center)}")
    signs = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1)])
    corners = np.tile(center, (5, 1))
    corners[:, i] += signs[:, 0] * half[i]
    corners[:, j] += signs[:, 1] * half[j]
    t = np.linspace(0.0, 1.0, 9)[:-1, None]
    edges = corners[:-1, None, :] + t * (corners[1:] - corners[:-1])[:, None, :]
    return np.vstack([edges.reshape(-1, len(center)), corners[-1:]])


def default_probes(dim: int) -> np.ndarray:
    """Probe tangent vectors, as columns."""
    if dim == 2:
        ang = np.arange(8) * (np.pi / 4.0)
        return np.column_stack([np.array([np.cos(a), np.sin(a)]) for a in ang])
    return np.column_stack([np.eye(dim), _box_corners(-np.ones(dim), np.ones(dim)).T / np.sqrt(dim)])


@dataclass
class BerwaldReport:
    defect: float
    per_loop: list
    gram_residual: float


def berwald_defect(structure: FinslerStructure, field: MetricField,
                   loops=None) -> BerwaldReport:
    """Max relative change of F under transport along ``loops``; by default
    the ``default_loops`` that keep three of the field's largest spacings
    from the chart edge.

    Every ``default_probes`` vector is transported along every loop with
    the connection of ``field``, the structure's metric field (see
    ``bl_field``), all loops in one batch (``_transport``); the
    defect compares F at each reached point against F at the start, i.e.
    |F(y, P xi) - F(x, xi)| / F(x, xi) along the path and around the full
    loop.  F at the vertices of every loop comes from one
    ``structure.peel`` of all of them, as base(A xi), with one ``values``
    call per distinct base.  A Berwald structure keeps this at numerical
    noise; the report also carries the worst metric-preservation residual
    of the transports.  A structure that fails at a vertex raises
    ``NumericalFailure`` naming the vertex.
    """
    if loops is None:
        try:
            loops = default_loops(structure, 3.0 * float(field.spacing.max()))
        except InputError as exc:
            lattice = "x".join(str(len(a)) for a in field.axes)
            raise InputError(
                f"lattice {lattice} is too coarse for the Berwald loops, which keep "
                "three of its largest spacings from the chart edge; refine the "
                "lattice (a square chart needs at least 8 nodes per axis)") from exc
    n = structure.dim
    results = _transport(field, loops, default_probes(n))
    if not results:
        return BerwaldReport(0.0, [], 0.0)
    vertices = np.concatenate([result.path for result in results])
    maps, bases, base_of_vertex = _peel(structure, vertices, "norm evaluation failed at point")
    # F at vertex v of its frame's column p is base_v(A_v xi_vp)
    vecs = np.einsum("vij,vjp->vpi", maps,
                     np.concatenate([result.frames for result in results]))
    f = np.empty(vecs.shape[:2])
    for b, base in enumerate(bases):
        at = base_of_vertex == b
        f[at] = base.values(vecs[at].reshape(-1, n)).reshape(-1, f.shape[1])
    ends = np.cumsum([len(result.path) for result in results])[:-1]
    per_loop = [float((np.abs(fl[1:] - fl[0]) / fl[0]).max()) for fl in np.split(f, ends)]
    return BerwaldReport(max(per_loop), per_loop,
                         max(result.gram_residual for result in results))


@dataclass
class FlatnessReport:
    flat_residual: float
    berwald_defect: float
    locally_minkowski: bool
    tol: float

    @property
    def verdict(self) -> str:
        return "locally Minkowski" if self.locally_minkowski else "not locally Minkowski"


def is_locally_minkowski(structure: FinslerStructure, *, shape=None,
                         level: int = 0, tol: float = 1e-4) -> FlatnessReport:
    """Flat metric + Berwald <=> the structure is locally a Minkowski space.

    flat_residual is the max curvature entry over interior lattice nodes;
    the Berwald defect runs the default loops.  Both must fall below ``tol``
    for a positive verdict.  If either lies within the largest relative
    error of the field at the cell midpoints (against a direct solve) of
    ``tol``, the verdict is undecided: ``NumericalFailure``.
    The midpoints reuse the metric of every base object the lattice solved.
    """
    solved = {}
    field = bl_field(structure, shape=shape, level=level, memo=solved)
    # nodes at least three spacings inside: riemann's stencil reaches one
    # spacing out, christoffel's margin is two
    interior = np.meshgrid(*[a[3:-3] for a in field.axes], indexing="ij")
    flat = float(np.abs(field.riemann(np.stack(interior, axis=-1))).max(initial=0.0))
    report = berwald_defect(structure, field)
    half = 0.5 * field.spacing
    _, mid = _lattice(field.lo + half, field.hi - half, [len(a) - 1 for a in field.axes])
    direct = _gl_metrics(structure, mid, level, "point", solved)[0]
    band = float(_relative_change(field.at(mid) - direct, direct).max())
    for name, value in (("flat residual", flat), ("Berwald defect", report.defect)):
        if abs(value - tol) <= band:
            raise NumericalFailure(
                f"verdict undecided at this lattice: {name} {value:.3e} is within the "
                f"interpolation error {band:.1e} of its tolerance {tol:.1e}; refine the lattice")
    return FlatnessReport(flat, report.defect, flat < tol and report.defect < tol, tol)


# ---------------------------------------------------------------------------
# fingerprint clouds over a structure
# ---------------------------------------------------------------------------


def fingerprint_cloud(structure: FinslerStructure, grid=None, *, level: int = 0):
    """Fingerprints of the pointwise norms over a chart grid.

    The grid (default 8 points per axis) spans the chart box shrunk by 5% of
    its width on every side.
    Returns (points, cloud) with one fingerprint row per grid point.  The
    fingerprint is taken in coordinates where the norm's own metric is the
    identity, so it is GL-invariant: base o A has the fingerprint of base.
    Each point's norm is peeled into base o A and ``fingerprint_point`` runs
    once per distinct base, on the base record the gate already solved.
    Every point's tensor A^T g_base A still passes
    the finite, positive-definite and ``CONDITION_LIMIT`` gate of
    ``bl_field``, so a point whose own metric would fail raises
    ``NumericalFailure`` naming that point.
    """
    if grid is None:
        grid = (8,) * structure.dim
    width = structure.chart_hi - structure.chart_lo
    _, pts = _lattice(structure.chart_lo + 0.05 * width, structure.chart_hi - 0.05 * width, grid)
    _, base_of_point, records = _gl_metrics(structure, pts, level, "point")
    rows = np.array([fingerprint_point(bl) for bl in records])
    return pts, rows[base_of_point]
