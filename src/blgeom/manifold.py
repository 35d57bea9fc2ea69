"""Finsler structures over chart boxes: metric fields, parallel transport,
Berwald-defect and local-flatness checks, and conformal-factor recovery.

A structure is a chart box plus a point-indexed norm oracle.  The metric
field evaluates the norm's metric on a regular lattice (one solve per
distinct base norm, by GL-equivariance; see ``bl_field``) and interpolates it
componentwise with cubic splines; Christoffel symbols use the analytic
derivatives of the interpolant (see ``christoffel``), so the transport ODE
preserves the interpolated metric to integrator accuracy -- that
preservation is monitored on every transport and doubles as the accuracy
gate.

The Berwald defect of a structure transports probe vectors along closed
loops and compares norm values both at intermediate points (open-path
defect, catches fields whose tangent norms rotate while the metric stays
flat) and after the full loop (holonomy defect)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import RectBivariateSpline, RegularGridInterpolator

from .errors import InputError, NumericalFailure, TransportAccuracyError
from .invariants import fingerprint_point
from .metric import CONDITION_LIMIT, bl_metric
from .norms import (Euclidean, LinearImage, LpNorm, MinkowskiNorm,
                    PolytopeGauge, WeightedSum, rescale, validate)
from .quadrature import auto_quadrature


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------


@dataclass
class FinslerStructure:
    """Chart box [lo, hi] with a norm oracle x -> MinkowskiNorm."""

    chart_lo: np.ndarray
    chart_hi: np.ndarray
    norm_at: Callable[[np.ndarray], MinkowskiNorm]
    smoothness: str = "smooth"  # {"smooth", "partially-smooth", "continuous"}
    label: str = ""
    spec: dict | None = None

    def __post_init__(self):
        self.chart_lo = np.asarray(self.chart_lo, dtype=float)
        self.chart_hi = np.asarray(self.chart_hi, dtype=float)
        if self.chart_lo.shape != self.chart_hi.shape or self.chart_lo.ndim != 1:
            raise InputError("chart bounds must be 1-d arrays of equal length")
        if not np.all(self.chart_hi > self.chart_lo):
            raise InputError("chart box is degenerate")

    @property
    def dim(self) -> int:
        return len(self.chart_lo)

    def contains(self, x, margin: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.chart_lo + margin) and np.all(x <= self.chart_hi - margin))

    def validate_samples(self, count: int = 5, samples: int = 300, seed: int = 0):
        """Validate the norm oracle at random chart points."""
        rng = np.random.default_rng(seed)
        reports = []
        for _ in range(count):
            x = rng.uniform(self.chart_lo, self.chart_hi)
            reports.append((x, validate(self.norm_at(x), samples, seed=seed)))
        return reports


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


def scalar_field_from_spec(spec: dict) -> Callable[[np.ndarray], float]:
    """Named scalar fields usable in JSON structure specs."""
    kind = spec.get("kind")
    if kind == "constant":
        value = float(spec["value"])
        return lambda x: value
    axis = int(spec.get("axis", 0))
    if kind == "one-plus-sin":
        amp = float(spec["amp"])
        freq = float(spec.get("freq", 1.0))
        phase = float(spec.get("phase", 0.0))
        return lambda x: 1.0 + amp * np.sin(freq * x[axis] + phase)
    if kind == "linear":
        slope = float(spec["slope"])
        offset = float(spec.get("offset", 0.0))
        return lambda x: offset + slope * x[axis]
    if kind == "exp-linear":
        rate = float(spec["rate"])
        return lambda x: float(np.exp(rate * x[axis]))
    raise InputError(f"unknown scalar field kind {spec.get('kind')!r}")


def constant_structure(norm: MinkowskiNorm, lo=(-1.0, -1.0), hi=(1.0, 1.0),
                       label: str = "constant") -> FinslerStructure:
    """Same Minkowski norm in every tangent space."""
    return FinslerStructure(np.asarray(lo, float), np.asarray(hi, float),
                            lambda x: norm, smoothness="smooth", label=label)


def l1_l2_interpolation(lo=(-1.0, -1.0), hi=(2.0, 1.0)) -> FinslerStructure:
    """Plane structure interpolating from the 1-norm to the 2-norm.

    F(x, xi) = (1 - f(x_1)) * (|xi_1| + |xi_2|) + f(x_1) * |xi|_2 with a
    C-infinity step f that is 0 for x_1 <= 0 and 1 for x_1 >= 1.  The norm
    depends only on x_1; every unit ball is symmetric under the axis
    reflections and the coordinate swap, so the metric field is a scalar
    multiple of the identity at every point.
    """
    l1 = LpNorm(1, 2)
    l2 = LpNorm(2, 2)

    def norm_at(x):
        f = float(smoothstep(np.array([x[0]]))[0])
        if f <= 0.0:
            return l1
        if f >= 1.0:
            return l2
        return WeightedSum(1.0 - f, f, l1, l2)

    return FinslerStructure(np.asarray(lo, float), np.asarray(hi, float), norm_at,
                            smoothness="continuous", label="l1-l2-interpolation")


def square_gauge() -> PolytopeGauge:
    return PolytopeGauge([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def rotor_structure(psi: Callable[[np.ndarray], float] | dict,
                    base: MinkowskiNorm | None = None,
                    lo=(-1.0, -1.0), hi=(1.0, 1.0)) -> FinslerStructure:
    """Monochromatic plane structure F(x, xi) = F0(R(psi(x)) xi).

    All tangent spaces are isometric Minkowski spaces.  With a base norm
    whose metric is a multiple of the identity (default: the square gauge),
    every R(psi(x)) is metric-orthogonal, the metric field is constant, and
    the structure is Berwald exactly when psi is constant.
    """
    if isinstance(psi, dict):
        psi = scalar_field_from_spec(psi)
    if base is None:
        base = square_gauge()
    if base.dim != 2:
        raise InputError("rotor structures are planar")

    def norm_at(x):
        a = float(psi(x))
        c, s = np.cos(a), np.sin(a)
        return LinearImage(np.array([[c, -s], [s, c]]), base)

    return FinslerStructure(np.asarray(lo, float), np.asarray(hi, float), norm_at,
                            smoothness="partially-smooth", label="rotor")


def conformal_rescale(base: FinslerStructure,
                      factor: Callable[[np.ndarray], float] | dict) -> FinslerStructure:
    """Pointwise rescaled structure x -> factor(x) * F_x."""
    if isinstance(factor, dict):
        factor = scalar_field_from_spec(factor)

    def norm_at(x):
        lam = float(factor(x))
        if not lam > 0:
            raise InputError(f"conformal factor must be positive, got {lam} at {x}")
        return rescale(base.norm_at(x), lam)

    return FinslerStructure(base.chart_lo.copy(), base.chart_hi.copy(), norm_at,
                            smoothness=base.smoothness,
                            label=f"conformal({base.label})")


def holonomy_extension(norm: MinkowskiNorm, lo=(-1.0, -1.0), hi=(1.0, 1.0)) -> FinslerStructure:
    """Extend a seed norm over a flat chart by parallel translation.

    The Levi-Civita transport of a flat chart is trivial, so the extension
    is the constant field with the seed norm; by construction it is Berwald
    and locally flat.
    """
    return constant_structure(norm, lo, hi, label="holonomy-extension")


def rigid_motion(structure: FinslerStructure, rotation, translation) -> FinslerStructure:
    """Push a structure forward through y = R x + t (R orthogonal).

    The chart becomes the bounding box of the mapped corners; the base
    oracle must be defined on the preimage of that box (true for all
    built-ins, whose formulas are global).
    """
    R = np.asarray(rotation, dtype=float)
    t = np.asarray(translation, dtype=float)
    if not np.allclose(R @ R.T, np.eye(len(t)), atol=1e-12):
        raise InputError("rotation matrix must be orthogonal")
    corners = _box_corners(structure.chart_lo, structure.chart_hi) @ R.T + t
    Rinv = R.T

    def norm_at(y):
        x = Rinv @ (np.asarray(y, float) - t)
        return LinearImage(Rinv, structure.norm_at(x))

    return FinslerStructure(corners.min(axis=0), corners.max(axis=0), norm_at,
                            smoothness=structure.smoothness,
                            label=f"moved({structure.label})")


def _box_corners(lo, hi):
    n = len(lo)
    out = np.empty((2 ** n, n))
    for k in range(2 ** n):
        for i in range(n):
            out[k, i] = hi[i] if (k >> i) & 1 else lo[i]
    return out


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------


class MetricField:
    """Metric tensors on a regular lattice with componentwise cubic interpolation."""

    def __init__(self, axes: Sequence[np.ndarray], values: np.ndarray):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.values = np.asarray(values, dtype=float)
        self.dim = len(self.axes)
        grid_shape = tuple(len(a) for a in self.axes)
        if self.values.shape != grid_shape + (self.dim, self.dim):
            raise InputError("field values must have shape grid + (n, n)")
        self.spacing = np.array([a[1] - a[0] for a in self.axes])
        self.lo = np.array([a[0] for a in self.axes])
        self.hi = np.array([a[-1] for a in self.axes])
        if self.dim == 2:
            self._splines = {}
            x, y = self.axes
            for i in range(2):
                for j in range(i, 2):
                    self._splines[(i, j)] = RectBivariateSpline(
                        x, y, self.values[:, :, i, j], kx=3, ky=3, s=0)
        else:
            self._interp = RegularGridInterpolator(
                tuple(self.axes), self.values, method="cubic",
                bounds_error=True)

    def at(self, x) -> np.ndarray:
        """Interpolated metric tensor at a chart point."""
        x = np.asarray(x, dtype=float)
        if self.dim == 2:
            g = np.empty((2, 2))
            for (i, j), sp in self._splines.items():
                g[i, j] = g[j, i] = sp.ev(x[0], x[1])
            return g
        g = self._interp(x[None, :])[0]
        return 0.5 * (g + g.T)

    def _jacobian(self, x) -> np.ndarray:
        """d G / d x_k, shape (n, n, n) with the derivative axis first."""
        x = np.asarray(x, dtype=float)
        if self.dim == 2:
            jac = np.empty((2, 2, 2))
            for (i, j), sp in self._splines.items():
                jac[0, i, j] = jac[0, j, i] = sp.ev(x[0], x[1], dx=1)
                jac[1, i, j] = jac[1, j, i] = sp.ev(x[0], x[1], dy=1)
            return jac
        # n >= 3: central differences of the interpolant at half spacing
        jac = np.empty((self.dim, self.dim, self.dim))
        for k in range(self.dim):
            h = 0.5 * self.spacing[k]
            e = np.zeros(self.dim)
            e[k] = h
            jac[k] = (self.at(x + e) - self.at(x - e)) / (2.0 * h)
        return jac

    def christoffel(self, x) -> np.ndarray:
        """Levi-Civita symbols Gamma[k, i, j] at x (symmetric in i, j).

        Derivatives are those of the cubic interpolant itself (for n = 2
        exact spline derivatives, i.e. a high-order difference of the
        lattice data), so transport through the returned symbols preserves
        the interpolated metric to integrator accuracy.
        """
        x = np.asarray(x, dtype=float)
        margin = 2.0 * self.spacing
        if np.any(x < self.lo + margin - 1e-12) or np.any(x > self.hi - margin + 1e-12):
            raise InputError(
                f"point {x} is within two lattice spacings of the chart boundary")
        g = self.at(x)
        jac = self._jacobian(x)
        ginv = np.linalg.inv(g)
        t = jac + np.transpose(jac, (1, 0, 2)) - np.transpose(jac, (1, 2, 0))
        return 0.5 * np.einsum("kl,ijl->kij", ginv, t)

    def riemann(self, x, step: float | None = None) -> np.ndarray:
        """Curvature R[l, k, i, j] by central differences of the symbols."""
        x = np.asarray(x, dtype=float)
        n = self.dim
        h = step if step is not None else float(self.spacing.min())
        dgam = np.empty((n, n, n, n))
        for d in range(n):
            e = np.zeros(n)
            e[d] = h
            dgam[d] = (self.christoffel(x + e) - self.christoffel(x - e)) / (2.0 * h)
        gam = self.christoffel(x)
        t1 = np.transpose(dgam, (1, 3, 0, 2))          # d_i Gamma^l_{jk}
        t2 = np.transpose(t1, (0, 1, 3, 2))            # d_j Gamma^l_{ik}
        t3 = np.einsum("lis,sjk->lkij", gam, gam)      # Gamma^l_{is} Gamma^s_{jk}
        t4 = np.transpose(t3, (0, 1, 3, 2))
        return t1 - t2 + t3 - t4

    def check_positive_definite(self, refine: int = 4):
        """Eigenvalue check of the interpolated tensor on a denser grid."""
        axes = [np.linspace(a[0], a[-1], refine * (len(a) - 1) + 1) for a in self.axes]
        if self.dim == 2:
            xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            g = np.empty((len(pts), 2, 2))
            for (i, j), sp in self._splines.items():
                vals = sp.ev(pts[:, 0], pts[:, 1])
                g[:, i, j] = g[:, j, i] = vals
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.column_stack([m.ravel() for m in mesh])
            g = self._interp(pts)
        eigs = np.linalg.eigvalsh(g)
        if eigs.min() <= 0.0:
            k = int(np.argmin(eigs.min(axis=-1)))
            raise NumericalFailure(
                f"interpolated metric loses positive definiteness near {pts[k]}")

    def neighbor_variation(self) -> float:
        """Max Frobenius difference between lattice neighbors (continuity probe)."""
        out = 0.0
        for axis in range(self.dim):
            diff = np.diff(self.values, axis=axis)
            out = max(out, float(np.sqrt((diff ** 2).sum(axis=(-2, -1))).max()))
        return out


def default_lattice_shape(dim: int) -> tuple:
    return (33, 33) if dim == 2 else (9,) * dim


def _linear_chain(norm: MinkowskiNorm):
    """(A, base) with norm = base o A, peeling nested ``LinearImage`` layers."""
    A = np.eye(norm.dim)
    while isinstance(norm, LinearImage):
        A = norm.matrix @ A
        norm = norm.inner
    return A, norm


def bl_field(structure: FinslerStructure, shape: Sequence[int] | None = None,
             level: int = 0, seed: int = 0) -> MetricField:
    """Metric of the structure's norm at every lattice node.

    Each node's norm is peeled into base o A (``A = I`` when it is not a
    linear image), the metric of every distinct base is solved once with
    its own ``auto_quadrature``, and the node tensors are assembled as
    A^T g_base A by GL-equivariance, g_{F o A} = A^T g_F A.  A failure at
    any node, or a node tensor that is not positive definite or exceeds
    ``CONDITION_LIMIT``, aborts with the offending node in the message.
    """
    n = structure.dim
    if shape is None:
        shape = default_lattice_shape(n)
    if len(shape) != n:
        raise InputError("lattice shape must match the chart dimension")
    axes = [np.linspace(structure.chart_lo[i], structure.chart_hi[i], int(shape[i]))
            for i in range(n)]
    if min(len(a) for a in axes) < 5:
        raise InputError("need at least 5 lattice nodes per axis for cubic interpolation")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    maps = np.empty((len(pts), n, n))
    base_of_node = np.empty(len(pts), dtype=int)
    # id(base) -> (index, base): holding the base keeps its id from being reused
    bases: dict = {}
    base_metrics = []
    for k, x in enumerate(pts):
        try:
            maps[k], base = _linear_chain(structure.norm_at(x))
            if id(base) not in bases:
                q = auto_quadrature(base, level=level, seed=seed)
                base_metrics.append(bl_metric(base, q))
                bases[id(base)] = (len(bases), base)
        except Exception as exc:
            raise NumericalFailure(f"metric evaluation failed at node {x}: {exc}") from exc
        base_of_node[k] = bases[id(base)][0]
    g0 = np.array(base_metrics)[base_of_node]
    values = np.einsum("kai,kab,kbj->kij", maps, g0, maps)
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
        raise NumericalFailure(f"metric evaluation failed at node {pts[k]}: {problem}")
    field = MetricField(axes, values.reshape(tuple(len(a) for a in axes) + (n, n)))
    field.check_positive_definite()
    return field


@dataclass
class ConformalFactorResult:
    factor: np.ndarray          # lambda on the lattice
    residual: float             # max ||G_a - lambda^2 G_b|| / ||G_a||
    conformal: bool
    tol: float = 1e-4


def conformal_factor(field_a: MetricField, field_b: MetricField,
                     tol: float = 1e-4) -> ConformalFactorResult:
    """Recover lambda with G_a = lambda^2 G_b, and report the residual.

    lambda(x) = (det G_a / det G_b)^(1/(2n)); the fields are conformal when
    the max relative residual stays below ``tol``.
    """
    if len(field_a.axes) != len(field_b.axes) or any(
            a.shape != b.shape or not np.allclose(a, b)
            for a, b in zip(field_a.axes, field_b.axes)):
        raise InputError("fields must share the same lattice")
    n = field_a.dim
    det_a = np.linalg.det(field_a.values)
    det_b = np.linalg.det(field_b.values)
    lam = (det_a / det_b) ** (1.0 / (2 * n))
    diff = field_a.values - lam[..., None, None] ** 2 * field_b.values
    num = np.sqrt((diff ** 2).sum(axis=(-2, -1)))
    den = np.sqrt((field_a.values ** 2).sum(axis=(-2, -1)))
    residual = float((num / den).max())
    return ConformalFactorResult(lam, residual, residual < tol, tol)


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------


@dataclass
class TransportResult:
    path: np.ndarray                 # polyline vertices, shape (m, n)
    initial_frame: np.ndarray        # columns are the transported vectors
    frames: list                     # frame after reaching each vertex
    steps: int
    gram_residual: float             # max relative drift of frame^T G frame

    @property
    def transported_frame(self) -> np.ndarray:
        return self.frames[-1]


def parallel_transport(field: MetricField, path, frame, *,
                       gram_tol: float = 1e-6, max_halvings: int = 4) -> TransportResult:
    """Transport a frame along a polyline with the field's connection.

    Classical fixed-step RK4 on the linear transport ODE, with step halving
    until the frame's Gram matrix in the interpolated metric is preserved
    within ``gram_tol`` (metric preservation is exact for the continuous
    problem, so the drift measures integration error).
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or len(path) < 2 or path.shape[1] != field.dim:
        raise InputError("path must be a polyline with at least two points")
    frame = np.asarray(frame, dtype=float)
    if frame.ndim == 1:
        frame = frame[:, None]
    if frame.shape[0] != field.dim:
        raise InputError("frame vectors must match the field dimension")

    base_h = 0.25 * float(field.spacing.min())
    for attempt in range(max_halvings + 1):
        h_target = base_h / 2 ** attempt
        frames = [frame.copy()]
        xi = frame.copy()
        total_steps = 0
        for a, b in zip(path[:-1], path[1:]):
            seg = b - a
            length = float(np.linalg.norm(seg))
            if length == 0.0:
                frames.append(xi.copy())
                continue
            steps = max(4, int(np.ceil(length / h_target)))
            dt = 1.0 / steps

            def rhs(t, mat):
                gamma = field.christoffel(a + t * seg)
                return -np.einsum("kij,i,jm->km", gamma, seg, mat)

            t = 0.0
            for _ in range(steps):
                k1 = rhs(t, xi)
                k2 = rhs(t + 0.5 * dt, xi + 0.5 * dt * k1)
                k3 = rhs(t + 0.5 * dt, xi + 0.5 * dt * k2)
                k4 = rhs(t + dt, xi + dt * k3)
                xi = xi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                t += dt
            total_steps += steps
            frames.append(xi.copy())
        residual = _gram_residual(field, path, frame, frames)
        if residual <= gram_tol:
            return TransportResult(path, frame, frames, total_steps, residual)
    raise TransportAccuracyError(
        f"transport Gram residual {residual:.3e} exceeds {gram_tol:.1e} after "
        f"{max_halvings} step halvings; use a finer lattice or looser tolerance")


def _gram_residual(field, path, frame, frames):
    g0 = frame.T @ field.at(path[0]) @ frame
    scale = float(np.linalg.norm(g0))
    worst = 0.0
    for x, f in zip(path, frames):
        g = f.T @ field.at(x) @ f
        worst = max(worst, float(np.linalg.norm(g - g0)) / scale)
    return worst


def holonomy_angle(field: MetricField, result: TransportResult) -> float:
    """Rotation angle of a closed-loop transport in a 2D isotropic field."""
    if field.dim != 2:
        raise InputError("holonomy angle is a planar diagnostic")
    p = result.transported_frame @ np.linalg.inv(result.initial_frame)
    return float(np.arctan2(p[1, 0] - p[0, 1], p[0, 0] + p[1, 1]))


# ---------------------------------------------------------------------------
# Berwald and local-flatness checks
# ---------------------------------------------------------------------------


def default_loops(structure: FinslerStructure, margin: float,
                  scales=(0.25, 0.5, 0.75), points_per_edge: int = 8) -> list:
    """Axis-aligned rectangles at three scales centered in the chart.

    In dimension >= 3 every coordinate plane through the center gets its
    own family of rectangles.
    """
    center = 0.5 * (structure.chart_lo + structure.chart_hi)
    half_max = 0.5 * (structure.chart_hi - structure.chart_lo) - margin
    if np.any(half_max <= 0):
        raise InputError("chart too small for the requested loop margin")
    n = structure.dim
    planes = [(i, j) for i in range(n) for j in range(i + 1, n)]
    loops = []
    for s in scales:
        for axes in planes:
            loops.append(rectangle_loop(center, s * half_max, points_per_edge,
                                        axes=axes))
    return loops


def rectangle_loop(center, half, points_per_edge: int = 8,
                   axes: tuple = (0, 1)) -> np.ndarray:
    """Closed rectangle polyline in a coordinate plane, edges subdivided.

    ``axes`` selects the plane; coordinates off that plane stay at the
    center value.  Counterclockwise in the chosen plane.
    """
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float)
    i, j = axes
    if i == j or max(i, j) >= len(center):
        raise InputError(f"bad loop plane {axes} for dimension {len(center)}")
    signs = [(-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1)]
    corners = []
    for si, sj in signs:
        c = center.copy()
        c[i] += si * half[i]
        c[j] += sj * half[j]
        corners.append(c)
    pts = []
    for a, b in zip(corners[:-1], corners[1:]):
        for t in np.linspace(0.0, 1.0, points_per_edge + 1)[:-1]:
            pts.append(a + t * (b - a))
    pts.append(corners[-1])
    return np.array(pts)


def default_probes(dim: int) -> np.ndarray:
    """Probe tangent vectors, as columns."""
    if dim == 2:
        ang = np.arange(8) * (np.pi / 4.0)
        return np.column_stack([np.array([np.cos(a), np.sin(a)]) for a in ang])
    axes = np.eye(dim)
    corners = _box_corners(-np.ones(dim), np.ones(dim)).T
    corners = corners / np.linalg.norm(corners, axis=0, keepdims=True)
    return np.column_stack([axes, corners])


@dataclass
class BerwaldReport:
    defect: float
    per_loop: list
    gram_residual: float


def berwald_defect(structure: FinslerStructure, loops=None, probes=None, *,
                   field: MetricField | None = None, shape=None,
                   level: int = 0, gram_tol: float = 1e-6) -> BerwaldReport:
    """Max relative change of F under transport along the given loops.

    For every loop, every probe vector is transported with the metric
    field's connection; the defect compares F at each reached point against
    F at the start, i.e. |F(y, P xi) - F(x, xi)| / F(x, xi) along the path
    and around the full loop.  A Berwald structure keeps this at numerical
    noise; the report also carries the worst metric-preservation residual
    of the transports.
    """
    if field is None:
        field = bl_field(structure, shape=shape, level=level)
    if loops is None:
        margin = 3.0 * float(field.spacing.max())
        loops = default_loops(structure, margin)
    if probes is None:
        probes = default_probes(structure.dim)
    probes = np.asarray(probes, dtype=float)
    if probes.ndim == 1:
        probes = probes[:, None]

    worst = 0.0
    gram_worst = 0.0
    per_loop = []
    for loop in loops:
        result = parallel_transport(field, loop, probes, gram_tol=gram_tol)
        gram_worst = max(gram_worst, result.gram_residual)
        f0 = structure.norm_at(loop[0]).values(probes.T)
        loop_worst = 0.0
        for x, fr in zip(loop[1:], result.frames[1:]):
            fx = structure.norm_at(x).values(fr.T)
            loop_worst = max(loop_worst, float((np.abs(fx - f0) / f0).max()))
        per_loop.append(loop_worst)
        worst = max(worst, loop_worst)
    return BerwaldReport(worst, per_loop, gram_worst)


@dataclass
class FlatnessReport:
    flat_residual: float
    berwald_defect: float
    locally_minkowski: bool
    flat_tol: float = 1e-4
    berwald_tol: float = 1e-4

    @property
    def verdict(self) -> str:
        return "locally Minkowski" if self.locally_minkowski else "not locally Minkowski"


def is_locally_minkowski(structure: FinslerStructure, *, shape=None,
                         level: int = 0, flat_tol: float = 1e-4,
                         berwald_tol: float = 1e-4) -> FlatnessReport:
    """Flat metric + Berwald <=> the structure is locally a Minkowski space.

    flat_residual is the max curvature entry over interior lattice nodes;
    the Berwald defect runs the default loops.  Both must fall below their
    tolerances for a positive verdict.
    """
    field = bl_field(structure, shape=shape, level=level)
    h = field.spacing
    flat = 0.0
    interior_axes = [a[(a >= field.lo[i] + 3.0 * h[i] - 1e-12)
                       & (a <= field.hi[i] - 3.0 * h[i] + 1e-12)]
                     for i, a in enumerate(field.axes)]
    mesh = np.meshgrid(*interior_axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    for x in pts:
        flat = max(flat, float(np.abs(field.riemann(x)).max()))
    report = berwald_defect(structure, field=field, shape=shape, level=level)
    ok = flat < flat_tol and report.defect < berwald_tol
    return FlatnessReport(flat, report.defect, ok, flat_tol, berwald_tol)


# ---------------------------------------------------------------------------
# fingerprint clouds over a structure
# ---------------------------------------------------------------------------


def fingerprint_cloud(structure: FinslerStructure, grid=(8, 8), *,
                      level: int = 0, margin_fraction: float = 0.05):
    """Fingerprints of the pointwise norms over a chart grid.

    Returns (points, cloud) with one fingerprint row per grid point.
    """
    n = structure.dim
    if len(grid) != n:
        raise InputError("grid shape must match the chart dimension")
    width = structure.chart_hi - structure.chart_lo
    axes = [np.linspace(structure.chart_lo[i] + margin_fraction * width[i],
                        structure.chart_hi[i] - margin_fraction * width[i],
                        int(grid[i])) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    rows = [fingerprint_point(structure.norm_at(x), level=level) for x in pts]
    return pts, np.array(rows)
