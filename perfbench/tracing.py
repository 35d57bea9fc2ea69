"""Traced run: spans around blgeom's public functions, recorded from outside.

:class:`Tracer` wraps every public function and method of the layer modules
(plus ``MetricField.__init__``, the interpolant build) and rebinds every
``from .x import f`` copy of a wrapped function in any ``blgeom`` module,
so a call through ``blgeom.cli.bl_field`` or ``blgeom.manifold.bl_metric``
is seen as well.  Each span records (name, start, end, parent span, job,
work count) in compact in-memory arrays; :meth:`Tracer.save` writes them
out once the run ends.

A call whose innermost open span is the same function is not a new span:
``LinearImage``/``WeightedSum`` evaluate their inner norms through
``MinkowskiNorm.values`` again, and only the outermost call counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYER_MODULES = ("quadrature", "norms", "metric", "invariants", "manifold", "specio")
ROOT = "cli.main"
EXTRA_METHODS = {"manifold.MetricField.__init__"}   # the interpolant build
SPEC_LOADERS = ("specio.load_json", "specio.load_norm", "specio.load_structure",
                "specio.norm_from_spec", "specio.structure_from_spec")


def _length(args, result):
    return len(result)


def _points(args, result):
    return 1 if np.ndim(result) == 0 else len(result)


def _field_nodes(args, result):
    return result.values.size // (result.dim * result.dim)


def _rk4_steps(args, result):
    return result.steps


# Work counts recorded at the span boundary, from the call's result.
WORK = {
    "quadrature.circle_trapezoid": _length,
    "quadrature.circle_panels": _length,
    "quadrature.sphere_product_gauss": _length,
    "quadrature.sphere_monte_carlo": _length,
    "norms.MinkowskiNorm.values": _points,
    "manifold.bl_field": _field_nodes,
    "manifold.parallel_transport": _rk4_steps,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("i")
        self.work = array("q")
        self.job_id = -1
        self.job_ids: list[str] = []
        self._stack = [-1]
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def start_job(self, job_id: str):
        """Spans from now on belong to the job ``job_id``."""
        self.job_id = len(self.job_ids)
        self.job_ids.append(job_id)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = WORK.get(name)
        names, starts, ends = self.name, self.start, self.end
        parents, jobs, works, stack = self.parent, self.job, self.work, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(top)
            jobs.append(self.job_id)
            works.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                works[idx] = count(args, result)
            return result

        return traced

    # -- installing the wrappers ------------------------------------------

    def install(self):
        """Wrap the layer modules of the imported ``blgeom`` package."""
        package = [m for n, m in sys.modules.items()
                   if (n == "blgeom" or n.startswith("blgeom.")) and m is not None]
        for short in LAYER_MODULES:
            mod = sys.modules[f"blgeom.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{short}.{attr}", obj)
                    for owner in package:
                        for key, val in list(vars(owner).items()):
                            if val is obj:
                                self._patch(owner, key, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        name = f"{short}.{attr}.{meth}"
                        if inspect.isfunction(fn) and (not meth.startswith("_")
                                                       or name in EXTRA_METHODS):
                            self._patch(obj, meth, self.wrap(name, fn))

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        return {key: np.array(getattr(self, key))
                for key in ("name", "start", "end", "parent", "job", "work")}

    def save(self, path):
        np.savez(path, names=np.array(self.names), jobs=np.array(self.job_ids),
                 **self.arrays())

    def layer_metrics(self, passes: int) -> dict:
        """The per-layer metrics, per traced pass (ratios excepted)."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        parent_name = np.full(len(name), -1)
        parent_name[has_parent] = name[parent[has_parent]]

        def ids(pred):
            return [i for i, n in enumerate(self.names) if pred(n)]

        def mask(pred):
            return np.isin(name, ids(pred))

        def named(*full):
            return mask(lambda n: n in full)

        def calls(*full):
            return int(named(*full).sum()) / passes

        def self_s(m):
            return float(self_time[m].sum()) / passes

        def work(*full):
            return int(a["work"][named(*full)].sum()) / passes

        def child_of(child_name, parent_full):
            pid = self._ids.get(parent_full, -2)
            return int((named(child_name) & (parent_name == pid)).sum())

        rule_makers = ("quadrature.circle_trapezoid", "quadrature.circle_panels",
                    "quadrature.sphere_product_gauss", "quadrature.sphere_monte_carlo")
        support = mask(lambda n: n.startswith("norms.") and
                       n.rsplit(".", 1)[-1] in ("support", "support_batch", "boundary_cloud"))
        converged = calls("metric.bl_metric_converged") * passes
        transport_gamma = child_of("manifold.MetricField.christoffel",
                                   "manifold.parallel_transport")
        rk4 = work("manifold.parallel_transport")
        return {
            "quadrature.build_calls": (calls(*rule_makers), "count"),
            "quadrature.nodes_built": (work(*rule_makers), "count"),
            "quadrature.build_s": (self_s(mask(lambda n: n.startswith("quadrature."))), "s"),
            "norms.values_calls": (calls("norms.MinkowskiNorm.values"), "count"),
            "norms.values_points": (work("norms.MinkowskiNorm.values"), "count"),
            "norms.values_s": (self_s(named("norms.MinkowskiNorm.values")), "s"),
            "norms.support_s": (self_s(support), "s"),
            "norms.validate_s": (self_s(named("norms.validate")), "s"),
            "metric.solves": (calls("metric.bl_metric"), "count"),
            "metric.converge_levels": (
                child_of("metric.bl_metric", "metric.bl_metric_converged") / converged
                if converged else 0.0, "levels"),
            "metric.moment_s": (self_s(named("metric.dual_scalar_matrix",
                                             "metric.unit_ball_volume")), "s"),
            "metric.solve_s": (self_s(named("metric.bl_metric",
                                            "metric.bl_metric_converged")), "s"),
            "invariants.quermass_calls": (calls("invariants.quermassintegrals"), "count"),
            "invariants.quermass_s": (self_s(named("invariants.quermassintegrals")), "s"),
            "invariants.roundness_calls": (calls("invariants.roundness"), "count"),
            "invariants.roundness_s": (self_s(named("invariants.roundness")), "s"),
            "invariants.fingerprint_points": (calls("invariants.fingerprint_point"), "count"),
            "invariants.compare_s": (self_s(named("invariants.compare_fingerprints")), "s"),
            "manifold.field_nodes": (work("manifold.bl_field"), "count"),
            "manifold.field_s": (self_s(named("manifold.bl_field")), "s"),
            "manifold.interp_build_s": (self_s(named("manifold.MetricField.__init__")), "s"),
            "manifold.pd_check_s": (
                self_s(named("manifold.MetricField.check_positive_definite")), "s"),
            "manifold.metric_eval_calls": (calls("manifold.MetricField.at"), "count"),
            "manifold.christoffel_calls": (calls("manifold.MetricField.christoffel"), "count"),
            "manifold.christoffel_s": (self_s(named("manifold.MetricField.christoffel")), "s"),
            "manifold.riemann_calls": (calls("manifold.MetricField.riemann"), "count"),
            "manifold.riemann_s": (self_s(named("manifold.MetricField.riemann")), "s"),
            "manifold.transport_calls": (calls("manifold.parallel_transport"), "count"),
            "manifold.transport_s": (self_s(named("manifold.parallel_transport")), "s"),
            "manifold.rk4_steps": (rk4, "count"),
            "manifold.transport_useful_ratio": (
                4.0 * rk4 * passes / transport_gamma if transport_gamma else 0.0, "ratio"),
            "manifold.berwald_s": (self_s(named("manifold.berwald_defect",
                                                "manifold.is_locally_minkowski")), "s"),
            "specio.load_s": (self_s(named(*SPEC_LOADERS)), "s"),
            "cli.self_s": (self_s(named(ROOT, "specio.dump_json")), "s"),
        }
