"""The one reader of norm and structure specs, and the JSON writer.

The key tables below declare the keys documented in ``docs/schemas/``;
``_check`` holds every spec object to them, and ``norms.as_reals`` reads
every numeric value (``_number`` one finite number) under a name of its key:
a JSON bool, a string other than ``lp``'s ``"inf"`` or ``"infinity"`` and a
ragged list are not numbers.  Scalar fields become array expressions of the
coordinates, so the library's constructors take built norms and callables
only.  Errors raise :class:`InputError` (exit 2).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import InputError, NumericalFailure
from .manifold import (FinslerStructure, conformal_rescale, constant_structure,
                       l1_l2_interpolation, rotor_structure)
from .norms import (Euclidean, LinearImage, LpNorm, MinkowskiNorm,
                    PolytopeGauge, QuarticAxial, WeightedSum, as_integer,
                    as_real, as_reals)

# (required keys, optional keys with their defaults) of a spec object,
# its family or kind tag aside, by tag value
NORM_KEYS = {
    "euclidean": (("matrix",), {}),
    "lp": (("p", "dim"), {}),
    "polytope": (("vertices",), {}),
    "linear-image": (("matrix", "inner"), {}),
    "weighted-sum": (("w1", "w2", "first", "second"), {}),
    "quartic-axial": (("dim",), {}),
}
FIELD_KEYS = {
    "constant": (("norm",), {}),
    "l1-l2-interpolation": ((), {}),
    "rotor": (("psi",), {"base": None}),
    "conformal-rescale": (("base", "factor"), {}),
    "holonomy-extension": (("norm",), {}),
}
SCALAR_KEYS = {
    "constant": (("value",), {}),
    "one-plus-sin": (("amp",), {"freq": 1.0, "phase": 0.0, "axis": 0}),
    "linear": (("slope",), {"offset": 0.0, "axis": 0}),
    "exp-linear": (("rate",), {"axis": 0}),
}
STRUCTURE_KEYS = (("field",), {"chart": None})
CHART_KEYS = (("lo", "hi"), {})
# Nesting bound of a norm spec; a chain of linear-image layers counts once.
MAX_NORM_DEPTH = 64


def _check(spec, what: str, keys, tag: str | None = None):
    """Hold the object ``spec`` to its key table and return its tag's value;
    ``keys`` is ``(required, optional)`` or, with a ``tag``, a dict from tag
    values to such pairs."""
    if not isinstance(spec, dict):
        raise InputError(f"{what} must be an object, got {type(spec).__name__}")
    value = spec.get(tag)
    if tag is not None:
        if not (isinstance(value, str) and value in keys):
            raise InputError(f"{what} needs a {tag} among {', '.join(keys)}, got {value!r}")
        what, keys = f"{what} of {tag} {value!r}", keys[value]
    required, optional = keys
    allowed = (*required, *optional)
    missing = [key for key in required if key not in spec]
    unknown = [key for key in spec if key != tag and key not in allowed]
    if missing or unknown:
        problem = f"is missing key {missing[0]!r}" if missing else f"has unknown key {unknown[0]!r}"
        raise InputError(f"{what} {problem}; expected keys: {', '.join(allowed)}")
    return value


def _number(spec, key: str, what: str) -> float:
    """``spec[key]`` as a finite float."""
    value = as_real(spec[key], f"{what} key {key!r}")
    if not np.isfinite(value):
        raise InputError(f"{what} key {key!r} must be finite, got {spec[key]!r}")
    return value


def norm_from_spec(spec: dict) -> MinkowskiNorm:
    """Build a norm from its JSON dictionary, nested at most
    ``MAX_NORM_DEPTH`` layers deep."""
    return _norm_from_spec(spec, MAX_NORM_DEPTH)


def _norm_from_spec(spec, depth):
    if depth == 0:
        raise InputError(f"norm spec is nested more than {MAX_NORM_DEPTH} layers deep")
    family = _check(spec, "norm", NORM_KEYS, "family")
    what = f"norm of family {family!r}"
    if family == "euclidean":
        return Euclidean(as_reals(spec["matrix"], f"{what} key 'matrix'"))
    if family == "lp":
        p = spec["p"]
        return LpNorm(np.inf if isinstance(p, str) and p in ("inf", "infinity")
                      else _number(spec, "p", what), spec["dim"])
    if family == "polytope":
        return PolytopeGauge(as_reals(spec["vertices"], f"{what} key 'vertices'"))
    if family == "linear-image":
        # fold nested images into one matrix product: no recursion per layer
        matrix, inner = as_reals(spec["matrix"], f"{what} key 'matrix'"), spec["inner"]
        while _check(inner, "norm", NORM_KEYS, "family") == "linear-image":
            layer = as_reals(inner["matrix"], f"{what} key 'matrix'")
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or layer.shape != matrix.shape:
                raise InputError("nested linear-image matrices must be square and of one shape")
            matrix, inner = layer @ matrix, inner["inner"]
        return LinearImage(matrix, _norm_from_spec(inner, depth - 1))
    if family == "weighted-sum":
        return WeightedSum(_number(spec, "w1", what), _number(spec, "w2", what),
                           _norm_from_spec(spec["first"], depth - 1),
                           _norm_from_spec(spec["second"], depth - 1))
    return QuarticAxial(spec["dim"])


def scalar_field_from_spec(spec: dict, dim: int, name: str) -> Callable:
    """The named scalar field ``spec`` on a ``dim``-D chart, as an expression
    of the coordinates x[0] ... x[dim - 1] that takes numbers or arrays of
    one shape.  A bad spec or parameter is an ``InputError`` naming ``name``."""
    what = f"scalar field {name!r}"
    kind = _check(spec, what, SCALAR_KEYS, "kind")
    given = {**SCALAR_KEYS[kind][1], **spec}
    if kind == "constant":
        value = _number(given, "value", what)
        return lambda x: value
    axis = as_integer(given["axis"], "scalar field axis")
    if not 0 <= axis < dim:
        raise InputError(f"scalar field axis {axis} is not an axis of the {dim}D chart")
    if kind == "one-plus-sin":
        amp, freq, phase = (_number(given, key, what) for key in ("amp", "freq", "phase"))
        return lambda x: 1.0 + amp * np.sin(freq * x[axis] + phase)
    if kind == "linear":
        slope, offset = (_number(given, key, what) for key in ("slope", "offset"))
        return lambda x: offset + slope * x[axis]
    rate = _number(given, "rate", what)
    return lambda x: np.exp(rate * x[axis])


def structure_from_spec(spec: dict) -> FinslerStructure:
    """Build a Finsler structure from its JSON dictionary."""
    _check(spec, "structure spec", STRUCTURE_KEYS)
    field, chart = spec["field"], spec.get("chart")
    if chart is not None:
        _check(chart, "chart", CHART_KEYS)   # so the chart is {"lo": ..., "hi": ...}
        chart = {key: as_reals(chart[key], f"chart key {key!r}") for key in CHART_KEYS[0]}
    family = _check(field, "structure field", FIELD_KEYS, "family")
    if family in ("constant", "holonomy-extension"):
        # a flat chart's transport is trivial, so extending a seed norm by
        # parallel translation gives the constant field of that norm
        norm = norm_from_spec(field["norm"])
        return constant_structure(norm, **(chart or {}))
    if family == "l1-l2-interpolation":
        return l1_l2_interpolation(**(chart or {}))
    if family == "rotor":
        psi = scalar_field_from_spec(field["psi"], 2, "psi")
        base = norm_from_spec(field["base"]) if "base" in field else None
        return rotor_structure(psi, base, **(chart or {}))
    inner = structure_from_spec({"field": field["base"], "chart": chart})
    return conformal_rescale(inner, scalar_field_from_spec(field["factor"], inner.dim, "factor"))


def load_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:   # JSONDecodeError is a ValueError
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _load(build, path):
    spec = load_json(path)
    try:
        return build(spec)
    except (InputError, RecursionError) as exc:   # a conformal-rescale nest past the stack
        raise InputError(f"invalid spec in {path}: {exc}") from exc


def load_norm(path) -> MinkowskiNorm:
    return _load(norm_from_spec, path)


def load_structure(path) -> FinslerStructure:
    return _load(structure_from_spec, path)


def dump_json(obj, path=None) -> str:
    """Serialize deterministically (sorted keys, stable float repr) as strict
    JSON: a NaN or an infinity raises ``NumericalFailure``."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"output is not finite: {exc}") from exc
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
