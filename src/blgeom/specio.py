"""JSON (de)serialization of norm and structure specifications.

The on-disk formats are documented in ``docs/schemas/``.  Norm specs are
nested dictionaries keyed by ``family``; structure specs carry a chart box
and a ``field`` dictionary.  Parsing errors raise :class:`InputError` with
a hint listing the accepted families, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalFailure
from .manifold import (FinslerStructure, conformal_rescale, constant_structure,
                       l1_l2_interpolation, rotor_structure)
from .norms import (Euclidean, LinearImage, LpNorm, MinkowskiNorm,
                    PolytopeGauge, QuarticAxial, WeightedSum)

NORM_FAMILIES = ("euclidean", "lp", "polytope", "linear-image", "weighted-sum",
                 "quartic-axial")
FIELD_FAMILIES = ("constant", "l1-l2-interpolation", "rotor",
                  "conformal-rescale", "holonomy-extension")
# Nesting bound of a norm spec; a chain of linear-image layers counts once.
MAX_NORM_DEPTH = 64


def _require(spec: dict, key: str, what: str):
    if key not in spec:
        raise InputError(f"{what} spec is missing required key {key!r}: {spec}")
    return spec[key]


def norm_from_spec(spec: dict) -> MinkowskiNorm:
    """Build a norm from its JSON dictionary, nested at most
    ``MAX_NORM_DEPTH`` layers deep."""
    return _norm_from_spec(spec, MAX_NORM_DEPTH)


def _norm_from_spec(spec, depth):
    if depth == 0:
        raise InputError(f"norm spec is nested more than {MAX_NORM_DEPTH} layers deep")
    if not isinstance(spec, dict):
        raise InputError(f"norm spec must be an object, got {type(spec).__name__}")
    family = _require(spec, "family", "norm")
    if family == "euclidean":
        return Euclidean(np.asarray(_require(spec, "matrix", "euclidean"), dtype=float))
    if family == "lp":
        p = _require(spec, "p", "lp")
        p = np.inf if p in ("inf", "infinity") else float(p)
        return LpNorm(p, _require(spec, "dim", "lp"))
    if family == "polytope":
        return PolytopeGauge(np.asarray(_require(spec, "vertices", "polytope"), dtype=float))
    if family == "linear-image":
        # fold nested images into one matrix product: no recursion per layer
        matrix = np.asarray(_require(spec, "matrix", "linear-image"), dtype=float)
        inner = _require(spec, "inner", "linear-image")
        while isinstance(inner, dict) and inner.get("family") == "linear-image":
            layer = np.asarray(_require(inner, "matrix", "linear-image"), dtype=float)
            if layer.shape != matrix.shape:
                raise InputError("nested linear-image matrices must have one shape")
            matrix = layer @ matrix
            inner = _require(inner, "inner", "linear-image")
        return LinearImage(matrix, _norm_from_spec(inner, depth - 1))
    if family == "weighted-sum":
        return WeightedSum(float(_require(spec, "w1", "weighted-sum")),
                           float(_require(spec, "w2", "weighted-sum")),
                           _norm_from_spec(_require(spec, "first", "weighted-sum"), depth - 1),
                           _norm_from_spec(_require(spec, "second", "weighted-sum"), depth - 1))
    if family == "quartic-axial":
        return QuarticAxial(_require(spec, "dim", "quartic-axial"))
    raise InputError(
        f"unknown norm family {family!r}; expected one of {', '.join(NORM_FAMILIES)}")


def structure_from_spec(spec: dict) -> FinslerStructure:
    """Build a Finsler structure from its JSON dictionary."""
    if not isinstance(spec, dict):
        raise InputError("structure spec must be an object")
    field = _require(spec, "field", "structure")
    family = _require(field, "family", "structure field")
    chart = spec.get("chart")

    def box(default_lo, default_hi):
        if chart is None:
            return np.asarray(default_lo, float), np.asarray(default_hi, float)
        return (np.asarray(_require(chart, "lo", "chart"), dtype=float),
                np.asarray(_require(chart, "hi", "chart"), dtype=float))

    if family in ("constant", "holonomy-extension"):
        # a flat chart's transport is trivial, so extending a seed norm by
        # parallel translation gives the constant field of that norm
        norm = norm_from_spec(_require(field, "norm", f"{family} field"))
        return constant_structure(norm, *box(-np.ones(norm.dim), np.ones(norm.dim)))
    if family == "l1-l2-interpolation":
        return l1_l2_interpolation(*box((-1.0, -1.0), (2.0, 1.0)))
    if family == "rotor":
        base = norm_from_spec(field["base"]) if "base" in field else None
        return rotor_structure(_require(field, "psi", "rotor field"), base,
                               *box((-1.0, -1.0), (1.0, 1.0)))
    if family == "conformal-rescale":
        inner = structure_from_spec({"field": _require(field, "base", "conformal-rescale"),
                                     "chart": chart})
        return conformal_rescale(inner, _require(field, "factor", "conformal-rescale"))
    raise InputError(f"unknown field family {family!r}; expected one of "
                     f"{', '.join(FIELD_FAMILIES)}")


def load_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _load(build, path):
    spec = load_json(path)
    try:
        return build(spec)
    except (InputError, ValueError, TypeError, RecursionError) as exc:
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
