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

from .errors import InputError
from .manifold import (FinslerStructure, conformal_rescale, constant_structure,
                       holonomy_extension, l1_l2_interpolation, rotor_structure)
from .norms import (Euclidean, LinearImage, LpNorm, MinkowskiNorm,
                    PolytopeGauge, QuarticAxial, WeightedSum)

NORM_FAMILIES = ("euclidean", "lp", "polytope", "linear-image", "weighted-sum",
                 "quartic-axial")
FIELD_FAMILIES = ("constant", "l1-l2-interpolation", "rotor",
                  "conformal-rescale", "holonomy-extension")


def _require(spec: dict, key: str, what: str):
    if key not in spec:
        raise InputError(f"{what} spec is missing required key {key!r}: {spec}")
    return spec[key]


def norm_from_spec(spec: dict) -> MinkowskiNorm:
    """Build a norm from its JSON dictionary."""
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
        return LinearImage(matrix, norm_from_spec(inner))
    if family == "weighted-sum":
        return WeightedSum(float(_require(spec, "w1", "weighted-sum")),
                           float(_require(spec, "w2", "weighted-sum")),
                           norm_from_spec(_require(spec, "first", "weighted-sum")),
                           norm_from_spec(_require(spec, "second", "weighted-sum")))
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

    if family == "constant":
        norm = norm_from_spec(_require(field, "norm", "constant field"))
        lo, hi = box(-np.ones(norm.dim), np.ones(norm.dim))
        st = constant_structure(norm, lo, hi)
    elif family == "l1-l2-interpolation":
        lo, hi = box((-1.0, -1.0), (2.0, 1.0))
        st = l1_l2_interpolation(lo, hi)
    elif family == "rotor":
        base = None
        if "base" in field:
            base = norm_from_spec(field["base"])
        lo, hi = box((-1.0, -1.0), (1.0, 1.0))
        st = rotor_structure(_require(field, "psi", "rotor field"), base, lo, hi)
    elif family == "conformal-rescale":
        inner = structure_from_spec({"field": _require(field, "base", "conformal-rescale"),
                                     "chart": chart})
        st = conformal_rescale(inner, _require(field, "factor", "conformal-rescale"))
    elif family == "holonomy-extension":
        norm = norm_from_spec(_require(field, "norm", "holonomy-extension"))
        lo, hi = box(-np.ones(norm.dim), np.ones(norm.dim))
        st = holonomy_extension(norm, lo, hi)
    else:
        raise InputError(f"unknown field family {family!r}; expected one of "
                         f"{', '.join(FIELD_FAMILIES)}")
    st.spec = spec
    return st


def load_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _load(build, path):
    spec = load_json(path)
    try:
        return build(spec)
    except (ValueError, TypeError, RecursionError) as exc:
        raise InputError(f"invalid spec in {path}: {exc}") from exc


def load_norm(path) -> MinkowskiNorm:
    return _load(norm_from_spec, path)


def load_structure(path) -> FinslerStructure:
    return _load(structure_from_spec, path)


def dump_json(obj, path=None) -> str:
    """Serialize deterministically (sorted keys, stable float repr)."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
