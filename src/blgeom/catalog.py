"""Built-in norms and structures, reproducible from shipped JSON specs."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InputError
from .specio import dump_json, norm_from_spec, structure_from_spec


def _hexagon_vertices():
    ang = np.arange(6) * (np.pi / 3.0)
    return np.column_stack([np.cos(ang), np.sin(ang)]).tolist()


BUILTIN_NORMS = {
    "euclidean-2d": ("round unit disk", {
        "family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
    "euclidean-3d": ("round unit ball in R^3", {
        "family": "euclidean",
        "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}),
    "anisotropic-euclidean": ("tilted ellipse norm", {
        "family": "euclidean", "matrix": [[2.0, 0.3], [0.3, 1.0]]}),
    "square-max": ("max norm; unit ball is the square [-1,1]^2", {
        "family": "polytope",
        "vertices": [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]}),
    "diamond-l1": ("1-norm; unit ball is the cross-polytope", {
        "family": "polytope",
        "vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]}),
    "hexagon": ("gauge of the regular hexagon inscribed in the circle", {
        "family": "polytope", "vertices": _hexagon_vertices()}),
    "asymmetric-triangle": ("gauge of a triangle, F(-xi) != F(xi)", {
        "family": "polytope",
        "vertices": [[2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]]}),
    "sheared-square": ("square gauge composed with a shear", {
        "family": "linear-image", "matrix": [[1.0, 0.5], [0.0, 1.0]],
        "inner": {"family": "polytope",
                  "vertices": [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]}}),
    "lp-1.5": ("l^1.5 norm on the plane", {"family": "lp", "p": 1.5, "dim": 2}),
    "lp-4": ("l^4 norm on the plane (smooth)", {"family": "lp", "p": 4.0, "dim": 2}),
    "l1-l2-mix": ("even mix of the 1-norm and the 2-norm", {
        "family": "weighted-sum", "w1": 0.5, "w2": 0.5,
        "first": {"family": "lp", "p": 1.0, "dim": 2},
        "second": {"family": "lp", "p": 2.0, "dim": 2}}),
    "quartic-axial-2d": ("smooth quartic norm ((x^2+y^2)^2 + y^4)^(1/4)", {
        "family": "quartic-axial", "dim": 2}),
    "quartic-axial-3d": ("smooth axially symmetric quartic norm in R^3", {
        "family": "quartic-axial", "dim": 3}),
}

_SQUARE = BUILTIN_NORMS["square-max"][1]

BUILTIN_STRUCTURES = {
    "constant-square": ("the square gauge in every tangent plane", {
        "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "field": {"family": "constant", "norm": _SQUARE}}),
    "l1-l2-interpolation": (
        "interpolates from the 1-norm (x1 <= 0) to the 2-norm (x1 >= 1)", {
            "chart": {"lo": [-1.0, -1.0], "hi": [2.0, 1.0]},
            "field": {"family": "l1-l2-interpolation"}}),
    "rotor-linear": ("square gauge rotated by an angle growing along x1", {
        "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "field": {"family": "rotor",
                  "psi": {"kind": "linear", "slope": 0.8, "offset": 0.1}}}),
    "rotor-constant": ("square gauge rotated by a fixed angle everywhere", {
        "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "field": {"family": "rotor", "psi": {"kind": "constant", "value": 0.4}}}),
    "conformal-euclidean": ("euclidean norm rescaled by 1 + 0.3 sin(x1)", {
        "chart": {"lo": [-1.5, -1.5], "hi": [1.5, 1.5]},
        "field": {"family": "conformal-rescale",
                  "base": {"family": "constant",
                           "norm": {"family": "euclidean",
                                    "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
                  "factor": {"kind": "one-plus-sin", "amp": 0.3, "axis": 0}}}),
    "holonomy-extension-square": (
        "square gauge extended over a flat chart by parallel translation", {
            "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            "field": {"family": "holonomy-extension", "norm": _SQUARE}}),
}


def builtin_norm(name: str):
    if name not in BUILTIN_NORMS:
        raise InputError(f"unknown builtin norm {name!r}; "
                         f"known: {', '.join(sorted(BUILTIN_NORMS))}")
    return norm_from_spec(BUILTIN_NORMS[name][1])


def builtin_structure(name: str):
    if name not in BUILTIN_STRUCTURES:
        raise InputError(f"unknown builtin structure {name!r}; "
                         f"known: {', '.join(sorted(BUILTIN_STRUCTURES))}")
    return structure_from_spec(BUILTIN_STRUCTURES[name][1])


def emit_examples(directory) -> list:
    """Write every built-in spec as a JSON file; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (_, spec) in sorted(BUILTIN_NORMS.items()):
        path = directory / f"norm-{name}.json"
        dump_json(spec, path)
        written.append(path)
    for name, (_, spec) in sorted(BUILTIN_STRUCTURES.items()):
        path = directory / f"structure-{name}.json"
        dump_json(spec, path)
        written.append(path)
    return written


def catalog_lines() -> list:
    out = ["built-in norms:"]
    for name, (desc, _) in sorted(BUILTIN_NORMS.items()):
        out.append(f"  {name:24s} {desc}")
    out.append("built-in structures:")
    for name, (desc, _) in sorted(BUILTIN_STRUCTURES.items()):
        out.append(f"  {name:24s} {desc}")
    return out
