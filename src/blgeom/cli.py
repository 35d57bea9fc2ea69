"""Command-line interface.

Exit codes: 0 success, 1 negative verdict under --assert, 2 input error
(including a file that cannot be read or written), 3 numerical failure (or
running out of memory).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import catalog, specio
from .errors import BlgeomError, InputError, ValidationFailure
from .invariants import (compare_fingerprints, quermassintegrals, roundness)
from .manifold import bl_field, fingerprint_cloud, is_locally_minkowski
from .metric import bl_metric, bl_metric_converged
from .norms import validate
from .quadrature import MAX_QUAD_LEVEL, auto_quadrature
from .verify import run_suite


def _parse_grid(text, dim):
    """The lattice shape ``text`` names, or None (the library's default) for None."""
    if text is None:
        return None
    try:
        parts = [int(p) for p in text.lower().split("x")]
    except ValueError as exc:
        raise InputError(f"bad grid spec {text!r}; expected e.g. 32x32") from exc
    if len(parts) != dim:
        raise InputError(f"grid spec {text!r} has {len(parts)} axes, chart has {dim}")
    if min(parts) < 1:
        raise InputError(f"grid spec {text!r} has an axis with fewer than 1 point")
    return tuple(parts)


def quad_level(text):
    level = int(text)
    if not 0 <= level <= MAX_QUAD_LEVEL:
        raise argparse.ArgumentTypeError(f"must be between 0 and {MAX_QUAD_LEVEL}, got {level}")
    return level


def random_seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def tolerance(text):
    tol = float(text)
    if not (np.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return tol


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path, header, rows):
    """Write ``header`` and the rows of ``rows``, every entry as %.17g and
    comma-separated: one %-format of the row format repeated per row, the
    same bytes as ``np.savetxt`` with that format."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n" + (line * len(rows)) % tuple(rows.ravel().tolist()))


def _load_validated_norm(path):
    norm = specio.load_norm(path)
    report = validate(norm, 300)
    if not report.ok:
        raise ValidationFailure(f"norm failed validation: {report.summary()}",
                                report)
    return norm


def cmd_metric(args):
    norm = _load_validated_norm(args.norm)
    bl, info = bl_metric_converged(norm, tol=args.tol, level=args.quad_level)
    payload = {
        "metric": bl.metric.tolist(),
        "dual_matrix": bl.dual.tolist(),
        "unit_ball_volume": bl.volume,
        "condition_number": bl.condition_number,
        "quadrature": {"scheme": bl.quad.scheme, "level": bl.quad.level,
                       "converged": info.converged,
                       "achieved_tol": info.achieved_tol},
    }
    _emit(specio.dump_json(payload), args.out)
    return 0


def cmd_ellipsoid(args):
    norm = _load_validated_norm(args.norm)
    quad = auto_quadrature(norm, level=args.quad_level)
    binet, legendre = bl_metric(norm, quad).ellipsoids()
    payload = {
        "binet": {"shape": binet.shape.tolist(), "scale": binet.scale,
                  "space": "dual"},
        "legendre": {"shape": legendre.shape.tolist(), "scale": legendre.scale,
                     "space": "primal"},
    }
    _emit(specio.dump_json(payload), args.out)
    return 0


def cmd_invariants(args):
    norm = _load_validated_norm(args.norm)
    quad = auto_quadrature(norm, level=args.quad_level)
    bl = bl_metric(norm, quad)
    qm = quermassintegrals(bl)
    mu, big_m = roundness(norm, bl.metric)
    payload = {
        "quermassintegrals": qm.values.tolist(),
        "roundness": {"mu": mu, "M": big_m},
        "isotropy_defect": big_m / mu - 1.0,
        "fingerprint": qm.values[: norm.dim].tolist() + [mu, big_m],
    }
    _emit(specio.dump_json(payload), args.out)
    return 0


def cmd_fingerprint(args):
    structure = specio.load_structure(args.structure)
    grid = _parse_grid(args.grid, structure.dim)
    pts, cloud = fingerprint_cloud(structure, grid=grid, level=args.quad_level)
    n = structure.dim
    header = ",".join([f"x{i + 1}" for i in range(n)]
                      + [f"w{j}" for j in range(n)] + ["mu", "m_max"])
    rows = np.hstack([pts, cloud])
    _write_csv(args.out, "# blgeom cloud v1\n" + header, rows)
    print(f"wrote {len(rows)} fingerprints to {args.out}")
    return 0


def _read_cloud(path):
    try:
        with open(path) as fh:
            skip = 1 if fh.readline().startswith("#") else 0
        data = np.genfromtxt(path, delimiter=",", names=True, skip_header=skip)
    except ValueError as exc:
        raise InputError(f"cannot read cloud file {path}: {exc}") from exc
    names = data.dtype.names
    if names is None:
        raise InputError(f"{path} is not a fingerprint CSV (missing header)")
    cols = [n for n in names if n.startswith("w")] + ["mu", "m_max"]
    missing = [c for c in cols if c not in names]
    if missing:
        raise InputError(f"{path} is missing fingerprint columns {missing}")
    cloud = np.column_stack([np.atleast_1d(data[c]) for c in cols])
    # genfromtxt reads a non-numeric cell as NaN
    bad = ~np.isfinite(cloud).all(axis=1)
    if bad.any():
        raise InputError(f"{path} has a non-finite or non-numeric fingerprint entry "
                         f"in data row {int(np.argmax(bad)) + 1}")
    return cloud


def cmd_compare(args):
    cloud_a = _read_cloud(args.a)
    cloud_b = _read_cloud(args.b)
    result = compare_fingerprints(cloud_a, cloud_b, tol=args.tol)
    payload = {
        "hausdorff": result.hausdorff,
        "quantile95": result.quantile95,
        "tol": result.tol,
        "verdict": result.verdict,
    }
    _emit(specio.dump_json(payload), args.out)
    if args.assert_verdict and result.distinguishable:
        return 1
    return 0


def cmd_field(args):
    structure = specio.load_structure(args.structure)
    grid = _parse_grid(args.grid, structure.dim)
    field = bl_field(structure, shape=grid, level=args.quad_level)
    n = structure.dim
    mesh = np.meshgrid(*field.axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    comps = field.values.reshape(len(pts), n * n)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    cols = [comps[:, i * n + j] for i, j in upper]
    header = ",".join([f"x{i + 1}" for i in range(n)]
                      + [f"g{i + 1}{j + 1}" for i, j in upper])
    _write_csv(args.out, "# blgeom field v1\n" + header, np.column_stack([pts] + cols))
    print(f"wrote {len(pts)} metric tensors to {args.out}")
    return 0


def cmd_berwald(args):
    structure = specio.load_structure(args.structure)
    grid = _parse_grid(args.grid, structure.dim)
    report = is_locally_minkowski(structure, shape=grid, level=args.quad_level,
                                  flat_tol=args.tol, berwald_tol=args.tol)
    payload = {
        "defect": report.berwald_defect,
        "flat_residual": report.flat_residual,
        "verdict": report.verdict,
        "tolerances": {"flat": report.flat_tol, "berwald": report.berwald_tol},
    }
    _emit(specio.dump_json(payload), args.out)
    if args.assert_verdict and not report.locally_minkowski:
        return 1
    return 0


def cmd_verify(args):
    results = run_suite(args.suite, seed=args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed "
          f"(suite {args.suite}, seed {args.seed})")
    return 1 if failed else 0


def cmd_examples(args):
    if args.emit:
        paths = catalog.emit_examples(args.emit)
        print(f"wrote {len(paths)} spec files to {args.emit}")
        return 0
    for line in catalog.catalog_lines():
        print(line)
    return 0


_LATTICE_HELP = "lattice, e.g. 33x33 (default: 33x33 in 2D, 9 nodes per axis otherwise)"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blgeom",
        description="metrics, ellipsoids and conformal invariants of Minkowski "
                    "norm fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, norm=False, structure=False, out_required=False):
        if norm:
            p.add_argument("--norm", required=True, help="path to a norm spec JSON")
        if structure:
            p.add_argument("--structure", required=True,
                           help="path to a structure spec JSON")
        p.add_argument("--quad-level", type=quad_level, default=0,
                       help=f"quadrature refinement level, 0 to {MAX_QUAD_LEVEL} (default 0)")
        p.add_argument("--out", required=out_required,
                       help="output path (default: stdout)" if not out_required
                       else "output path")

    p = sub.add_parser("metric", help="metric, dual matrix, volume, condition")
    add_common(p, norm=True)
    p.add_argument("--tol", type=tolerance, default=1e-8,
                   help="refinement-doubling acceptance tolerance")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("ellipsoid", help="dual and moment ellipsoids")
    add_common(p, norm=True)
    p.set_defaults(func=cmd_ellipsoid)

    p = sub.add_parser("invariants", help="Steiner coefficients, roundness, fingerprint")
    add_common(p, norm=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("fingerprint", help="fingerprint cloud of a structure to CSV")
    add_common(p, structure=True, out_required=True)
    p.add_argument("--grid", help="grid, e.g. 32x32 (default: 8 points per axis)")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("compare", help="compare two fingerprint clouds")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--tol", type=tolerance, default=1e-3,
                   help="normalized Hausdorff tolerance")
    p.add_argument("--assert", dest="assert_verdict", action="store_true",
                   help="exit 1 when the clouds are distinguishable")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("field", help="dump the metric field of a structure to CSV")
    add_common(p, structure=True, out_required=True)
    p.add_argument("--grid", help=_LATTICE_HELP)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("berwald", help="Berwald defect and local flatness")
    add_common(p, structure=True)
    p.add_argument("--grid", help=_LATTICE_HELP)
    p.add_argument("--tol", type=tolerance, default=1e-4,
                   help="verdict tolerance for both legs")
    p.add_argument("--assert", dest="assert_verdict", action="store_true",
                   help="exit 1 when the structure is not locally Minkowski")
    p.set_defaults(func=cmd_berwald)

    p = sub.add_parser("verify", help="run a property suite end to end")
    p.add_argument("--suite", default="all",
                   help="norms | metric-properties | ellipsoids | invariants | "
                        "berwald | all")
    p.add_argument("--seed", type=random_seed, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("examples", help="list or emit the built-in specs")
    p.add_argument("--list", action="store_true", help="list built-ins (default)")
    p.add_argument("--emit", metavar="DIR", help="write spec JSON files to DIR")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, OSError) as exc:   # OSError: a file that cannot be read or written
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BlgeomError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("numerical failure: out of memory; try a lower --quad-level or a "
              "coarser --grid", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
