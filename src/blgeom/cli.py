"""Command-line interface.

Exit codes: 0 success, 1 negative verdict under --assert, 2 input error
(including a file that cannot be read or written), 3 numerical failure (or
running out of memory).
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np

from . import catalog, specio
from .errors import BlgeomError, InputError
from .invariants import (compare_fingerprints, quermassintegrals, roundness)
from .manifold import bl_field, fingerprint_cloud, is_locally_minkowski
from .metric import bl_metric, bl_metric_converged
from .quadrature import MAX_QUAD_LEVEL
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
        raise ValueError(f"must be between 0 and {MAX_QUAD_LEVEL}, got {level}")
    return level


def random_seed(text):
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def tolerance(text):
    tol = float(text)
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"must be finite and > 0, got {text}")
    return tol


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path, header, rows):
    """Write ``header`` and the rows of ``rows``, comma-separated, with the
    same bytes as ``np.savetxt`` with format %.17g.  Each distinct value is
    formatted once: distinct by bit pattern, so 0.0 and -0.0 stay apart, in
    one %.17g pass, then indexed back into the rows (the lattice columns and
    the tensors of a catalog field repeat most of their values)."""
    bits, index = np.unique(rows.view(np.uint64), return_inverse=True)
    text = np.array(("%.17g," * len(bits) % tuple(bits.view(float).tolist())).split(","),
                    dtype=object)
    line = ",".join(["%s"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n" + (line * len(rows)) % tuple(text[index.ravel()].tolist()))


def cmd_metric(args):
    norm = specio.load_norm(args.norm)
    bl, info = bl_metric_converged(norm, tol=args.tol, level=args.quad_level)
    payload = {
        "metric": bl.metric.tolist(),
        "dual_matrix": bl.dual.tolist(),
        "unit_ball_volume": bl.volume,
        "condition_number": bl.condition_number,
        "quadrature": {"scheme": bl.scheme, "level": bl.level,
                       "converged": info.converged,
                       "achieved_tol": info.achieved_tol},
    }
    _emit(specio.dump_json(payload), args.out)
    return 0


def cmd_ellipsoid(args):
    norm = specio.load_norm(args.norm)
    bl = bl_metric(norm, args.quad_level)
    payload = {
        "binet": {"shape": bl.dual.tolist(), "scale": 1.0, "space": "dual"},
        "legendre": {"shape": bl.metric.tolist(), "scale": bl.legendre_scale,
                     "space": "primal"},
    }
    _emit(specio.dump_json(payload), args.out)
    return 0


def cmd_invariants(args):
    norm = specio.load_norm(args.norm)
    bl = bl_metric(norm, args.quad_level)
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
    """The fingerprint columns w0, w1, ..., mu, m_max of a cloud CSV, picked
    by header name in any order, each cell read by ``float`` (so ``1_0`` is
    10.0).  A UTF-8 byte-order mark, comment and blank lines are skipped; a
    ragged, non-numeric or non-finite data row is an input error naming the
    file and the row's number."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read cloud file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise InputError(f"{path} is not a fingerprint CSV (missing header)")
    names = [name.strip() for name in lines[0].split(",")]
    cols = [f"w{j}" for j in range(sum(n.startswith("w") for n in names))] + ["mu", "m_max"]
    missing = [c for c in cols if c not in names]
    if missing:
        raise InputError(f"{path} is missing fingerprint columns {missing}")
    picks = [names.index(c) for c in cols]
    rows = []
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(names):
            raise InputError(f"cannot read cloud file {path}: data row {row} has "
                             f"{len(cells)} columns, the header {len(names)}")
        try:
            rows.append([float(cells[k]) for k in picks])
        except ValueError:           # a non-numeric cell, reported with the non-finite
            rows.append([np.nan] * len(picks))
    cloud = np.array(rows, dtype=float).reshape(-1, len(cols))
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
    report = is_locally_minkowski(structure, shape=grid, level=args.quad_level, tol=args.tol)
    payload = {
        "defect": report.berwald_defect,
        "flat_residual": report.flat_residual,
        "verdict": report.verdict,
        "tolerances": {"flat": report.tol, "berwald": report.tol},
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


def _flag(name, **options):
    """A flag of a command: ``name`` and how it is read.  Options: ``help``;
    ``required``; ``type``, which turns the value's text into the value or
    raises ValueError; ``default`` (None if not given); ``dest``, the
    attribute the value goes to (``name`` without its dashes, ``-`` read as
    ``_``, if not given); ``metavar``; and ``action="store_true"`` for a flag
    that takes no value and sets True."""
    return name, options


_NORM = _flag("--norm", required=True, help="path to a norm spec JSON")
_STRUCTURE = _flag("--structure", required=True, help="path to a structure spec JSON")
_QUAD_LEVEL = _flag("--quad-level", type=quad_level, default=0,
                    help=f"quadrature refinement level, 0 to {MAX_QUAD_LEVEL} (default 0)")
_OUT = _flag("--out", help="output path (default: stdout)")
_OUT_FILE = _flag("--out", required=True, help="output path")
_LATTICE = _flag("--grid", help="lattice, e.g. 33x33 (default: 33x33 in 2D, "
                                "9 nodes per axis otherwise)")

# name: (help, command, flags in the order that help lists them)
_COMMANDS = {
    "metric": ("metric, dual matrix, volume, condition", cmd_metric, [
        _NORM, _QUAD_LEVEL, _OUT,
        _flag("--tol", type=tolerance, default=1e-8,
              help="refinement-doubling acceptance tolerance")]),
    "ellipsoid": ("dual and moment ellipsoids", cmd_ellipsoid,
                  [_NORM, _QUAD_LEVEL, _OUT]),
    "invariants": ("Steiner coefficients, roundness, fingerprint", cmd_invariants,
                   [_NORM, _QUAD_LEVEL, _OUT]),
    "fingerprint": ("fingerprint cloud of a structure to CSV", cmd_fingerprint, [
        _STRUCTURE, _QUAD_LEVEL, _OUT_FILE,
        _flag("--grid", help="grid, e.g. 32x32 (default: 8 points per axis)")]),
    "compare": ("compare two fingerprint clouds", cmd_compare, [
        _flag("--a", required=True, help="first fingerprint cloud CSV"),
        _flag("--b", required=True, help="second fingerprint cloud CSV"),
        _flag("--tol", type=tolerance, default=1e-3,
              help="normalized Hausdorff tolerance"),
        _flag("--assert", dest="assert_verdict", action="store_true",
              help="exit 1 when the clouds are distinguishable"),
        _OUT]),
    "field": ("dump the metric field of a structure to CSV", cmd_field,
              [_STRUCTURE, _QUAD_LEVEL, _OUT_FILE, _LATTICE]),
    "berwald": ("Berwald defect and local flatness", cmd_berwald, [
        _STRUCTURE, _QUAD_LEVEL, _OUT, _LATTICE,
        _flag("--tol", type=tolerance, default=1e-4,
              help="verdict tolerance for both legs"),
        _flag("--assert", dest="assert_verdict", action="store_true",
              help="exit 1 when the structure is not locally Minkowski")]),
    "verify": ("run a property suite end to end", cmd_verify, [
        _flag("--suite", default="all",
              help="norms | metric-properties | ellipsoids | invariants | berwald | all"),
        _flag("--seed", type=random_seed, default=0)]),
    "examples": ("list or emit the built-in specs", cmd_examples, [
        _flag("--list", action="store_true", help="list built-ins (default)"),
        _flag("--emit", metavar="DIR", help="write spec JSON files to DIR")]),
}


_DESCRIPTION = "metrics, ellipsoids and conformal invariants of Minkowski norm fields"


def _dest(name, options):
    return options.get("dest") or name[2:].replace("-", "_")


def _shown(name, options):
    """``name`` as usage and help show it: with its value's placeholder."""
    if options.get("action") == "store_true":
        return name
    return f"{name} {options.get('metavar') or _dest(name, options).upper()}"


def _usage(command):
    """The usage line of ``command``, or of blgeom itself for None."""
    if command is None:
        return "usage: blgeom [-h] {" + ",".join(_COMMANDS) + "} ..."
    shown = [_shown(name, options) if options.get("required")
             else f"[{_shown(name, options)}]" for name, options in _COMMANDS[command][2]]
    return " ".join(["usage: blgeom", command, "[-h]", *shown])


def _help(command):
    """The help of ``command``, or of blgeom itself for None: the usage line,
    a summary, and a line for each subcommand or flag."""
    if command is None:
        summary, title = _DESCRIPTION, "commands:"
        rows = [(name, help_text) for name, (help_text, _, _) in _COMMANDS.items()]
    else:
        summary, _, flags = _COMMANDS[command]
        title = "flags:"
        rows = [("-h, --help", "show this help and exit")] + [
            (_shown(name, options), options.get("help", "")) for name, options in flags]
    width = max(len(left) for left, _ in rows) + 2
    lines = [_usage(command), "", summary, "", title]
    lines += [f"  {left:<{width}}{text}".rstrip() for left, text in rows]
    return "\n".join(lines)


def _negative_number(text):
    """Whether ``text`` reads as a finite negative number: a token a flag
    takes as its value although it starts with ``-``."""
    try:
        return text.startswith("-") and bool(np.isfinite(float(text)))
    except ValueError:
        return False


def _parse(command, argv):
    """The flags of ``command``, which ``argv[0]`` names (None if it names
    none), read from the rest of ``argv``, as attributes.  Each token names
    a flag in full or by a unique prefix (an exact name wins), with its
    value after ``=`` or as the next token; a value token starting with
    ``-`` must read as a negative number.  A flag given twice keeps its
    last value.  ValueError says what does not parse."""
    if command is None:
        raise ValueError(f"invalid command {argv[0]!r} (choose from {', '.join(_COMMANDS)})"
                         if argv and not argv[0].startswith("-")
                         else "the following arguments are required: command")
    tokens = argv[1:]
    flags = dict(_COMMANDS[command][2])
    values = {_dest(name, options):
              options.get("default", False if options.get("action") == "store_true" else None)
              for name, options in flags.items()}
    given, extras = set(), []
    k = 0
    while k < len(tokens):
        token = tokens[k]
        k += 1
        name, eq, value = token.partition("=")
        if name in flags:
            matches = [name]
        elif name.startswith("--") and name != "--":
            matches = [flag for flag in flags if flag.startswith(name)]
        else:
            matches = []
        if len(matches) > 1:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(matches)}")
        if not matches:
            extras.append(token)
            continue
        name = matches[0]
        options = flags[name]
        if options.get("action") == "store_true":
            if eq:
                raise ValueError(f"argument {name}: ignored explicit argument {value!r}")
            value = True
        else:
            if not eq:
                if k == len(tokens) or (tokens[k].startswith("-")
                                        and not _negative_number(tokens[k])):
                    raise ValueError(f"argument {name}: expected one argument")
                value = tokens[k]
                k += 1
            if "type" in options:
                try:
                    value = options["type"](value)
                except ValueError as exc:
                    raise ValueError(f"argument {name}: {exc}") from None
        values[_dest(name, options)] = value
        given.add(name)
    missing = [name for name, options in flags.items()
               if options.get("required") and name not in given]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if "-h" in argv or "--help" in argv:
        print(_help(command))
        return 0
    try:
        args = _parse(command, argv)
    except ValueError as exc:
        prog = "blgeom" if command is None else f"blgeom {command}"
        print(f"{_usage(command)}\n{prog}: error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[command][1](args)
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
