import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blgeom
from blgeom import (Euclidean, InputError, LpNorm, NumericalFailure,
                    auto_quadrature, bl_metric, catalog, compare_fingerprints,
                    constant_structure, manifold, rigid_motion, sampled_moment,
                    specio)
from blgeom import cli
from blgeom.cli import main
from counting import CountingNorm


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    catalog.emit_examples(d)
    return d


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """Parse CLI output as strict JSON: NaN and Infinity fail the test."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_metric_square(spec_dir, capsys):
    code, out = run(capsys, "metric", "--norm", str(spec_dir / "norm-square-max.json"))
    assert code == 0
    payload = strict_json(out)
    np.testing.assert_allclose(payload["metric"], 0.75 * np.eye(2), atol=1e-6)
    np.testing.assert_allclose(payload["unit_ball_volume"], 4.0, rtol=1e-10)
    assert payload["quadrature"]["converged"]


@pytest.mark.parametrize("command", ["metric", "ellipsoid", "invariants"])
def test_every_emitted_norm_runs_metric(spec_dir, capsys, command):
    for path in sorted(spec_dir.glob("norm-*.json")):
        code, out = run(capsys, command, "--norm", str(path))
        assert code == 0, path
        strict_json(out)


def test_every_emitted_structure_runs_field(spec_dir, capsys, tmp_path):
    for path in sorted(spec_dir.glob("structure-*.json")):
        out_csv = tmp_path / (path.stem + ".csv")
        code, _ = run(capsys, "field", "--structure", str(path),
                      "--grid", "9x9", "--out", str(out_csv))
        assert code == 0, path
        data = np.genfromtxt(out_csv, delimiter=",", names=True,
                             skip_header=1)
        assert len(data) == 81
        assert out_csv.read_text().startswith("# blgeom field v1")


def test_metric_output_deterministic(spec_dir, capsys):
    _, out1 = run(capsys, "metric", "--norm", str(spec_dir / "norm-hexagon.json"))
    _, out2 = run(capsys, "metric", "--norm", str(spec_dir / "norm-hexagon.json"))
    assert out1 == out2


def test_ellipsoid_command(spec_dir, capsys):
    code, out = run(capsys, "ellipsoid", "--norm",
                    str(spec_dir / "norm-square-max.json"))
    assert code == 0
    payload = strict_json(out)
    np.testing.assert_allclose(payload["binet"]["shape"],
                               (4.0 / 3.0) * np.eye(2), atol=1e-10)
    assert payload["legendre"]["scale"] == pytest.approx(0.98853680, abs=1e-6)


def test_invariants_command(spec_dir, capsys):
    code, out = run(capsys, "invariants", "--norm",
                    str(spec_dir / "norm-square-max.json"))
    assert code == 0
    payload = strict_json(out)
    np.testing.assert_allclose(payload["fingerprint"],
                               [3.0, 2 * np.sqrt(3.0), np.sqrt(2 / 3), 2 / np.sqrt(3)],
                               atol=1e-4)


def test_fingerprint_compare_pipeline(spec_dir, capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code, _ = run(capsys, "fingerprint", "--structure",
                  str(spec_dir / "structure-constant-square.json"),
                  "--grid", "3x3", "--out", str(a))
    assert code == 0
    code, _ = run(capsys, "fingerprint", "--structure",
                  str(spec_dir / "structure-conformal-euclidean.json"),
                  "--grid", "3x3", "--out", str(b))
    assert code == 0

    code, out = run(capsys, "compare", "--a", str(a), "--b", str(a))
    assert code == 0
    assert strict_json(out)["verdict"] == "cannot distinguish"

    code, out = run(capsys, "compare", "--a", str(a), "--b", str(b), "--assert")
    assert code == 1
    assert strict_json(out)["verdict"] == "not conformally equivalent"


def test_fingerprint_csv_deterministic(spec_dir, capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run(capsys, "fingerprint", "--structure",
            str(spec_dir / "structure-rotor-constant.json"),
            "--grid", "2x2", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_berwald_command(spec_dir, capsys):
    code, out = run(capsys, "berwald", "--structure",
                    str(spec_dir / "structure-rotor-linear.json"),
                    "--grid", "17x17")
    assert code == 0
    payload = strict_json(out)
    assert payload["verdict"] == "not locally Minkowski"
    assert payload["defect"] > 1e-4
    assert payload["flat_residual"] < 1e-4

    code, _ = run(capsys, "berwald", "--structure",
                  str(spec_dir / "structure-rotor-linear.json"),
                  "--grid", "17x17", "--assert")
    assert code == 1

    code, out = run(capsys, "berwald", "--structure",
                    str(spec_dir / "structure-constant-square.json"),
                    "--grid", "17x17", "--assert")
    assert code == 0
    assert strict_json(out)["verdict"] == "locally Minkowski"


def test_examples_list(capsys):
    code, out = run(capsys, "examples", "--list")
    assert code == 0
    assert "square-max" in out and "l1-l2-interpolation" in out


# runs one command in a fresh interpreter, then prints its exit code and
# the scipy parts that the import and the command loaded
_SCIPY_AFTER = """
import contextlib, io, json, sys
from blgeom.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in ("scipy.spatial", "scipy.interpolate") if m in sys.modules]]))
"""


@pytest.mark.parametrize("argv, loads", [
    (["metric", "--norm", "norm-euclidean-2d.json"], []),
    (["metric", "--norm", "norm-lp-4.json"], []),
    (["ellipsoid", "--norm", "norm-euclidean-2d.json"], []),
    (["ellipsoid", "--norm", "norm-lp-4.json"], []),
    (["examples", "--list"], []),
    (["invariants", "--norm", "norm-euclidean-3d.json"], []),
    (["berwald", "--structure", "structure-conformal-euclidean.json"], []),
    (["berwald", "--structure", "structure-constant-square.json"], ["scipy.spatial"]),
    (["field", "--structure", "structure-conformal-euclidean.json", "--out", "out.csv"], []),
    (["field", "--structure", "structure-constant-square.json", "--out", "out.csv"],
     ["scipy.spatial"]),
    (["field", "--structure", "structure-l1-l2-interpolation.json", "--out", "out.csv"],
     ["scipy.spatial", "scipy.interpolate"])],
    ids=["metric-euclidean-2d", "metric-lp-4", "ellipsoid-euclidean-2d", "ellipsoid-lp-4",
         "examples-list", "invariants-euclidean-3d", "berwald-conformal-euclidean",
         "berwald-constant-square", "field-conformal-euclidean", "field-constant-square",
         "field-l1-l2-interpolation"])
def test_command_loads_only_the_scipy_it_needs(spec_dir, tmp_path, argv, loads):
    # every command is a fresh process: the Binet-Legendre metric needs numpy
    # alone, and so does the lattice surface of a smooth 3D norm; a
    # single-base structure's field and berwald check need no spline, and
    # the square gauge builds its facets with scipy.spatial
    argv = [str(spec_dir / a) if a.endswith(".json") else
            str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    src = str(Path(blgeom.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_AFTER, *argv], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(proc.stdout) == [0, loads]


@pytest.mark.parametrize("spec", ["norm-euclidean-3d.json", {"family": "lp", "p": 1, "dim": 3}],
                         ids=["euclidean-3d", "lp-1-3d"])
def test_metric_bytes_do_not_depend_on_blas_threads(spec_dir, tmp_path, spec):
    # one process per BLAS thread count: no sum of the moment pass may be
    # split by thread (OpenBLAS's dot product of 32768 or more nodes was,
    # and moved the last digits of the 3D volume and condition number);
    # lp with p = 1 refines to level 4, 2^21 nodes
    if isinstance(spec, dict):
        path = tmp_path / "norm.json"
        path.write_text(json.dumps(spec))
    else:
        path = spec_dir / spec
    src = str(Path(blgeom.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"metric-{threads}.json"
        env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "blgeom", "metric", "--norm", str(path),
                        "--out", str(out)], env=env, timeout=300, check=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_smoke(capsys):
    code, out = run(capsys, "verify", "--suite", "norms", "--seed", "7")
    assert code == 0
    assert "checks passed" in out


def test_exit_code_unknown_family(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "banana", "dim": 2}')
    code = main(["metric", "--norm", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "euclidean" in captured.err  # the hint lists accepted families


def test_exit_code_missing_file(capsys):
    code, _ = run(capsys, "metric", "--norm", "/does/not/exist.json")
    assert code == 2


def test_exit_code_bad_grid(spec_dir, capsys):
    code, _ = run(capsys, "berwald", "--structure",
                  str(spec_dir / "structure-constant-square.json"),
                  "--grid", "banana")
    assert code == 2


def test_exit_code_numerical_failure(tmp_path, capsys):
    squashed = tmp_path / "squashed.json"
    squashed.write_text(json.dumps({
        "family": "euclidean",
        "matrix": [[1.0, 0.0], [0.0, 1e-14]]}))
    code, _ = run(capsys, "metric", "--norm", str(squashed))
    assert code == 3


_SQUARE_SPEC = catalog.BUILTIN_NORMS["square-max"][1]


@pytest.mark.parametrize("field", [
    {"family": "conformal-rescale",
     "base": {"family": "constant",
              "norm": {"family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
     "factor": {"kind": "linear", "slope": 1.0}},
    {"family": "constant",
     "norm": {"family": "linear-image", "matrix": [[1.0, 0.0], [0.0, 1e-7]],
              "inner": _SQUARE_SPEC}},
], ids=["factor-crosses-zero", "ill-conditioned"])
def test_field_exit_code_numerical_failure(field, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                                "field": field}))
    code = main(["field", "--structure", str(spec), "--grid", "9x9",
                 "--out", str(tmp_path / "bad.csv")])
    assert code == 3
    assert "at node" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["field", "berwald"])
def test_interpolated_metric_loses_definiteness_exit_3(tmp_path, capsys, command):
    # every node tensor is (1 + 0.9 sin 9x)^2 g >= 0.01 g, but at the default
    # 33x33 lattice the spline through them is indefinite between nodes; the
    # l1-l2 base has many bases, so berwald interpolates it too
    spec = tmp_path / "wiggle.json"
    spec.write_text(json.dumps({
        "field": {"family": "conformal-rescale",
                  "base": {"family": "l1-l2-interpolation"},
                  "factor": {"kind": "one-plus-sin", "amp": 0.9, "freq": 9}}}))
    out = ["--out", str(tmp_path / "wiggle.csv")] if command == "field" else []
    code = main([command, "--structure", str(spec), *out])
    assert code == 3
    assert "interpolated metric loses positive definiteness near" in capsys.readouterr().err


def _far_chart(path, lo, width):
    """A constant euclidean field on [lo, lo + width] x [0, 1]."""
    path.write_text(json.dumps({
        "chart": {"lo": [lo, 0.0], "hi": [lo + width, 1.0]},
        "field": {"family": "constant",
                  "norm": {"family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}}}))
    return str(path)


@pytest.mark.parametrize("command, lo, width", [
    ("field", 1e17, 64.0),     # linspace repeats lattice nodes
    ("berwald", 1e15, 10.0),   # distinct nodes, colliding refined Greville abscissae
], ids=["field-nodes", "berwald-greville"])
def test_chart_below_float_resolution_exit_2(tmp_path, capsys, command, lo, width):
    spec = _far_chart(tmp_path / "far.json", lo, width)
    if command == "field":
        code = main([command, "--structure", spec, "--out", str(tmp_path / "far.csv")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error:") and "axis 0" in captured.err
    else:
        # the spline's symbols need the refined knots; the berwald check on
        # this single-base field needs no spline, but the 10 x 1 chart
        # leaves its loops no room
        exact = manifold.bl_field(specio.load_structure(spec))
        field = manifold.MetricField(exact.axes, exact.values)
        with pytest.raises(InputError, match="Greville abscissae of lattice axis 0"):
            field.christoffel([lo + 5.0, 0.5])
        code = main([command, "--structure", spec])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: lattice 33x33 is too coarse for the "
                                       "Berwald loops")
    # a 3x3 fingerprint grid is resolved on the chart
    code, _ = run(capsys, "fingerprint", "--structure", spec, "--grid", "3x3",
                  "--out", str(tmp_path / "far-fingerprint.csv"))
    assert code == 0


def test_fingerprint_grid_below_float_resolution_exit_2(tmp_path, capsys):
    # 8 points over [1e17 + 3.2, 1e17 + 60.8], where the floats are 16 apart
    spec = _far_chart(tmp_path / "far.json", 1e17, 64.0)
    out = tmp_path / "far-fingerprint.csv"
    code = main(["fingerprint", "--structure", spec, "--grid", "8x2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    assert captured.err.startswith("input error: the nodes of lattice axis 0 are not "
                                   "strictly increasing")


def test_far_chart_the_floats_resolve_runs_berwald(tmp_path, capsys):
    spec = _far_chart(tmp_path / "far.json", 1e14, 2.0)
    code, out = run(capsys, "berwald", "--structure", spec)
    assert code == 0 and strict_json(out)["verdict"] == "locally Minkowski"


def test_metric_exit_code_non_finite(tmp_path, capsys):
    # F ~ 1e200 |x|: its metric, about 1e400 g(square), lies past the float range
    inner = {"family": "linear-image", "matrix": [[1e100, 0.0], [0.0, 1e100]],
             "inner": _SQUARE_SPEC}
    spec = tmp_path / "nested.json"
    spec.write_text(json.dumps({"family": "linear-image",
                                "matrix": [[1e100, 0.0], [0.0, 1e100]],
                                "inner": inner}))
    code, out = run(capsys, "metric", "--norm", str(spec))
    assert code == 3 and out == ""


def test_metric_exit_code_overflowing_norm_value(tmp_path, capsys):
    # the map is invertible, but F itself overflows on the unit circle
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"family": "linear-image",
                                "matrix": [[1e307, 0.0], [0.0, 1e307]],
                                "inner": {"family": "lp", "p": 2, "dim": 2}}))
    code = main(["metric", "--norm", str(spec)])
    assert code == 3
    assert "not finite" in capsys.readouterr().err


def test_fingerprint_exit_code_numerical_failure(tmp_path, capsys):
    # the conformal factor 0.2 + x1 is negative on the left of the chart
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "field": {"family": "conformal-rescale",
                  "base": {"family": "constant",
                           "norm": {"family": "euclidean",
                                    "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
                  "factor": {"kind": "linear", "slope": 1.0, "offset": 0.2}}}))
    code = main(["fingerprint", "--structure", str(spec), "--grid", "4x4",
                 "--out", str(tmp_path / "bad.csv")])
    assert code == 3
    assert "at point" in capsys.readouterr().err


def test_fingerprint_exit_code_ill_conditioned(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "field": {"family": "constant",
                  "norm": {"family": "linear-image", "matrix": [[1.0, 0.0], [0.0, 1e-7]],
                           "inner": _SQUARE_SPEC}}}))
    code = main(["fingerprint", "--structure", str(spec), "--grid", "4x4",
                 "--out", str(tmp_path / "bad.csv")])
    assert code == 3
    assert "at point" in capsys.readouterr().err


def test_exit_code_non_numeric_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "euclidean", "matrix": [["a", 0], [0, 1]]}')
    code = main(["metric", "--norm", str(bad)])
    assert code == 2
    assert "bad.json" in capsys.readouterr().err


def test_exit_code_non_numeric_scalar_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "field": {"family": "rotor", "psi": {"kind": "linear", "slope": "x"}}}))
    code = main(["field", "--structure", str(bad), "--grid", "9x9",
                 "--out", str(tmp_path / "bad.csv")])
    assert code == 2
    assert "bad.json" in capsys.readouterr().err


def test_exit_code_negative_quad_level(spec_dir, capsys):
    code, _ = run(capsys, "metric", "--norm", str(spec_dir / "norm-square-max.json"),
                  "--quad-level", "-3")
    assert code == 2


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_metric_of_deeply_nested_linear_images(tmp_path, capsys):
    # 900 identity layers fold into one image; no recursion per layer
    spec = _SQUARE_SPEC
    for _ in range(900):
        spec = {"family": "linear-image", "matrix": [[1.0, 0.0], [0.0, 1.0]], "inner": spec}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "metric", "--norm", str(path))
    assert code == 0
    square = tmp_path / "square.json"
    square.write_text(json.dumps(_SQUARE_SPEC))
    _, want = run(capsys, "metric", "--norm", str(square))
    np.testing.assert_allclose(strict_json(out)["metric"], strict_json(want)["metric"],
                               rtol=1e-12, atol=0)


_CHART = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}


_FIXED_ANGLE = {"kind": "constant", "value": 0.4}


def _rotor(psi, chart=_CHART):
    return {"chart": chart, "field": {"family": "rotor", "psi": psi}}


def _conformal(factor):
    return {"chart": _CHART, "field": {
        "family": "conformal-rescale", "factor": factor,
        "base": {"family": "constant",
                 "norm": {"family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}}}}


@pytest.mark.parametrize("command, spec, problem", [
    ("metric", {"family": "lp", "p": 2, "dim": 2.7}, "must be an integer"),
    ("metric", {"family": "quartic-axial", "dim": 2.7}, "must be an integer"),
    ("field", {"chart": _CHART, "field": {
        "family": "rotor", "psi": {"kind": "linear", "slope": 0.8, "axis": 1.7}}},
     "must be an integer"),
    ("field", {"chart": _CHART, "field": {
        "family": "rotor", "psi": {"kind": "linear", "slope": 0.8, "axis": 5}}},
     "axis 5 is not an axis"),
    ("metric", {"family": "lp", "p": 2, "dim": 1e308}, "dimension must be between 2 and"),
    ("metric", {"family": "quartic-axial", "dim": 7}, "dimension must be between 2 and"),
    ("field", _rotor({"kind": "linear"}), "'psi' of kind 'linear' is missing key 'slope'"),
    ("field", _rotor({"kind": "constant"}), "'psi' of kind 'constant' is missing key 'value'"),
    ("field", _rotor({"kind": "linear", "slope": float("nan")}), "'slope' must be finite"),
    ("field", _rotor({"kind": "constant", "value": "nan"}), "'value' must hold numbers"),
    ("field", _rotor({"kind": "linear", "slope": 0.8, "offset": [1]}),
     "'offset' must be a number"),
    ("field", _conformal({"kind": "one-plus-sin", "amp": "inf"}), "'amp' must hold numbers"),
    ("field", _conformal({"kind": "exp-linear", "rate": 1e400}), "'rate' must be finite"),
    ("field", _rotor(1e308), "'psi' must be an object"),
    ("field", _conformal(1e308), "'factor' must be an object"),
    ("field", _rotor(_FIXED_ANGLE, {"lo": [-1.0, -1.0], "hi": [float("inf"), 1.0]}),
     "chart bounds and widths must be finite"),
    ("field", _rotor(_FIXED_ANGLE, {"lo": [-1.0, -1.0], "hi": ["inf", 1.0]}),
     "'hi' must hold numbers"),
    ("field", _rotor(_FIXED_ANGLE, {"lo": [-1e308, -1.0], "hi": [1e308, 1.0]}),
     "chart bounds and widths must be finite"),
    ("metric", {"family": "lp", "p": 1e999, "dim": 2}, "'p' must be finite"),
    ("metric", {"family": "euclidean", "matrix": [[1e999, 0.0], [0.0, 1.0]]},
     "matrix entries must be finite"),
], ids=["lp-dim", "quartic-dim", "fractional-axis", "axis-off-chart", "dim-1e308",
        "dim-over-cap", "linear-without-slope", "constant-without-value", "nan-slope",
        "nan-string-value", "list-offset", "inf-string-amp", "overflowing-rate",
        "psi-not-an-object", "factor-not-an-object", "infinite-chart-bound",
        "inf-string-chart-bound", "infinite-chart-width", "overflowing-p",
        "overflowing-euclidean-matrix"])
def test_exit_code_bad_integer_field(tmp_path, capsys, command, spec, problem):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    flag = "--norm" if command == "metric" else "--structure"
    argv = [command, flag, str(bad)]
    if command == "field":
        argv += ["--grid", "9x9", "--out", str(tmp_path / "bad.csv")]
    assert main(argv) == 2
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("text, problem", [
    ('{"family": "lp", "p": 1%s, "dim": 2}' % ("0" * 400), "'p' must be finite"),
    ('{"family": "euclidean", "matrix": [[1%s, 0], [0, 1]]}' % ("0" * 400), "too large"),
    ('{"family": "lp", "p": 1%s, "dim": 2}' % ("0" * 5000), "invalid JSON"),
], ids=["p-past-float-range", "matrix-past-float-range", "past-parser-digit-limit"])
def test_metric_exit_code_huge_json_integer(tmp_path, capsys, text, problem):
    # JSON integers are exact: past the float range they overflow on conversion
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["metric", "--norm", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and problem in captured.err


@pytest.mark.parametrize("p", ["inf", "infinity", "3.5"])
def test_metric_of_p_given_as_string(tmp_path, capsys, p):
    # "inf" and "infinity" name the max norm; a numeric string is not a number
    path = tmp_path / "lp.json"
    path.write_text(json.dumps({"family": "lp", "p": p, "dim": 2}))
    code, out = run(capsys, "metric", "--norm", str(path))
    if p == "3.5":
        assert code == 2 and out == ""
    else:
        assert code == 0
        strict_json(out)


@pytest.mark.parametrize("p", [np.array([2.0, 3.0]), np.array("inf")], ids=["array", "0d-str-array"])
def test_library_p_array_is_input_error(p):
    # only a str names the max norm; any other p is read as a number
    with pytest.raises(InputError, match="key 'p' must"):
        specio.norm_from_spec({"family": "lp", "p": p, "dim": 2})


_S2D = constant_structure(Euclidean(np.eye(2)))


@pytest.mark.parametrize("call", [
    lambda: rigid_motion(_S2D, np.eye(3), [0, 0, 0]),
    lambda: rigid_motion(_S2D, np.eye(2), [0, 0, 0]),
    lambda: sampled_moment(LpNorm(2, 2), [1, 0, 0], 1, 0),
    lambda: bl_metric(LpNorm(2, 2), 0).moment_of_inertia([1, 0, 0]),
    lambda: compare_fingerprints([[np.nan, 1]], [[1, 1]]),
], ids=["rotation-3x3", "translation-3", "norm-theta-3", "record-theta-3", "nan-cloud"])
def test_library_wrong_shape_or_nonfinite_is_input_error(call):
    with pytest.raises(InputError, match="must have shape|must be finite"):
        call()


@pytest.mark.parametrize("p", [200, 400, 1e6])
def test_metric_of_large_p_near_max_norm(tmp_path, capsys, p):
    # |x_i|^p over- and underflows unless each row is scaled by its largest entry
    path = tmp_path / "lp.json"
    path.write_text(json.dumps({"family": "lp", "p": p, "dim": 2}))
    code, out = run(capsys, "metric", "--norm", str(path))
    assert code == 0
    np.testing.assert_allclose(strict_json(out)["metric"], 0.75 * np.eye(2),
                               rtol=0, atol=0.05 / p + 1e-7)


def _nested(spec, layers):
    """``spec`` wrapped in one layer per entry of ``layers``, innermost first."""
    for family in layers:
        if family == "weighted-sum":
            spec = {"family": "weighted-sum", "w1": 0.5, "w2": 0.5,
                    "first": spec, "second": _SQUARE_SPEC}
        else:
            spec = {"family": "linear-image", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                    "inner": spec}
    return spec


_ALTERNATING = ["weighted-sum", "linear-image"] * 450


@pytest.mark.parametrize("spec", [
    _nested(_SQUARE_SPEC, ["weighted-sum"] * 900),
    _nested(_SQUARE_SPEC, _ALTERNATING),
    _nested(_SQUARE_SPEC, _ALTERNATING[:64]),
    {"family": "weighted-sum", "w1": "nan", "w2": 0.5,
     "first": _SQUARE_SPEC, "second": _SQUARE_SPEC},
    {"family": "weighted-sum", "w1": "inf", "w2": 0.5,
     "first": _SQUARE_SPEC, "second": _SQUARE_SPEC},
], ids=["deep-weighted-sum", "deep-alternating", "past-bound", "nan-weight", "inf-weight"])
def test_metric_exit_code_bad_norm_spec(tmp_path, capsys, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "metric", "--norm", str(path))
    assert code == 2 and out == ""


def test_exit_code_json_nested_past_the_parser(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code, out = run(capsys, "metric", "--norm", str(path))
    assert code == 2 and out == ""


def _conformal_nest_text(depth):
    """A structure spec whose field is ``depth`` conformal-rescale layers, as
    JSON text: ``json.dumps`` overflows the stack before the parser does."""
    layer = ('{"family": "conformal-rescale", '
             '"factor": {"kind": "constant", "value": 1.0}, "base": ')
    base = json.dumps(_conformal({"kind": "constant", "value": 1.0})["field"]["base"])
    return ('{"chart": %s, "field": ' % json.dumps(_CHART)
            + layer * depth + base + "}" * depth + "}")


def _parses(text):
    try:
        json.loads(text)
    except RecursionError:
        return False
    return True


def test_exit_code_conformal_nest_past_the_stack(tmp_path, capsys):
    # just below the parser's depth limit the structure builder, not the
    # parser, runs out of stack: that RecursionError must still exit 2
    lo, hi = 1, 2
    while _parses(_conformal_nest_text(hi)):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _parses(_conformal_nest_text(mid)) else (lo, mid)
    path = tmp_path / "deep.json"
    codes = []
    for depth in range(hi - 25, hi):
        path.write_text(_conformal_nest_text(depth))
        codes.append(main(["field", "--structure", str(path), "--grid", "5x5",
                           "--out", str(tmp_path / "deep.csv")]))
    capsys.readouterr()
    assert set(codes) <= {0, 2} and 2 in codes


def test_metric_of_norm_at_nesting_bound(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(_nested(_SQUARE_SPEC, _ALTERNATING[:63])))
    code, out = run(capsys, "metric", "--norm", str(path))
    assert code == 0
    strict_json(out)


_CHART_3D = {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]}


@pytest.mark.parametrize("command, grid", [("field", "9x9x9"), ("fingerprint", "3x3x3")])
@pytest.mark.parametrize("field", [
    {"family": "constant", "norm": {"family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
    {"family": "rotor", "psi": {"kind": "constant", "value": 0.4}},
    {"family": "l1-l2-interpolation"},
], ids=["constant-2d-norm", "rotor", "l1-l2"])
def test_exit_code_norm_off_chart_dimension(tmp_path, capsys, command, grid, field):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"chart": _CHART_3D, "field": field}))
    code = main([command, "--structure", str(spec), "--grid", grid,
                 "--out", str(tmp_path / "bad.csv")])
    assert code == 2
    assert "3D chart" in capsys.readouterr().err


@pytest.mark.parametrize("command, grid", [
    ("field", "-5x5"), ("fingerprint", "0x0"), ("fingerprint", "3x0"), ("berwald", "-1x9")])
def test_exit_code_grid_axis_below_one(spec_dir, tmp_path, capsys, command, grid):
    argv = [command, "--structure", str(spec_dir / "structure-constant-square.json"),
            f"--grid={grid}"]
    if command != "berwald":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("command", ["metric", "compare", "berwald"])
def test_exit_code_bad_tol(spec_dir, tmp_path, capsys, command, tol):
    if command == "metric":
        argv = ["metric", "--norm", str(spec_dir / "norm-square-max.json")]
    elif command == "berwald":
        argv = ["berwald", "--structure", str(spec_dir / "structure-constant-square.json"),
                "--grid", "9x9"]
    else:
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("# blgeom cloud v1\nx1,x2,w0,w1,mu,m_max\n0,0,3,3.4,0.8,1.1\n")
        argv = ["compare", "--a", str(cloud), "--b", str(cloud)]
    code, out = run(capsys, *argv, f"--tol={tol}")
    assert code == 2 and out == ""


def test_metric_at_refinement_cap_reports_null_tolerance(spec_dir, capsys):
    code, out = run(capsys, "metric", "--norm", str(spec_dir / "norm-square-max.json"),
                    "--quad-level", "4")
    assert code == 0
    quadrature = strict_json(out)["quadrature"]
    assert quadrature["achieved_tol"] is None and not quadrature["converged"]


def test_dump_json_rejects_non_finite():
    with pytest.raises(NumericalFailure):
        specio.dump_json({"value": float("nan")})
    with pytest.raises(NumericalFailure):
        specio.dump_json([float("inf")])


@pytest.mark.parametrize("argv", [
    ("field", "--grid", "100000x100000"),
    ("fingerprint", "--grid", "1000x1000"),
    ("berwald", "--grid", "1000x1000"),
    ("field", "--quad-level", "40"),
], ids=["field-grid", "fingerprint-grid", "berwald-grid", "quad-level"])
def test_exit_code_over_cap(spec_dir, tmp_path, capsys, argv):
    # every input here is refused before any array is built
    command = [*argv, "--structure", str(spec_dir / "structure-constant-square.json")]
    if argv[0] != "berwald":
        command += ["--out", str(tmp_path / "out.csv")]
    code, out = run(capsys, *command)
    assert code == 2 and out == ""
    assert not (tmp_path / "out.csv").exists()


def test_out_of_memory_exits_3(spec_dir, tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("blgeom.cli.bl_field", exhausted)
    code = main(["field", "--structure", str(spec_dir / "structure-constant-square.json"),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 3
    assert "out of memory" in capsys.readouterr().err


_CONFORMAL_3D = {"chart": _CHART_3D, "field": {
    "family": "conformal-rescale",
    "base": {"family": "constant",
             "norm": {"family": "euclidean", "matrix": np.eye(3).tolist()}},
    "factor": {"kind": "one-plus-sin", "amp": 0.3, "axis": 0}}}


# the benchmark's two 3D structures (perfbench/specs)
_BENCH_3D = {
    "conformal-euclidean": {
        "chart": {"lo": [-1.5] * 3, "hi": [1.5] * 3},
        "field": {"family": "conformal-rescale",
                  "base": {"family": "constant",
                           "norm": {"family": "euclidean", "matrix": np.eye(3).tolist()}},
                  "factor": {"kind": "one-plus-sin", "amp": 0.3, "freq": 2.0, "axis": 0}}},
    "quartic-axial": {"chart": _CHART_3D, "field": {
        "family": "constant", "norm": {"family": "quartic-axial", "dim": 3}}},
}


def test_berwald_3d_conformal_decided_at_9(tmp_path, capsys):
    # Riemannian, so Berwald: the exact field's defect is round-off
    spec = tmp_path / "conformal-3d.json"
    spec.write_text(json.dumps(_BENCH_3D["conformal-euclidean"]))
    code, out = run(capsys, "berwald", "--structure", str(spec), "--grid", "9x9x9")
    assert code == 0
    payload = strict_json(out)
    assert payload["defect"] <= 1e-6 and payload["verdict"] == "not locally Minkowski"


@pytest.mark.parametrize("freq, code", [(8, 0), (20, 3)])
def test_berwald_flat_leg_within_its_truncation_error_exit_3(tmp_path, capsys, freq, code):
    # true max |R| is 3.125e-7 freq^2, 1.25e-4 at freq 20 (above the
    # tolerance), where the 33^2 stencil reads 9.2e-5: undecided, never 0
    spec = tmp_path / "ripple.json"
    spec.write_text(json.dumps({
        "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "field": {"family": "conformal-rescale",
                  "base": {"family": "constant",
                           "norm": {"family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
                  "factor": {"kind": "one-plus-sin", "amp": 3.125e-7, "freq": freq}}}))
    assert main(["berwald", "--structure", str(spec), "--assert"]) == code
    captured = capsys.readouterr()
    if code == 3:
        assert captured.out == ""
        assert "undecided at this lattice: flat residual" in captured.err


def test_berwald_3d_quartic_locally_minkowski(tmp_path, capsys):
    spec = tmp_path / "quartic-3d.json"
    spec.write_text(json.dumps(_BENCH_3D["quartic-axial"]))
    code, out = run(capsys, "berwald", "--structure", str(spec), "--grid", "9x9x9", "--assert")
    assert code == 0
    assert strict_json(out)["verdict"] == "locally Minkowski"


# positive exactly on the constant-norm fields, as criterion 8 of the
# acceptance tests has it
_LOCALLY_MINKOWSKI = {
    "constant-square": True,
    "holonomy-extension-square": True,
    "rotor-constant": True,
    "rotor-linear": False,
    "l1-l2-interpolation": False,
    "conformal-euclidean": False,
}


@pytest.mark.parametrize("name", sorted(catalog.BUILTIN_STRUCTURES))
def test_berwald_decides_catalog_structures(spec_dir, capsys, name):
    code, out = run(capsys, "berwald", "--structure", str(spec_dir / f"structure-{name}.json"))
    assert code == 0
    want = "locally Minkowski" if _LOCALLY_MINKOWSKI[name] else "not locally Minkowski"
    assert strict_json(out)["verdict"] == want


@pytest.mark.parametrize("command, grid", [("field", "9x9x9"), ("fingerprint", "8x8x8")])
def test_3d_structure_default_grid(tmp_path, capsys, command, grid):
    spec = tmp_path / "conformal-3d.json"
    spec.write_text(json.dumps(_CONFORMAL_3D))
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    assert main([command, "--structure", str(spec), "--out", str(default)]) == 0
    assert main([command, "--structure", str(spec), "--grid", grid,
                 "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("command", ["field", "fingerprint"])
@pytest.mark.parametrize("name", sorted(catalog.BUILTIN_STRUCTURES)
                         + [f"3d-{name}" for name in sorted(_BENCH_3D)])
def test_csv_bytes_match_savetxt(spec_dir, tmp_path, capsys, command, name):
    # %.17g reads back exactly, so np.savetxt of the rows read back, under
    # the same header, writes the same bytes
    spec = spec_dir / f"structure-{name}.json"
    if name.startswith("3d-"):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_BENCH_3D[name[3:]]))
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    assert main([command, "--structure", str(spec), "--out", str(out)]) == 0
    header = out.read_text().split("\n")[:2]
    rows = np.loadtxt(out, delimiter=",", skiprows=2, ndmin=2)
    np.savetxt(ref, rows, delimiter=",", header="\n".join(header), comments="", fmt="%.17g")
    assert out.read_bytes() == ref.read_bytes()


def test_field_builds_no_derivative_spline(spec_dir, tmp_path, monkeypatch):
    # only christoffel needs the spline of the metric's partials; l1-l2 has
    # several bases, so its field is a spline
    def no_jet(self):
        raise AssertionError("field built the derivative spline")

    monkeypatch.setattr(manifold.MetricField, "_jet", property(no_jet))
    assert main(["field", "--structure", str(spec_dir / "structure-l1-l2-interpolation.json"),
                 "--out", str(tmp_path / "field.csv")]) == 0


@pytest.mark.parametrize("argv", [
    ["metric", "--norm", "norm-square-max.json"],
    ["ellipsoid", "--norm", "norm-square-max.json"],
    ["invariants", "--norm", "norm-square-max.json"],
    ["fingerprint", "--structure", "structure-constant-square.json", "--out", "out.csv"],
    ["compare", "--a", "a.csv", "--b", "b.csv"],
    ["field", "--structure", "structure-constant-square.json", "--out", "out.csv"],
    ["berwald", "--structure", "structure-constant-square.json"],
    ["verify", "--suite", "norms"],
    ["examples", "--list"]], ids=lambda argv: argv[0])
def test_no_command_takes_mc_seed(spec_dir, tmp_path, capsys, argv):
    # every rule is deterministic, so no command has a seed for it
    argv = [str(spec_dir / a) if a.endswith(".json") else
            str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    code = main(argv + ["--mc-seed", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unrecognized arguments: --mc-seed 0" in captured.err


@pytest.mark.parametrize("name", ["hexagon", "quartic-axial-2d", "euclidean-3d"])
def test_metric_evaluates_no_rule_after_converging(spec_dir, capsys, monkeypatch, name):
    load, loaded = specio.load_norm, []

    def load_counting(path):
        loaded.append(CountingNorm(load(path)))
        return loaded[-1]

    monkeypatch.setattr(specio, "load_norm", load_counting)
    code, out = run(capsys, "metric", "--norm", str(spec_dir / f"norm-{name}.json"))
    assert code == 0
    payload = strict_json(out)
    norm, level = loaded[0], payload["quadrature"]["level"]
    # one evaluation per level visited by the converge loop, none after it
    quads = [auto_quadrature(norm.inner, level=lvl) for lvl in range(level + 1)]
    assert norm.rule_calls == [len(q) for q in quads]
    # the reported moments are those of the converged rule
    want = bl_metric(norm.inner, level)
    assert payload["dual_matrix"] == want.dual.tolist()
    assert payload["unit_ball_volume"] == want.volume


def test_berwald_rejects_lattice_without_room_for_loops(spec_dir, capsys):
    rotor = str(spec_dir / "structure-rotor-linear.json")
    # at 7 nodes per axis three spacings are half the chart: loops of no extent
    code = main(["berwald", "--structure", rotor, "--grid", "7x7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "lattice 7x7" in captured.err and "margin" not in captured.err
    # at 5 and 6 nodes per axis the curvature interior is empty as well
    for grid in ("5x5", "6x6"):
        code = main(["berwald", "--structure", rotor, "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"lattice {grid}" in captured.err
    code, out = run(capsys, "berwald", "--structure", rotor, "--grid", "8x8")
    assert code == 0
    assert strict_json(out)["verdict"] == "not locally Minkowski"


@pytest.mark.parametrize("case", [
    "metric-out", "field-out", "fingerprint-out", "norm-dir", "structure-dir", "emit"])
def test_exit_code_file_error(spec_dir, tmp_path, capsys, case):
    norm = str(spec_dir / "norm-square-max.json")
    structure = str(spec_dir / "structure-constant-square.json")
    missing = str(tmp_path / "missing" / "out")
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {
        "metric-out": ["metric", "--norm", norm, "--out", missing],
        "field-out": ["field", "--structure", structure, "--grid", "9x9", "--out", missing],
        "fingerprint-out": ["fingerprint", "--structure", structure, "--grid", "2x2",
                            "--out", missing],
        "norm-dir": ["metric", "--norm", str(tmp_path)],
        "structure-dir": ["field", "--structure", str(tmp_path), "--out", missing],
        "emit": ["examples", "--emit", str(blocker / "specs")],
    }[case]
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("cell", ["nan", "abc", "inf"])
def test_compare_rejects_non_finite_entry(tmp_path, capsys, cell):
    good = tmp_path / "good.csv"
    good.write_text("# blgeom cloud v1\nx1,x2,w0,w1,mu,m_max\n0,0,3,3.4,0.8,1.1\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("# blgeom cloud v1\nx1,x2,w0,w1,mu,m_max\n"
                   f"0,0,3,3.4,0.8,1.1\n1,0,3,{cell},0.8,1.1\n")
    code = main(["compare", "--a", str(good), "--b", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert str(bad) in captured.err and "row 2" in captured.err


_EUCLIDEAN_4D = {"family": "euclidean", "matrix": np.eye(4).tolist()}


def test_metric_4d_converges_deterministically(tmp_path, capsys):
    g0 = np.diag([1.0, 1.5, 0.8, 1.2])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "euclidean", "matrix": g0.tolist()}))
    code1, out1 = run(capsys, "metric", "--norm", str(spec))
    code2, out2 = run(capsys, "metric", "--norm", str(spec))
    assert code1 == code2 == 0 and out1 == out2
    payload = strict_json(out1)
    assert payload["quadrature"]["scheme"] == "orthant-gauss"
    assert payload["quadrature"]["converged"] is True
    np.testing.assert_allclose(payload["metric"], g0, rtol=0, atol=1e-10)


@pytest.mark.parametrize("command", ["invariants", "fingerprint"])
def test_exit_code_unsupported_dimension(tmp_path, capsys, command):
    spec = tmp_path / "spec.json"
    if command == "invariants":
        spec.write_text(json.dumps(_EUCLIDEAN_4D))
        argv = ["invariants", "--norm", str(spec)]
    else:
        spec.write_text(json.dumps({
            "chart": {"lo": [-1.0] * 4, "hi": [1.0] * 4},
            "field": {"family": "constant", "norm": _EUCLIDEAN_4D}}))
        argv = ["fingerprint", "--structure", str(spec), "--grid", "1x1x1x1",
                "--out", str(tmp_path / "cloud.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: ") and "n in {2, 3}" in captured.err


_NORM_1D = {
    "lp": {"family": "lp", "p": 2, "dim": 1},
    "euclidean": {"family": "euclidean", "matrix": [[2.0]]},
}


@pytest.mark.parametrize("family", sorted(_NORM_1D))
@pytest.mark.parametrize("command", ["metric", "ellipsoid", "invariants",
                                     "field", "berwald", "fingerprint"])
def test_exit_code_norm_on_the_line(tmp_path, capsys, command, family):
    # S^0 has no sphere rule and no sphere search, so R^1 is an input error
    spec = tmp_path / "spec.json"
    if command in ("metric", "ellipsoid", "invariants"):
        spec.write_text(json.dumps(_NORM_1D[family]))
        argv = [command, "--norm", str(spec)]
    else:
        spec.write_text(json.dumps({"chart": {"lo": [-1.0], "hi": [1.0]},
                                    "field": {"family": "constant", "norm": _NORM_1D[family]}}))
        argv = [command, "--structure", str(spec)]
        if command != "berwald":
            argv += ["--out", str(tmp_path / "out.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: ")
    assert "dimension must be between 2 and 6, got 1" in captured.err


_EYE_2D = {"family": "euclidean", "matrix": [[1.0, 0.0], [0.0, 1.0]]}

# one valid object of every norm family, field family and scalar-field kind
_NORM_OF = {
    "euclidean": _EYE_2D,
    "lp": {"family": "lp", "p": 3, "dim": 2},
    "polytope": _SQUARE_SPEC,
    "linear-image": {"family": "linear-image", "matrix": [[2.0, 0.0], [0.0, 1.0]],
                     "inner": _EYE_2D},
    "weighted-sum": {"family": "weighted-sum", "w1": 0.5, "w2": 0.5,
                     "first": _EYE_2D, "second": _SQUARE_SPEC},
    "quartic-axial": {"family": "quartic-axial", "dim": 2},
}
_FIELD_OF = {
    "constant": {"family": "constant", "norm": _EYE_2D},
    "l1-l2-interpolation": {"family": "l1-l2-interpolation"},
    "rotor": {"family": "rotor", "psi": _FIXED_ANGLE},
    "conformal-rescale": _conformal({"kind": "constant", "value": 2.0})["field"],
    "holonomy-extension": {"family": "holonomy-extension", "norm": _EYE_2D},
}
_SCALAR_OF = {
    "constant": {"kind": "constant", "value": 2.0},
    "one-plus-sin": {"kind": "one-plus-sin", "amp": 0.3},
    "linear": {"kind": "linear", "slope": 0.1, "offset": 2.0},
    "exp-linear": {"kind": "exp-linear", "rate": 0.5},
}


def _as_structure(field):
    return {"chart": _CHART, "field": field}


def _identity(spec):
    return spec


# (command, spec of an object, object, misspelled key to add to the object)
_MISSPELLED = dict(
    [(f"norm-{family}", ("metric", _identity, spec, typo)) for (family, spec), typo in zip(
        _NORM_OF.items(), ["matirx", "dims", "vertex", "iner", "w3", "dimension"])]
    + [(f"field-{family}", ("field", _as_structure, spec, typo))
       for (family, spec), typo in zip(
           _FIELD_OF.items(), ["nrom", "chart", "bsae", "factr", "norms"])]
    + [(f"kind-{kind}", ("field", _conformal, spec, typo)) for (kind, spec), typo in zip(
        _SCALAR_OF.items(), ["val", "frq", "ofset", "axes"])]
    + [("top-level", ("field", _identity, _rotor(_FIXED_ANGLE), "chrat")),
       ("chart", ("field", lambda chart: _rotor(_FIXED_ANGLE, chart), _CHART, "high"))])


@pytest.mark.parametrize("case", sorted(_MISSPELLED))
def test_unknown_key_exit_2(tmp_path, capsys, case):
    command, spec_of, obj, typo = _MISSPELLED[case]
    path = tmp_path / "spec.json"
    flag = "--norm" if command == "metric" else "--structure"
    argv = [command, flag, str(path)]
    if command == "field":
        argv += ["--grid", "9x9", "--out", str(tmp_path / "field.csv")]
    path.write_text(json.dumps(spec_of(obj)))
    assert main(argv) == 0
    capsys.readouterr()
    path.write_text(json.dumps(spec_of({**obj, typo: 1.0})))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unknown key {typo!r}" in captured.err


@pytest.mark.parametrize("argv", [["verify", "--suite", "norms", "--seed", "-1"]],
                         ids=["verify"])
def test_negative_seed_exit_2(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("name", ["hexagon", "quartic-axial-2d", "euclidean-3d"])
def test_ellipsoid_evaluates_f_once(spec_dir, capsys, monkeypatch, name):
    load, loaded = specio.load_norm, []

    def load_counting(path):
        loaded.append(CountingNorm(load(path)))
        return loaded[-1]

    monkeypatch.setattr(specio, "load_norm", load_counting)
    code, _ = run(capsys, "ellipsoid", "--norm", str(spec_dir / f"norm-{name}.json"))
    assert code == 0
    norm = loaded[0]
    assert norm.rule_calls == [len(auto_quadrature(norm.inner, 0))]


_ONE_PLUS_SIN = {"kind": "one-plus-sin", "amp": 0.3, "freq": 1.0, "phase": 0.0}

# (command, spec, path to a numeric slot, bool to put there): a bool in the
# slot exits 2; the spec with the bool's number there exits 0
_NUMERIC_SLOTS = {
    "euclidean-matrix": ("metric", _EYE_2D, ("matrix", 0, 0), True),
    "linear-image-matrix": ("metric", _NORM_OF["linear-image"], ("matrix", 1, 1), True),
    "folded-layer-matrix": (
        "metric", {"family": "linear-image", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                   "inner": _NORM_OF["linear-image"]}, ("inner", "matrix", 1, 1), True),
    "polytope-vertices": ("metric", _SQUARE_SPEC, ("vertices", 0, 0), True),
    "lp-p": ("metric", _NORM_OF["lp"], ("p",), True),
    "weighted-sum-w1": ("metric", _NORM_OF["weighted-sum"], ("w1",), True),
    "weighted-sum-w2": ("metric", _NORM_OF["weighted-sum"], ("w2",), True),
    "constant-value": ("field", _conformal(_SCALAR_OF["constant"]),
                       ("field", "factor", "value"), True),
    "one-plus-sin-amp": ("field", _conformal(_ONE_PLUS_SIN), ("field", "factor", "amp"), True),
    "one-plus-sin-freq": ("field", _conformal(_ONE_PLUS_SIN), ("field", "factor", "freq"), True),
    "one-plus-sin-phase": ("field", _conformal(_ONE_PLUS_SIN), ("field", "factor", "phase"), False),
    "linear-slope": ("field", _conformal(_SCALAR_OF["linear"]),
                     ("field", "factor", "slope"), True),
    "linear-offset": ("field", _conformal(_SCALAR_OF["linear"]),
                      ("field", "factor", "offset"), True),
    "exp-linear-rate": ("field", _conformal(_SCALAR_OF["exp-linear"]),
                        ("field", "factor", "rate"), True),
    "chart-lo": ("field", _rotor(_FIXED_ANGLE), ("chart", "lo", 0), False),
    "chart-hi": ("field", _rotor(_FIXED_ANGLE), ("chart", "hi", 1), True),
}


def _with(spec, path, value):
    """A copy of ``spec`` with ``value`` at ``path``."""
    spec = copy.deepcopy(spec)
    obj = spec
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = value
    return spec


@pytest.mark.parametrize("case", sorted(_NUMERIC_SLOTS))
def test_bool_in_numeric_slot_exit_2(tmp_path, capsys, case):
    command, spec, path, flag = _NUMERIC_SLOTS[case]
    spec_path = tmp_path / "spec.json"
    argv = [command, "--norm" if command == "metric" else "--structure", str(spec_path)]
    if command == "field":
        argv += ["--grid", "9x9", "--out", str(tmp_path / "field.csv")]
    spec_path.write_text(json.dumps(_with(spec, path, float(flag))))
    assert main(argv) == 0
    capsys.readouterr()
    spec_path.write_text(json.dumps(_with(spec, path, flag)))
    assert main(argv) == 2
    captured = capsys.readouterr()
    key = [step for step in path if isinstance(step, str)][-1]
    assert captured.out == "" and f"key {key!r}" in captured.err


_PARSER_CORPUS = [
    [], ["-h"], ["--help"], ["frobnicate"], ["-x"],
    *[[name, "-h"] for name in cli._COMMANDS],
    ["metric"],
    ["field", "--structure", "structure-constant-square.json"],
    ["metric", "--norm", "norm-square-max.json", "--mc-seed", "0"],
    ["metric", "--norm", "norm-square-max.json", "--quad-level", "9"],
    ["metric", "--norm", "norm-square-max.json", "--tol", "nan"],
    ["compare", "--a", "a.csv", "--b", "b.csv", "--tol", "-1", "--assert", "extra"],
    ["verify", "--seed", "-1"],
    ["examples", "--emit"],
]


@pytest.mark.parametrize("argv", _PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "no-argument")
def test_parser_exit_codes_and_streams(spec_dir, capsys, argv):
    # help prints the subcommands, or the command's flags, to stdout and
    # exits 0; every other argument list here is a parse error: exit 2,
    # nothing on stdout, the usage line and the error on stderr
    argv = [str(spec_dir / a) if a.endswith(".json") else a for a in argv]
    code = main(list(argv))
    captured = capsys.readouterr()
    if "-h" in argv or "--help" in argv:
        command = argv[0] if argv[0] in cli._COMMANDS else None
        names = (list(cli._COMMANDS) if command is None
                 else [name for name, _ in cli._COMMANDS[command][2]])
        assert code == 0 and captured.err == ""
        assert all(name in captured.out for name in names)
    else:
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("usage: blgeom") and "error:" in captured.err


@pytest.mark.parametrize("flag", [["--structure={}"], ["--struct", "{}"], ["--s={}"]],
                         ids=["joined", "prefix", "joined-prefix"])
def test_flag_by_prefix_or_joined_value(spec_dir, tmp_path, capsys, flag):
    spec = str(spec_dir / "structure-constant-square.json")
    out, ref = tmp_path / "field.csv", tmp_path / "ref.csv"
    assert main(["field", *[f.format(spec) for f in flag], "--grid=5x5", "--out", str(out)]) == 0
    assert main(["field", "--structure", spec, "--grid", "5x5", "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def _cloud(tmp_path):
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("# blgeom cloud v1\nx1,x2,w0,w1,mu,m_max\n0,0,3,3.4,0.8,1.1\n")
    return str(cloud)


def test_exact_flag_wins_over_prefix(tmp_path, capsys):
    # --a names --a, not --assert, which it is also a prefix of; --as names --assert
    cloud = _cloud(tmp_path)
    code, out = run(capsys, "compare", "--a", cloud, "--b", cloud)
    assert code == 0 and strict_json(out)["verdict"] == "cannot distinguish"
    code, out = run(capsys, "compare", "--a", cloud, "--b", cloud, "--as", "--t", "0.5")
    assert code == 0 and strict_json(out)["tol"] == 0.5


def test_repeated_flag_keeps_its_last_value(spec_dir, capsys):
    norm = str(spec_dir / "norm-square-max.json")
    code, out = run(capsys, "metric", "--norm", "/does/not/exist.json", "--norm", norm,
                    "--quad-level", "4", "--quad-level", "1")
    _, want = run(capsys, "metric", "--norm", norm, "--quad-level", "1")
    assert code == 0 and out == want


@pytest.mark.parametrize("argv, message", [
    (["compare", "--a", "a.csv", "--b", "b.csv", "--assert=x"],
     "argument --assert: ignored explicit argument 'x'"),
    (["metric", "--norm", "norm-square-max.json", "--out", "-x"],
     "argument --out: expected one argument"),
    (["metric", "--norm"], "argument --norm: expected one argument"),
    (["verify", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["metric", "--norm", "norm-square-max.json", "--tol", "-1e-3"],
     "argument --tol: must be finite and > 0, got -1e-3"),
    (["metric", "--norm", "norm-square-max.json", "--quad-level", "x"],
     "argument --quad-level: "),
    (["berwald", "--structure", "x", "--tol", "-inf"], "argument --tol: expected one argument"),
    (["verify", "--s", "norms"], "ambiguous option: --s could match --suite, --seed"),
    (["metric", "--norm", "x", "--nope", "y", "--"], "unrecognized arguments: --nope y --"),
], ids=["store-true-with-value", "dash-value", "no-value", "negative-seed",
        "negative-number-value", "non-integer-level", "non-finite-dash-value", "ambiguous-prefix",
        "unknown-flag"])
def test_parse_error_message(spec_dir, capsys, argv, message):
    argv = [str(spec_dir / a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"blgeom {argv[0]}: error: {message}" in captured.err


_DISTINCT_BITS = np.array([
    [0.0, -0.0, 5e-324, -5e-324],
    [1e300, -1e300, 0.1, 1.0 / 3.0],
    [0.0, -0.0, 5e-324, -5e-324],
    [1e300, -1e300, 0.1, 1.0 / 3.0]])


@pytest.mark.parametrize("rows", [
    _DISTINCT_BITS,
    np.tile(_DISTINCT_BITS[:1], (5, 1)),
    np.random.default_rng(3).standard_normal((50, 7)) * 10.0 ** np.arange(-150, 200, 50)],
    ids=["signed-zeros-subnormals-huge", "repeated-rows", "all-distinct"])
def test_write_csv_bytes_match_savetxt(tmp_path, rows):
    path = tmp_path / "out.csv"
    cli._write_csv(path, "# comment\na,b", rows)
    ref = io.StringIO()
    np.savetxt(ref, rows, fmt="%.17g", delimiter=",")
    assert path.read_text() == "# comment\na,b\n" + ref.getvalue()


_CLOUD = "x1,x2,w0,w1,mu,m_max\n0,0,3,3.4,0.8,1.1\n1,0,3.5,3.1,0.7,1.2\n"


def _compare(tmp_path, text_a, text_b):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(text_a)
    b.write_text(text_b)
    return main(["compare", "--a", str(a), "--b", str(b)])


def test_compare_reads_a_bom_crlf_and_python_numerals(tmp_path, capsys):
    # a byte-order mark and CRLF line ends are read through; a cell is read
    # by Python's float, so the underscore numeral 3_5 is 35
    plain = "# blgeom cloud v1\n" + _CLOUD.replace("3.5", "35")
    for text in ("\ufeff" + plain, plain.replace("\n", "\r\n"), plain.replace("35", "3_5")):
        (tmp_path / "b.csv").write_text(text, encoding="utf-8", newline="")
        (tmp_path / "a.csv").write_text(plain)
        code = main(["compare", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")])
        assert code == 0 and strict_json(capsys.readouterr().out)["hausdorff"] == 0.0


def test_compare_rejects_header_only_cloud(tmp_path, capsys):
    code = _compare(tmp_path, "# blgeom cloud v1\n" + _CLOUD,
                    "# blgeom cloud v1\nx1,x2,w0,w1,mu,m_max\n")
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "must be non-empty" in captured.err


def test_compare_rejects_ragged_row(tmp_path, capsys):
    code = _compare(tmp_path, "# blgeom cloud v1\n" + _CLOUD,
                    "# blgeom cloud v1\n" + _CLOUD + "2,0,3,3.4,0.8\n")
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert str(tmp_path / "b.csv") in captured.err and "row 3" in captured.err


def test_compare_reads_cloud_without_comment_line(tmp_path, capsys):
    code = _compare(tmp_path, "# blgeom cloud v1\n" + _CLOUD, _CLOUD)
    assert code == 0 and strict_json(capsys.readouterr().out)["hausdorff"] == 0.0


def test_compare_picks_columns_by_name(tmp_path, capsys):
    # the same cloud with its columns in another order
    table = [line.split(",") for line in _CLOUD.split()]
    order = [4, 3, 0, 5, 2, 1]
    shuffled = "".join(",".join(r[k] for k in order) + "\n" for r in table)
    code = _compare(tmp_path, _CLOUD, shuffled)
    assert code == 0 and strict_json(capsys.readouterr().out)["hausdorff"] == 0.0


def test_read_cloud_reads_written_rows_exactly(tmp_path):
    rows = np.random.default_rng(4).standard_normal((20, 6)) * 1e-7
    path = tmp_path / "cloud.csv"
    cli._write_csv(path, "# blgeom cloud v1\nx1,x2,w0,w1,mu,m_max", rows)
    assert np.array_equal(cli._read_cloud(path), rows[:, 2:])


# Values at the float limit: each case exits 2 or 3 with a message, never a
# traceback, with RuntimeWarnings raised as errors (the CI flags).


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("axis", [0, 1])
def test_berwald_chart_bound_at_float_limit(spec_dir, tmp_path, capsys, axis):
    # the Greville abscissae of the spline refinement once summed three
    # knots near 1e308 and overflowed
    spec = json.loads((spec_dir / "structure-constant-square.json").read_text())
    path = tmp_path / "big-chart.json"
    path.write_text(json.dumps(_with(spec, ("chart", "hi", axis), 1e308)))
    code = main(["berwald", "--structure", str(path)])
    captured = capsys.readouterr()
    assert code in (2, 3) and captured.out == ""
    assert captured.err.startswith(("input error: ", "numerical failure: "))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["metric", "ellipsoid", "invariants"])
def test_weight_at_float_limit_is_a_numerical_failure(spec_dir, tmp_path, capsys, command):
    spec = json.loads((spec_dir / "norm-l1-l2-mix.json").read_text())
    path = tmp_path / "big-weight.json"
    path.write_text(json.dumps(_with(spec, ("w1",), 1e308)))
    code = main([command, "--norm", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("numerical failure: moment matrix is not finite at the norm's "
                            "scale 2^1023: vol(Omega), M* or g lies past the float range\n")


def _scaled_norm(spec_dir, tmp_path, capsys, name):
    """(run, n): ``run(command, kappa)`` runs ``command`` on the catalog norm
    ``name`` wrapped as the linear image kappa I, and returns (exit code, stdout)."""
    spec = json.loads((spec_dir / f"norm-{name}.json").read_text())
    n = catalog.builtin_norm(name).dim
    path = tmp_path / "scaled.json"

    def scaled(command, kappa):
        path.write_text(json.dumps({"family": "linear-image", "inner": spec,
                                    "matrix": (kappa * np.eye(n)).tolist()}))
        return run(capsys, command, "--norm", str(path))

    return scaled, n


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NORMS))
def test_metric_obeys_the_scaling_law_at_any_float_scale(spec_dir, tmp_path, capsys, name):
    # g(kappa F) = kappa^2 g(F): bit for bit at a power of two, to round-off
    # otherwise, and exit 3 once kappa^2 g, M* / kappa^2 or kappa^-n vol lies
    # past the float range (a 3D vol does at 2^+-400)
    scaled, n = _scaled_norm(spec_dir, tmp_path, capsys, name)

    def metric(kappa):
        code, out = scaled("metric", kappa)
        return code, np.array(strict_json(out)["metric"]) if code == 0 else out

    g = metric(1.0)[1]
    exact, beyond = ((400, -400), (1e160, 1e-160)) if n == 2 else ((300, -300), (2.0 ** 400, 2.0 ** -400))
    for e in exact:
        code, ge = metric(2.0 ** e)
        assert code == 0 and np.array_equal(ge, np.ldexp(g, 2 * e))
    if n == 2:
        for kappa in (1e150, 1e-150):
            code, gk = metric(kappa)
            assert code == 0 and np.linalg.norm(gk / kappa ** 2 - g) <= 1e-12 * np.linalg.norm(g)
    for kappa in beyond:
        assert metric(kappa) == (3, "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NORMS))
def test_conformal_invariants_do_not_move_with_the_norm_scale(spec_dir, tmp_path, capsys, name):
    # the Legendre scale and every invariant of kappa F are those of F: bit
    # for bit at a power of two, where the ellipsoid shapes are 4^-+e M* and
    # 4^+-e g exactly, and to round-off at decimal scales
    scaled, n = _scaled_norm(spec_dir, tmp_path, capsys, name)
    code_e, ell = scaled("ellipsoid", 1.0)
    code_i, inv = scaled("invariants", 1.0)
    assert code_e == code_i == 0
    ell = strict_json(ell)
    weights = np.array(strict_json(inv)["quermassintegrals"])
    for e in (300, -300):
        code, out = scaled("ellipsoid", 2.0 ** e)
        got = strict_json(out)
        assert code == 0 and got["legendre"]["scale"] == ell["legendre"]["scale"]
        assert np.array_equal(got["legendre"]["shape"], np.ldexp(ell["legendre"]["shape"], 2 * e))
        assert np.array_equal(got["binet"]["shape"], np.ldexp(ell["binet"]["shape"], -2 * e))
        assert scaled("invariants", 2.0 ** e) == (0, inv)
    for kappa in (1e-100, 1e80):
        code, out = scaled("ellipsoid", kappa)
        assert code == 0
        assert strict_json(out)["legendre"]["scale"] == pytest.approx(
            ell["legendre"]["scale"], rel=1e-13, abs=0)
        code, out = scaled("invariants", kappa)
        assert code == 0
        np.testing.assert_allclose(strict_json(out)["quermassintegrals"], weights,
                                   rtol=1e-14 if n == 2 else 1e-11, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["field", "fingerprint", "berwald"])
def test_overflowing_node_tensor_is_a_numerical_failure(tmp_path, capsys, command):
    # A^T g A of the map 1e200 I overflows; the node gate names the tensor
    spec = tmp_path / "huge-map.json"
    spec.write_text(json.dumps({
        "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "field": {"family": "constant",
                  "norm": {"family": "linear-image", "matrix": [[1e200, 0.0], [0.0, 1e200]],
                           "inner": _SQUARE_SPEC}}}))
    code = main([command, "--structure", str(spec), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.endswith("metric tensor is not finite\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["berwald", "fingerprint"])
def test_structure_outputs_do_not_move_with_the_norm_scale(tmp_path, capsys, command):
    # the Gram residual, the loop defect, the curvature and the fingerprint
    # are conformal invariants: the square gauge scaled by 2^+-300 gives the
    # unscaled bytes (the Gram and band norms once squared 1e180 entries, and
    # F of a loop's vectors under a 2^-300 map, ~1e-90, is exactly 2^-300 F)
    def output(kappa):
        spec, out = tmp_path / "scaled.json", tmp_path / "out"
        spec.write_text(json.dumps({
            "chart": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            "field": {"family": "constant",
                      "norm": {"family": "linear-image", "matrix": (kappa * np.eye(2)).tolist(),
                               "inner": _SQUARE_SPEC}}}))
        code = main([command, "--structure", str(spec), "--grid", "9x9", "--out", str(out)])
        return code, out.read_text()

    want = output(1.0)
    assert want[0] == 0
    for e in (300, -300):
        assert output(2.0 ** e) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cells", [("1e308", "-1e308"), ("-1e308", "1e308")],
                         ids=["plus-minus", "minus-plus"])
def test_compare_cells_at_float_limit(tmp_path, capsys, cells):
    # the interquartile range of a column holding +-1e308 overflows
    big = ("x1,x2,w0,w1,mu,m_max\n"
           f"0,0,{cells[0]},3.4,0.8,1.1\n1,0,{cells[1]},3.1,0.7,1.2\n2,0,3,3.3,0.9,1.0\n")
    for text_a, text_b in ((big, _CLOUD), (_CLOUD, big)):
        code = _compare(tmp_path, text_a, text_b)
        captured = capsys.readouterr()
        assert code in (2, 3) and captured.out == ""
        assert captured.err.startswith(("input error: ", "numerical failure: "))
